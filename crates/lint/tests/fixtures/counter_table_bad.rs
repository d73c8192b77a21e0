//! Fixture (positive, `dead-counter` on a `counters!` table): the row
//! `dead` is declared but never incremented. The `$name: AtomicU64` field
//! in the macro body is a metavariable and must not be reported as a
//! counter called `name`.
//!
//! Not compiled — parsed by gt-lint only.

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $group:ident,)*) => {
        struct ServerMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl ServerMetrics {
            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }
    };
}

counters! {
    /// Bumped on its code path.
    live: Traversal,
    /// Declared, never bumped.
    dead: Fault,
}

fn bump(m: &ServerMetrics) {
    m.live.fetch_add(1, Ordering::Relaxed);
}
