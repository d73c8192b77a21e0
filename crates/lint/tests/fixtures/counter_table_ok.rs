//! Fixture (negative, counter rules on a `counters!` table): every row
//! is incremented on its code path; the table itself generates the
//! snapshot reads, so no explicit `load` is needed.
//!
//! Not compiled — parsed by gt-lint only.

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $group:ident,)*) => {
        struct ServerMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl ServerMetrics {
            fn snapshot(&self) -> Vec<u64> {
                vec![$(self.$name.load(Ordering::Relaxed),)*]
            }
        }
    };
}

counters! {
    /// Vertex requests received.
    requests: Traversal,
    /// High-water mark of the queue.
    #[doc(alias = "peak")]
    queue_peak: Traversal,
}

fn bump(m: &ServerMetrics, len: u64) {
    m.requests.fetch_add(1, Ordering::Relaxed);
    m.queue_peak.fetch_max(len, Ordering::Relaxed);
}
