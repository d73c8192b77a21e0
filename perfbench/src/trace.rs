//! Spans the benchmark records around its own calls into each layer.
//! A span has a name, a start, an end, its parent span and the id of the
//! request it belongs to. Spans are kept in memory and summarised when
//! the run ends; with tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log. Open spans form a stack, so the parent of a
/// new span is the innermost span still open on the same thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty log for another thread, on the same clock.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append another thread's spans (their parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write every span, one per line: request, name, parent index, start
/// and end in ns since the run's epoch.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\trequest\tname\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Per span name: count and total self time (its duration minus the
/// part its child spans cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Children of one parent run one after another on the
            // parent's thread, so their durations never overlap.
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns).saturating_sub(child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("root", 7, |t| {
            t.span("child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let st = self_times(spans);
        assert!(st["child"].1 >= 20_000_000);
        assert!(
            st["root"].1 < st["child"].1,
            "root self time {:?}",
            st["root"]
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
