//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing inside the library is instrumented: a span brackets a
//! public call made from this crate.

use std::time::Instant;

/// One timed interval: `[start, end)` in nanoseconds since the tracer's
/// origin, and the span that was open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary the span brackets, e.g. `kernel.call`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Renames the most recently started span, for a boundary whose
    /// layer is known only once the call returns (an append that
    /// flushed its commit group).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in ns.
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Number of spans named `name`.
    #[cfg(test)]
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its direct children cover.
    #[must_use]
    pub fn self_time(&self, id: usize) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        let parent = &self.spans[id];
        self_time((parent.start, parent.end), &children)
    }

    /// Total self time of the spans named `name`, in ns.
    #[must_use]
    pub fn total_self(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_time(id))
            .sum()
    }
}

/// `parent`'s duration minus the union of the `children` intervals,
/// clipped to the parent: overlapping children are counted once, and a
/// child running past the parent's end covers only the shared part.
#[must_use]
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10, 40) ∪ [20, 30) ∪ [35, 50) = [10, 50): 40 covered.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30), (35, 50)]), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // Only [90, 100) of the last child lies inside the parent, and a
        // child wholly outside covers nothing.
        assert_eq!(self_time((0, 100), &[(10, 30), (90, 120), (150, 160)]), 70);
        assert_eq!(self_time((50, 60), &[(0, 200)]), 0);
    }

    #[test]
    fn tracer_nests_and_measures_self_time() {
        let mut tracer = Tracer::new();
        tracer.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tracer.count("child"), 2);
        // Children are disjoint and nested, so the root's self time is
        // exactly its duration minus theirs.
        assert_eq!(
            tracer.self_time(0),
            spans[0].duration() - tracer.total("child")
        );
        assert!(tracer.total("child") >= 2_000_000);
        assert_eq!(tracer.total_self("child"), tracer.total("child"));
    }
}
