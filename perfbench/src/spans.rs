//! Host-time spans recorded by the benchmark around its calls into the
//! library crates. Nothing inside the program is instrumented: every span
//! opens and closes in this crate, so a span's duration is the wall time of
//! the public call it wraps.
//!
//! Spans stay in memory while the workload runs and are written out once at
//! the end as JSON lines (`name`, `start_ns`, `end_ns`, `parent`), start
//! times relative to the recorder's creation.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `stats.profile`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder for one single-threaded workload run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span, and returns the span's index with `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (usize, T) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        (idx, out)
    }

    /// Like [`span`](Self::span) for a leaf call that records no children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f()).1
    }

    fn is_within(&self, mut idx: usize, root: usize) -> bool {
        loop {
            if idx == root {
                return true;
            }
            match self.spans[idx].parent {
                Some(p) => idx = p,
                None => return false,
            }
        }
    }

    /// Total seconds of the spans named `name` nested (at any depth) under
    /// `root`.
    pub fn total_secs(&self, root: usize, name: &str) -> f64 {
        (root..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.is_within(i, root))
            .map(|i| self.spans[i].secs())
            .sum()
    }

    /// Seconds of every leaf span (one with no children) nested under
    /// `root`, in opening order.
    pub fn leaf_secs(&self, root: usize) -> Vec<f64> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans[root + 1..] {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        (root + 1..self.spans.len())
            .filter(|&i| !has_child[i] && self.is_within(i, root))
            .map(|i| self.spans[i].secs())
            .collect()
    }

    /// Share of `root`'s wall time that none of its direct children covers:
    /// the benchmark's own glue (output checks, clones) rather than a timed
    /// library call.
    pub fn unaccounted_frac(&self, root: usize) -> f64 {
        let covered: f64 = (root + 1..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(root))
            .map(|i| self.spans[i].secs())
            .sum();
        let wall = self.spans[root].secs();
        if wall > 0.0 {
            (wall - covered) / wall
        } else {
            0.0
        }
    }

    /// The spans as JSON lines, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut spans = Spans::new();
        let (root, ()) = spans.span("rep", |s| {
            s.time("a", || std::hint::black_box(1 + 1));
            s.span("b", |s| s.time("a", || ()));
        });
        assert_eq!(spans.spans[1].parent, Some(root));
        assert_eq!(spans.spans[3].parent, Some(2));
        let a = spans.total_secs(root, "a");
        assert!(a >= 0.0 && a <= spans.spans[root].secs());
        let frac = spans.unaccounted_frac(root);
        assert!((0.0..=1.0).contains(&frac));
        assert_eq!(spans.to_jsonl().lines().count(), 4);
        let leaves = spans.leaf_secs(root);
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[1], spans.spans[3].secs());
    }
}
