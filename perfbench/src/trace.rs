//! Spans recorded from outside the program. The benchmark wraps each call
//! into a layer's public API in a span (name, parent, start, end), keeps
//! the spans in memory and writes them out when the process ends. A
//! layer's self time is its spans' duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans and work counters.
pub struct Trace {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// An empty trace timed from `epoch` (threads of one process share it,
    /// so their spans line up when absorbed).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            recording: true,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A trace that keeps counters but records no spans: the same code
    /// path without the clock reads, for measuring tracing overhead.
    pub fn counters_only(epoch: Instant) -> Self {
        Self {
            recording: false,
            ..Self::new(epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Add `v` to a work counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Append another thread's trace, re-indexing its span parents.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        for (k, v) in other.counters {
            self.add(k, v);
        }
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        child
    }

    /// Self time in seconds per span name, plus the work counters.
    pub fn layers(&self) -> BTreeMap<&'static str, f64> {
        let mut out = self.counters.clone();
        for (s, c) in self.spans.iter().zip(self.child_ns()) {
            *out.entry(s.name).or_insert(0.0) += (s.ns() - c) as f64 * 1e-9;
        }
        out
    }

    /// Total duration in seconds of the spans named `root`, and the summed
    /// self time of every span nested under them.
    pub fn coverage(&self, root: &str) -> (f64, f64) {
        let child = self.child_ns();
        let under = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                if self.spans[p].name == root {
                    return true;
                }
                i = p;
            }
            false
        };
        let mut total = 0u64;
        let mut covered = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total += s.ns();
            } else if under(i) {
                covered += s.ns() - child[i];
            }
        }
        (total as f64 * 1e-9, covered as f64 * 1e-9)
    }

    /// Write the spans as CSV: `id,name,parent,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut csv = String::from("id,name,parent,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(csv, "{i},{},{parent},{},{}", s.name, s.start_ns, s.end_ns);
        }
        std::fs::write(path, csv)
    }
}
