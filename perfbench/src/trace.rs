//! Spans recorded by the benchmark around its calls into each crate.
//!
//! One [`Tracer`] per client thread, so recording takes no lock. A span
//! has a name, start and end (ns since the run's epoch), the index of the
//! span that caused it, and the call id it belongs to. Everything stays in
//! memory until the run ends; then [`write_tsv`] writes it out and
//! [`Summary`] folds it into per-layer numbers.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// How a span was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One benchmark call: the unit the end-to-end latency measures.
    Call,
    /// A public-function call made inside a benchmark call.
    Layer,
    /// A duration a crate reported itself (an `ExecReport` scan wall),
    /// placed at the start of its call: its length is measured, its
    /// position is not.
    Derived,
    /// A layer call timed on its own, outside any benchmark call, on the
    /// inputs of the call named by the span's call id.
    Standalone,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Self::Call => "call",
            Self::Layer => "layer",
            Self::Derived => "derived",
            Self::Standalone => "standalone",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.function` style (`memsim.boot`).
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index (in the same tracer) of the span that caused this one.
    pub parent: Option<usize>,
    /// Id of the benchmark call (its cell index in the run).
    pub call: u64,
    /// How the span was obtained.
    pub kind: Kind,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-client span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open_call: Option<usize>,
    standalone_call: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open_call: None,
            standalone_call: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the span of benchmark call `call`.
    pub fn begin_call(&mut self, call: u64) {
        let start = self.now();
        self.spans.push(Span {
            name: "call",
            start,
            end: start,
            parent: None,
            call,
            kind: Kind::Call,
        });
        self.open_call = Some(self.spans.len() - 1);
    }

    /// Closes the open call span.
    pub fn end_call(&mut self) {
        let end = self.now();
        if let Some(i) = self.open_call.take() {
            self.spans[i].end = end;
        }
    }

    /// Labels the standalone spans that follow with call id `call`.
    pub fn standalone_for(&mut self, call: u64) {
        self.standalone_call = call;
    }

    /// Runs `f` inside a span named `name`: a layer span of the open call,
    /// or a standalone span when no call is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let (parent, call, kind) = match self.open_call {
            Some(i) => (Some(i), self.spans[i].call, Kind::Layer),
            None => (None, self.standalone_call, Kind::Standalone),
        };
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            call,
            kind,
        });
        out
    }

    /// Records a duration a crate measured itself as a child of the open
    /// call, starting where the call started.
    pub fn derived(&mut self, name: &'static str, dur: Duration) {
        let Some(i) = self.open_call else { return };
        let start = self.spans[i].start;
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start,
            end: start.saturating_add(ns),
            parent: Some(i),
            call: self.spans[i].call,
            kind: Kind::Derived,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Count and total duration of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans seen.
    pub count: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

impl Totals {
    /// Mean span duration in ms (0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Spans folded per name, plus the calls' self time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Non-call spans by name.
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Call spans.
    pub calls: Totals,
    /// Summed self time of the call spans (duration minus the part their
    /// child spans cover), ns.
    pub call_self_ns: u64,
}

impl Summary {
    /// Folds one tracer's spans into the summary.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
            if s.kind == Kind::Call {
                continue;
            }
            let t = self.by_name.entry(s.name).or_default();
            t.count += 1;
            t.ns += s.ns();
        }
        for (i, s) in spans.iter().enumerate() {
            if s.kind != Kind::Call {
                continue;
            }
            self.calls.count += 1;
            self.calls.ns += s.ns();
            let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
            self.call_self_ns += self_time(s.start, s.end, kids);
        }
    }

    /// The totals of spans named `name` (zero when none ran).
    #[must_use]
    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Writes every span, one per line, tab-separated, with a header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv(path: &std::path::Path, tracers: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client\tcall\tkind\tname\tparent\tstart_ns\tend_ns")?;
    for (client, spans) in tracers.iter().enumerate() {
        for s in *spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{client}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.call,
                s.kind.label(),
                s.name,
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_self_time_excludes_layer_spans() {
        let spans = vec![
            Span {
                name: "call",
                start: 0,
                end: 100,
                parent: None,
                call: 7,
                kind: Kind::Call,
            },
            Span {
                name: "a",
                start: 10,
                end: 30,
                parent: Some(0),
                call: 7,
                kind: Kind::Layer,
            },
            Span {
                name: "b",
                start: 20,
                end: 50,
                parent: Some(0),
                call: 7,
                kind: Kind::Layer,
            },
            Span {
                name: "a",
                start: 60,
                end: 70,
                parent: Some(0),
                call: 7,
                kind: Kind::Layer,
            },
            Span {
                name: "s",
                start: 200,
                end: 260,
                parent: None,
                call: 7,
                kind: Kind::Standalone,
            },
        ];
        let mut sum = Summary::default();
        sum.absorb(&spans);
        assert_eq!(sum.calls, Totals { count: 1, ns: 100 });
        // Children cover [10, 50) and [60, 70): 50 ns, so 50 ns of self.
        assert_eq!(sum.call_self_ns, 50);
        assert_eq!(sum.get("a"), Totals { count: 2, ns: 30 });
        assert_eq!(sum.get("s"), Totals { count: 1, ns: 60 });
        assert_eq!(sum.get("missing"), Totals::default());
    }

    #[test]
    fn tracer_nests_layer_spans_under_the_open_call() {
        let mut tr = Tracer::new(Instant::now());
        tr.begin_call(3);
        let v = tr.span("x", || 41 + 1);
        tr.derived("d", Duration::from_nanos(5));
        tr.end_call();
        tr.standalone_for(3);
        tr.span("y", || ());
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[1].kind, s[1].call),
            (Some(0), Kind::Layer, 3)
        );
        assert_eq!(
            (s[2].kind, s[2].start, s[2].ns()),
            (Kind::Derived, s[0].start, 5)
        );
        assert_eq!(
            (s[3].parent, s[3].kind, s[3].call),
            (None, Kind::Standalone, 3)
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
