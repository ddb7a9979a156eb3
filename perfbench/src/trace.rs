//! In-memory spans around each call into a layer.
//!
//! A [`Tracer`] records one [`Span`] per call while enabled and nothing
//! while disabled. Spans nest: a span's *self time* is its duration minus
//! the durations of its direct children, so self times of every span in a
//! sample add up to the root's duration. Spans are grouped by *sample* (one
//! session, epoch or check-in) and written out as JSON lines at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub sample: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    sample: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an entered span (`None` when the tracer was disabled).
#[must_use]
pub struct Entered(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            sample: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans entered from now on with `sample`.
    pub fn set_sample(&mut self, sample: u64) {
        self.sample = sample;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.enabled {
            return Entered(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            sample: self.sample,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Entered(Some(idx))
    }

    pub fn exit(&mut self, entered: Entered) {
        if let Some(idx) = entered.0 {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let entered = self.enter(name);
        let out = f();
        self.exit(entered);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per sample, per span name: summed self time in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_ns_each(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"sample\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"parent\":{}}}",
                s.name,
                s.sample,
                s.start_ns,
                s.dur_ns(),
                selfs[i],
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_ns_each(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self times summed per sample and span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_ns_each(spans)) {
        *out.entry(s.sample).or_default().entry(s.name).or_default() += self_ns;
    }
    out
}
