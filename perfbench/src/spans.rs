//! In-memory span recorder wrapped around the library's public calls.
//!
//! Every timed region of the benchmark goes through [`Tracer::open`] /
//! [`Tracer::close`]. With recording off (the end-to-end runs) a span is
//! just an `Instant` pair; with recording on (the per-layer run) each span
//! is kept as `(name, start, end, parent)` and written out as JSON when
//! the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or abandoned) span; times are seconds since process start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Handle of an open span.
#[must_use = "a span measures nothing until it is closed"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    t0: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
}

impl Tracer {
    /// `t0` is the process start as seen by `main`; `record` keeps spans.
    pub fn new(t0: Instant, record: bool) -> Self {
        Tracer {
            t0,
            spans: record.then(Vec::new),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_s: start.duration_since(self.t0).as_secs_f64(),
                end_s: f64::NAN,
            });
            spans.len() - 1
        });
        if let Some(i) = index {
            self.stack.push(i);
        }
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let (Some(i), Some(spans)) = (open.index, self.spans.as_mut()) {
            spans[i].end_s = end.duration_since(self.t0).as_secs_f64();
            while let Some(top) = self.stack.pop() {
                if top == i {
                    break;
                }
            }
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Closes every span a panic left open, so the trace stays well formed.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.t0.elapsed().as_secs_f64();
        while self.stack.len() > depth {
            let i = self.stack.pop().expect("stack is longer than depth");
            if let Some(spans) = self.spans.as_mut() {
                spans[i].end_s = now;
            }
        }
    }

    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// For each span called `parent`, the summed durations of its direct
    /// children whose names are in `children`.
    pub fn child_sums(&self, parent: &str, children: &[&str]) -> Vec<f64> {
        let spans = self.spans();
        (0..spans.len())
            .filter(|&i| spans[i].name == parent)
            .map(|i| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(i) && children.contains(&s.name))
                    .map(|s| s.end_s - s.start_s)
                    .sum()
            })
            .collect()
    }

    /// Share of `wall_s` covered by top-level spans. Top-level spans never
    /// overlap (the harness is single-threaded), so this is their sum.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let covered: f64 = self
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .sum();
        covered / wall_s
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> Result<(), String> {
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans().len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}{sep}",
                s.name, s.start_s, s.end_s
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write trace {}: {e}", path.display()))
    }
}
