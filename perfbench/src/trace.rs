//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder
//! was created), the span that was open when it began (its parent), and
//! the id of the request it belongs to. Spans are only pushed into a
//! `Vec` while the run measures; [`Tracer::write_jsonl`] writes them out
//! once the run is over.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// A short tag for spans whose meaning splits (`hit` / `miss` /
    /// `replan` on `engine.prepare`); empty otherwise.
    pub tag: &'static str,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder: spans in begin order plus the stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            tag: "",
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ms()
    }

    /// Records `f` as one span and returns its value with the span id.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, request);
        let value = f();
        self.end(id);
        (value, id)
    }

    pub fn tag(&mut self, id: SpanId, tag: &'static str) {
        self.spans[id].tag = tag;
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`, optionally only those
    /// carrying `tag`.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::ms)
            .collect()
    }

    /// Distinct span names, in first-recorded order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"tag\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.request, s.tag
            )?;
        }
        out.flush()
    }

    /// The recorder's own cost per span in nanoseconds, measured by
    /// recording `n` empty spans into a scratch recorder.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 20_000;
        let mut scratch = Tracer::new();
        let t = Instant::now();
        for i in 0..N {
            let id = scratch.begin("calibrate", i);
            scratch.end(id);
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }
}
