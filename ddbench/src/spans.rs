//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span covers one call (or one batch of calls over a captured stream)
//! into a layer, made from the benchmark's own code. Spans of one job
//! share the job's id; a job's own span is the parent of its layer
//! spans, so a layer's self time is its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: usize,
    job: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans relative to the tracer's creation instant.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its id.
    pub fn open(&mut self, job: usize, parent: Option<usize>, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            job,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        job: usize,
        parent: usize,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(job, Some(parent), name);
        let value = f();
        (value, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span name: duration minus the part its direct
    /// children cover, summed per name, in nanoseconds.
    pub fn self_ns(&self) -> Vec<(String, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<(String, u64)> = Vec::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id]);
            let key = span.name.split(':').next().unwrap_or(&span.name);
            match totals.iter_mut().find(|(name, _)| name == key) {
                Some((_, total)) => *total += own,
                None => totals.push((key.to_string(), own)),
            }
        }
        totals
    }

    /// Writes one JSON object per span, one per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"job\":{},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.job,
                ddrace_json::Value::Str(s.name.clone()).to_compact(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
