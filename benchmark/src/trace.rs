//! Spans recorded by the harness around the calls it makes into a layer.
//!
//! The tracer lives in the benchmark, not in the program: it sees a layer
//! from outside, as the time between calling one of its public functions
//! and getting the result back, plus whatever stage timings the call itself
//! reports (attached as child spans). Spans stay in memory during the run
//! and are written out once at the end.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Spans of one request (one screen, one wire round trip) share this.
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per layer name: how many spans, their summed duration, and the part of
/// it not covered by child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. With tracing off this records nothing and the id
    /// is a dummy that `end` ignores.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.filter(|p| p.0 != u32::MAX),
            request,
            start_ns,
            end_ns: start_ns,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == u32::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Times `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Attaches stage timings a call reported about itself as consecutive
    /// child spans, laid out from the parent's start. Their positions are
    /// nominal (the call reports durations, not instants); their lengths
    /// are what the callee measured.
    pub fn reported_stages(
        &mut self,
        parent: SpanId,
        request: u64,
        stages: &[(&'static str, Duration)],
    ) {
        if parent.0 == u32::MAX {
            return;
        }
        let mut cursor = self.spans[parent.0 as usize].start_ns;
        for &(name, duration) in stages {
            let end = cursor + duration.as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: Some(parent),
                request,
                start_ns: cursor,
                end_ns: end,
            });
            cursor = end;
        }
    }

    #[cfg(test)]
    fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of a span is its duration minus its children's.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent.0 as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let layer = layers.entry(span.name).or_default();
            layer.spans += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(children);
        }
        layers
    }

    /// One JSON object per span, then one per layer with its self time.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        for (name, layer) in self.layer_times() {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"spans\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
                layer.spans,
                layer.total_ns as f64 / 1e6,
                layer.self_ns as f64 / 1e6
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 7);
        let wait = t.begin("wait", Some(root), 7);
        std::thread::sleep(Duration::from_millis(2));
        t.end(wait);
        t.reported_stages(
            wait,
            7,
            &[
                ("stage.a", Duration::from_micros(300)),
                ("stage.b", Duration::from_micros(500)),
            ],
        );
        t.end(root);
        let layers = t.layer_times();
        assert_eq!(layers["request"].spans, 1);
        assert_eq!(layers["stage.b"].total_ns, 500_000);
        assert_eq!(
            layers["wait"].self_ns,
            layers["wait"].total_ns - 800_000,
            "reported stages count as children"
        );
        assert!(layers["request"].self_ns < layers["request"].total_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x", None, 0);
        off.end(id);
        off.reported_stages(id, 0, &[("y", Duration::from_secs(1))]);
        assert_eq!(off.span_count(), 0);
    }
}
