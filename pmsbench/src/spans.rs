//! Benchmark-side spans: every call into a layer crate is timed from the
//! outside and recorded as a span (name, start, end, parent) in memory.
//! The nesting is workload → phase (set-up, round, probe) → layer call.
//! A traced run writes them as a Chrome trace at exit.

use pms_trace::Json;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    /// The per-layer metric this call is charged to, for layer calls.
    layer: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        self.push(name.into(), None)
    }

    fn push(&mut self, name: String, layer: Option<&'static str>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.seconds(id)
    }

    /// Runs `f` as one call into a layer: a span named `name`, charged
    /// to the per-layer metric `layer`. Returns `f`'s result and the
    /// call's length in seconds.
    pub fn layer<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.push(name.into(), Some(layer));
        let out = f();
        (out, self.close(id))
    }

    /// Length of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// The layer calls directly under `parent`, in call order: the layer
    /// each is charged to and its seconds.
    pub fn layer_calls(&self, parent: usize) -> Vec<(&'static str, f64)> {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .filter_map(|s| Some((s.layer?, (s.end_ns - s.start_ns) as f64 / 1e9)))
            .collect()
    }

    /// The spans in Chrome trace-event format (complete `X` events, times
    /// in microseconds), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(s.layer.unwrap_or("bench"))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([("id", Json::UInt(id as u64)), ("parent", parent)]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Array(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_calls_are_the_direct_children_in_order() {
        let mut spans = Spans::default();
        let root = spans.open("workload");
        let round = spans.open("round 0");
        spans.layer("sim.wormhole_s", "a", || ());
        let inner = spans.open("not a layer call");
        spans.layer("sim.circuit_s", "nested deeper", || ());
        spans.close(inner);
        spans.layer("sim.circuit_s", "c", || ());
        spans.close(round);
        spans.layer("sim.circuit_s", "outside the round", || ());
        spans.close(root);

        let calls = spans.layer_calls(round);
        let layers: Vec<&str> = calls.iter().map(|c| c.0).collect();
        assert_eq!(layers, ["sim.wormhole_s", "sim.circuit_s"]);
        let within: f64 = calls.iter().map(|c| c.1).sum();
        assert!(within <= spans.seconds(round));

        let json = spans.chrome_json().render();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 7);
        assert!(json.contains("\"parent\":1"), "{json}");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut spans = Spans::default();
        let outer = spans.open("outer");
        let _inner = spans.open("inner");
        spans.close(outer);
    }
}
