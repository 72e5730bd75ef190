//! In-memory spans recorded around calls into each layer, written out
//! when the traced pass ends.
//!
//! A span is `(name, start, duration, parent)`. Most spans bracket one
//! call. The tick loop interleaves its layers every cycle (poll, send,
//! tick), far too finely to record one span per call, so each chunk of
//! cycles records one *busy-time* span per layer: it starts when the
//! chunk starts and its duration is the time that layer was busy
//! inside the chunk. Either way a span's **self time** is its duration
//! minus its children's durations, and the self times under a root add
//! up to the root's duration.

use metro_harness::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (module path) or grouping name.
    pub name: String,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds the span lasted (or was busy, for busy-time spans).
    pub dur_ns: u64,
}

/// Totals for all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children).
    pub self_ns: u64,
}

/// The span recorder of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one workload's traced pass.
    #[must_use]
    pub fn new(workload: &str) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, parent, start_ns, 0)
    }

    /// Closes an open span at the current time.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
    }

    /// Records a finished span: a busy-time span, or one timed by the
    /// caller.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: span rows index into a name table to keep
    /// a few thousand chunk spans compact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(&s.name);
                    names.len() - 1
                });
                Json::arr([
                    Json::from(name),
                    s.parent.map_or(Json::Null, Json::from),
                    Json::from(s.start_ns),
                    Json::from(s.dur_ns),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            (
                "columns",
                Json::arr(["name", "parent", "start_ns", "dur_ns"].map(Json::from)),
            ),
            ("names", Json::arr(names.into_iter().map(Json::from))),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Loads the spans back out of a trace document.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn spans_from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let names: Vec<&str> = doc
        .get("names")
        .and_then(Json::as_arr)
        .ok_or("trace: missing names")?
        .iter()
        .map(|n| n.as_str().ok_or("trace: name is not a string"))
        .collect::<Result<_, _>>()?;
    let rows = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("trace: missing spans")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let cells = row
                .as_arr()
                .filter(|c| c.len() == 4)
                .ok_or(format!("trace: span {i} is not a 4-column row"))?;
            let num = |c: &Json| {
                c.as_f64()
                    .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                    .ok_or(format!("trace: span {i} holds a non-integer"))
            };
            let name = names
                .get(num(&cells[0])? as usize)
                .ok_or(format!("trace: span {i} names an unknown layer"))?;
            let parent = match &cells[1] {
                Json::Null => None,
                p => {
                    let p = num(p)? as usize;
                    if p >= i {
                        return Err(format!("trace: span {i} has a parent that is not earlier"));
                    }
                    Some(p)
                }
            };
            Ok(Span {
                name: (*name).to_string(),
                parent,
                start_ns: num(&cells[2])? as u64,
                dur_ns: num(&cells[3])? as u64,
            })
        })
        .collect()
}

/// Per-name totals: span count, total duration, and self time
/// (duration minus the part covered by child spans, floored at zero).
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.dur_ns;
        }
    }
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(children_ns) {
        let layer = layers.entry(s.name.clone()).or_default();
        layer.spans += 1;
        layer.total_ns += s.dur_ns;
        layer.self_ns += s.dur_ns.saturating_sub(child_ns);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new("unit");
        let root = t.push("run", None, 0, 1_000);
        t.push("decode", Some(root), 0, 100);
        let chunk = t.push("chunk", Some(root), 100, 800);
        t.push("poll", Some(chunk), 100, 150);
        t.push("tick", Some(chunk), 100, 600);
        let chunk = t.push("chunk", Some(root), 900, 50);
        t.push("tick", Some(chunk), 900, 40);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let layers = layer_times(sample().spans());
        // run: 1000 - (100 + 800 + 50)
        assert_eq!(layers["run"].self_ns, 50);
        // chunks: (800 - 750) + (50 - 40)
        assert_eq!(layers["chunk"].self_ns, 60);
        assert_eq!(layers["chunk"].spans, 2);
        assert_eq!(layers["tick"].total_ns, 640);
        assert_eq!(layers["tick"].self_ns, 640);
        // Self times under the root add up to the root's duration.
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero() {
        let mut t = Tracer::new("unit");
        let root = t.push("run", None, 0, 10);
        t.push("tick", Some(root), 0, 25);
        assert_eq!(layer_times(t.spans())["run"].self_ns, 0);
    }

    #[test]
    fn trace_document_round_trips() {
        let t = sample();
        let text = t.to_json().render();
        let back = spans_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t.spans());
        assert_eq!(layer_times(&back), layer_times(t.spans()));
    }

    #[test]
    fn malformed_trace_documents_are_rejected() {
        let mut doc = sample().to_json();
        doc.set(
            "spans",
            Json::arr([Json::arr([0u64, 5, 0, 1].map(Json::from))]),
        );
        assert!(spans_from_json(&doc).unwrap_err().contains("parent"));
        doc.set("spans", Json::arr([Json::arr([Json::from(9u64)])]));
        assert!(spans_from_json(&doc).unwrap_err().contains("4-column"));
    }

    #[test]
    fn timed_records_a_closed_span() {
        let mut t = Tracer::new("unit");
        let v = t.timed("work", None, || std::hint::black_box(41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "work");
    }
}
