//! An in-memory span recorder for the traced in-process replay.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, layer, start, end, parent span
//! and request id. Nothing is written until the run ends. A layer's
//! self time is its spans' durations minus the part of each interval
//! covered by the span's children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use webtable_core::wire::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (index into the recorder's span list).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for load-path spans).
    pub request: u64,
    /// Layer the span's self time is charged to.
    pub layer: &'static str,
    /// What was called, e.g. `core.candidates`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder. When disabled, [`Recorder::span`]
/// still runs the closure but records nothing — the untraced baseline
/// for the overhead measurement runs the identical code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every span a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Runs `f` inside a span. Nested calls become children.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span { id, parent, request, layer, name, start_ns: 0, end_ns: 0 });
            id
        };
        self.stack.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Adds an already-measured span (used by tests and for spans whose
    /// interval is known from elsewhere).
    pub fn push(&self, mut span: Span) -> usize {
        let mut spans = self.spans.borrow_mut();
        span.id = spans.len();
        spans.push(span);
        spans.len() - 1
    }

    /// Takes every recorded span out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in nanoseconds, sorted by layer name.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Total duration per span name, with the number of spans of that name.
pub fn name_totals_ns(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    out
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> String {
    Json::Obj(vec![
        ("end_ns".into(), Json::u64(s.end_ns)),
        ("id".into(), Json::usize(s.id)),
        ("layer".into(), Json::str(s.layer)),
        ("name".into(), Json::str(s.name)),
        ("parent".into(), s.parent.map(Json::usize).unwrap_or(Json::Null)),
        ("request".into(), Json::u64(s.request)),
        ("start_ns".into(), Json::u64(s.start_ns)),
    ])
    .encode()
}
