//! Self time over nested spans: a span's duration minus the part of it
//! its children cover.

use webtable_servebench::trace::{layer_self_ns, self_times_ns, Recorder, Span};

fn span(parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { id: 0, parent, request: 1, layer, name: "x", start_ns, end_ns }
}

#[test]
fn self_time_subtracts_children() {
    let rec = Recorder::new(true);
    let root = rec.push(span(None, "bench", 0, 100));
    let a = rec.push(span(Some(root), "core", 10, 40));
    rec.push(span(Some(a), "factorgraph", 20, 30));
    rec.push(span(Some(root), "search", 50, 90));
    let spans = rec.take();
    assert_eq!(self_times_ns(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
    let layers = layer_self_ns(&spans);
    assert_eq!(layers["bench"], 30);
    assert_eq!(layers["core"], 20);
    assert_eq!(layers["factorgraph"], 10);
    assert_eq!(layers["search"], 40);
    let total: u64 = layers.values().sum();
    assert_eq!(total, 100, "self times partition the root span");
}

#[test]
fn overlapping_and_overhanging_children_count_once() {
    let rec = Recorder::new(true);
    let root = rec.push(span(None, "bench", 0, 100));
    rec.push(span(Some(root), "core", 10, 50));
    rec.push(span(Some(root), "core", 30, 70)); // overlaps the first
    rec.push(span(Some(root), "core", 90, 120)); // runs past the parent
    let spans = rec.take();
    assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
}

#[test]
fn recorded_spans_nest_and_carry_the_request() {
    let rec = Recorder::new(true);
    let out = rec.span("bench", "bench.request", 7, || {
        rec.span("core", "core.candidates", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("factorgraph", "factorgraph.bp", 7, || 42)
    });
    assert_eq!(out, 42);
    let spans = rec.take();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    assert!(spans[1].duration_ns() >= 2_000_000);
    let self_ns = self_times_ns(&spans);
    assert_eq!(
        self_ns[0],
        spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
    );

    let off = Recorder::new(false);
    assert_eq!(off.span("core", "core.candidates", 1, || 5), 5);
    assert!(off.take().is_empty(), "a disabled recorder records nothing");
}
