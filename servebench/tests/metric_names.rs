//! Metric names: `[A-Za-z0-9_.-]+`, at most 64 characters, starting
//! with a letter or digit — checked here and on every name the
//! benchmark definition at the repository root declares.

use webtable_core::wire::Json;
use webtable_servebench::valid_metric_name;

#[test]
fn accepts_the_benchmark_naming_scheme() {
    for name in [
        "setup_s",
        "search_p99_ms",
        "server.handler_us.search",
        "search.answers.populate_rows",
        "a-b",
        "9lives",
    ] {
        assert!(valid_metric_name(name), "{name}");
    }
}

#[test]
fn rejects_everything_else() {
    let long = "x".repeat(65);
    for name in ["", ".hidden", "_x", "-x", "p99 ms", "a/b", "lat,ms", "µs", "a:b", long.as_str()]
    {
        assert!(!valid_metric_name(name), "{name:?}");
    }
    assert!(valid_metric_name(&"x".repeat(64)));
}

#[test]
fn benchmark_definition_names_are_valid_and_unique() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut seen = std::collections::HashSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        let items = doc.get(key).and_then(Json::as_arr).expect(key);
        assert!(!items.is_empty(), "{key} is empty");
        for item in items {
            let name = item.get("name").and_then(Json::as_str).expect("name");
            assert!(valid_metric_name(name), "{key}: bad name {name:?}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
    }
    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    let setup = e2e.iter().find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    assert!(setup.is_some(), "setup_s must be an end-to-end metric");
}
