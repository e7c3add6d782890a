//! Process counters behind `/admin/stats`.
//!
//! Every counter is a relaxed atomic — observability must never contend
//! with the request path. The stats endpoint renders a point-in-time
//! JSON view; cache hit/miss figures are read live from the current
//! generation's shared candidate cache, so consecutive scrapes expose
//! deltas without the server keeping its own copy.

use std::sync::atomic::{AtomicU64, Ordering};

use webtable_core::wire::Json;
use webtable_core::{PhaseTimings, ProbeMode};

/// Request endpoints tracked separately. `Other` covers 404s and admin
/// endpoints not worth their own row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/annotate`.
    Annotate,
    /// `POST /v1/search`.
    Search,
    /// `POST /admin/swap`.
    Swap,
    /// `GET /admin/stats`.
    Stats,
    /// `GET /health`.
    Health,
    /// Everything else.
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 6] = [
        Endpoint::Annotate,
        Endpoint::Search,
        Endpoint::Swap,
        Endpoint::Stats,
        Endpoint::Health,
        Endpoint::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Endpoint::Annotate => "annotate",
            Endpoint::Search => "search",
            Endpoint::Swap => "swap",
            Endpoint::Stats => "stats",
            Endpoint::Health => "health",
            Endpoint::Other => "other",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Stable query-kind labels (the wire `kind` names of
/// [`webtable_search::Query`]), alphabetical — also the key order of the
/// stats document's `query_kinds` object.
pub const QUERY_KINDS: [&str; 7] =
    ["baseline", "join", "populate_columns", "populate_rows", "related", "tables", "typed"];

/// Point-in-time view of the serving generation's index segmentation,
/// rendered under the stats document's `segments` key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentStats {
    /// Number of index segments in the current generation.
    pub count: u64,
    /// Segments actually probed across all queries (fan-out work).
    pub probed: u64,
    /// Segments skipped by the cross-segment WAND upper bound.
    pub skipped: u64,
}

#[derive(Debug, Default)]
struct EndpointRow {
    requests: AtomicU64,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    duration_us: AtomicU64,
}

/// All process counters. One instance per server, shared by reference.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: [EndpointRow; 6],
    /// Successfully decoded search queries by kind, [`QUERY_KINDS`] order.
    query_kinds: [AtomicU64; 7],
    /// Requests rejected at the accept queue (503 before routing).
    pub queue_rejections: AtomicU64,
    /// Annotate requests that hit their deadline (504).
    pub deadlines_exceeded: AtomicU64,
    /// Request handlers that panicked (answered 500 `internal`; the
    /// worker survived and returned to the pool).
    pub panics: AtomicU64,
    /// Swap attempts retried after a transient failure.
    pub swap_retries: AtomicU64,
    /// Swap calls that exhausted their retries and left the server
    /// degraded.
    pub swap_failures: AtomicU64,
    /// Startups that fell back to `MANIFEST.last-good`.
    pub recoveries: AtomicU64,
    /// Completed generation swaps.
    pub swaps_completed: AtomicU64,
    /// The generation currently being served (gauge).
    pub swap_generation: AtomicU64,
    /// Annotate requests by probe mode: auto / exhaustive / wand.
    pub probe_auto: AtomicU64,
    /// Explicit exhaustive-probe requests.
    pub probe_exhaustive: AtomicU64,
    /// Explicit WAND-probe requests.
    pub probe_wand: AtomicU64,
    /// Accumulated per-phase annotate timings (microseconds).
    pub phase_candidates_us: AtomicU64,
    /// Potential-computation phase total.
    pub phase_potentials_us: AtomicU64,
    /// Inference phase total.
    pub phase_inference_us: AtomicU64,
}

impl Metrics {
    /// Records one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, duration_us: u64) {
        let row = &self.rows[endpoint.idx()];
        row.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &row.status_2xx,
            400..=499 => &row.status_4xx,
            _ => &row.status_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        row.duration_us.fetch_add(duration_us, Ordering::Relaxed);
    }

    /// Counts one successfully decoded search query by its wire kind.
    /// Unknown kinds (impossible today: the decoder and [`QUERY_KINDS`]
    /// list the same names) are ignored rather than panicking.
    pub fn record_query_kind(&self, kind: &str) {
        if let Some(i) = QUERY_KINDS.iter().position(|k| *k == kind) {
            self.query_kinds[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One kind's running count (test hook).
    pub fn query_kind_count(&self, kind: &str) -> u64 {
        QUERY_KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| self.query_kinds[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Folds one annotate response's phase timings into the process
    /// totals and counts its probe mode.
    pub fn record_annotate(&self, timings: &PhaseTimings, mode: ProbeMode) {
        self.phase_candidates_us.fetch_add(timings.candidates_us, Ordering::Relaxed);
        self.phase_potentials_us.fetch_add(timings.potentials_us, Ordering::Relaxed);
        self.phase_inference_us.fetch_add(timings.inference_us, Ordering::Relaxed);
        let counter = match mode {
            ProbeMode::Auto => &self.probe_auto,
            ProbeMode::Exhaustive => &self.probe_exhaustive,
            ProbeMode::Wand => &self.probe_wand,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.rows.iter().map(|r| r.requests.load(Ordering::Relaxed)).sum()
    }

    /// Renders the stats document. `cache_hits` / `cache_misses` come
    /// from the current generation's shared candidate cache,
    /// `segments` from its index (count plus cumulative fan-out
    /// probed/skipped counters, the cross-segment pruning gauge);
    /// `uptime_us` from the server's start instant.
    pub fn to_json(
        &self,
        uptime_us: u64,
        cache_hits: u64,
        cache_misses: u64,
        segments: SegmentStats,
    ) -> Json {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let endpoints = Endpoint::ALL
            .iter()
            .map(|&e| {
                let row = &self.rows[e.idx()];
                Json::Obj(vec![
                    ("2xx".into(), Json::u64(ld(&row.status_2xx))),
                    ("4xx".into(), Json::u64(ld(&row.status_4xx))),
                    ("5xx".into(), Json::u64(ld(&row.status_5xx))),
                    ("duration_us".into(), Json::u64(ld(&row.duration_us))),
                    ("name".into(), Json::str(e.name())),
                    ("requests".into(), Json::u64(ld(&row.requests))),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "annotate_phases_us".into(),
                Json::Obj(vec![
                    ("candidates".into(), Json::u64(ld(&self.phase_candidates_us))),
                    ("inference".into(), Json::u64(ld(&self.phase_inference_us))),
                    ("potentials".into(), Json::u64(ld(&self.phase_potentials_us))),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::u64(cache_hits)),
                    ("misses".into(), Json::u64(cache_misses)),
                ]),
            ),
            ("deadlines_exceeded".into(), Json::u64(ld(&self.deadlines_exceeded))),
            ("endpoints".into(), Json::Arr(endpoints)),
            ("panics".into(), Json::u64(ld(&self.panics))),
            (
                "probe_modes".into(),
                Json::Obj(vec![
                    ("auto".into(), Json::u64(ld(&self.probe_auto))),
                    ("exhaustive".into(), Json::u64(ld(&self.probe_exhaustive))),
                    ("wand".into(), Json::u64(ld(&self.probe_wand))),
                ]),
            ),
            (
                "query_kinds".into(),
                Json::Obj(
                    QUERY_KINDS
                        .iter()
                        .zip(&self.query_kinds)
                        .map(|(k, c)| (k.to_string(), Json::u64(ld(c))))
                        .collect(),
                ),
            ),
            ("queue_rejections".into(), Json::u64(ld(&self.queue_rejections))),
            ("recoveries".into(), Json::u64(ld(&self.recoveries))),
            ("requests_total".into(), Json::u64(self.total_requests())),
            (
                "segments".into(),
                Json::Obj(vec![
                    ("count".into(), Json::u64(segments.count)),
                    ("probed".into(), Json::u64(segments.probed)),
                    ("skipped".into(), Json::u64(segments.skipped)),
                ]),
            ),
            ("swap_failures".into(), Json::u64(ld(&self.swap_failures))),
            ("swap_generation".into(), Json::u64(ld(&self.swap_generation))),
            ("swap_retries".into(), Json::u64(ld(&self.swap_retries))),
            ("swaps_completed".into(), Json::u64(ld(&self.swaps_completed))),
            ("uptime_us".into(), Json::u64(uptime_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_endpoint_and_status() {
        let m = Metrics::default();
        m.record(Endpoint::Annotate, 200, 10);
        m.record(Endpoint::Annotate, 400, 20);
        m.record(Endpoint::Search, 504, 30);
        assert_eq!(m.total_requests(), 3);
        let doc = m.to_json(1, 0, 0, SegmentStats::default());
        let rows = doc.get("endpoints").and_then(Json::as_arr).unwrap();
        let annotate =
            rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("annotate")).unwrap();
        assert_eq!(annotate.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(annotate.get("2xx").and_then(Json::as_u64), Some(1));
        assert_eq!(annotate.get("4xx").and_then(Json::as_u64), Some(1));
        assert_eq!(annotate.get("duration_us").and_then(Json::as_u64), Some(30));
        let search =
            rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("search")).unwrap();
        assert_eq!(search.get("5xx").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn stats_json_is_deterministic_and_sorted() {
        let m = Metrics::default();
        m.record(Endpoint::Health, 200, 5);
        let seg = SegmentStats { count: 4, probed: 9, skipped: 3 };
        let a = m.to_json(9, 2, 3, seg).encode();
        let b = m.to_json(9, 2, 3, seg).encode();
        assert_eq!(a, b);
        assert!(a.contains("\"swap_generation\":0"));
        assert!(a.contains("\"hits\":2"));
        assert!(a.contains("\"segments\":{\"count\":4,\"probed\":9,\"skipped\":3}"));
    }

    #[test]
    fn query_kind_counters_render_sorted() {
        let m = Metrics::default();
        m.record_query_kind("tables");
        m.record_query_kind("tables");
        m.record_query_kind("typed");
        m.record_query_kind("nonsense"); // ignored, not a panic
        assert_eq!(m.query_kind_count("tables"), 2);
        assert_eq!(m.query_kind_count("typed"), 1);
        assert_eq!(m.query_kind_count("baseline"), 0);
        let doc = m.to_json(1, 0, 0, SegmentStats::default()).encode();
        assert!(doc.contains(
            "\"query_kinds\":{\"baseline\":0,\"join\":0,\"populate_columns\":0,\
             \"populate_rows\":0,\"related\":0,\"tables\":2,\"typed\":1}"
        ));
        let mut kinds = QUERY_KINDS;
        kinds.sort_unstable();
        assert_eq!(kinds, QUERY_KINDS, "kind labels must stay sorted");
    }

    #[test]
    fn annotate_recording_accumulates_phases() {
        let m = Metrics::default();
        let t = PhaseTimings { candidates_us: 7, potentials_us: 5, inference_us: 3, total_us: 15 };
        m.record_annotate(&t, ProbeMode::Auto);
        m.record_annotate(&t, ProbeMode::Wand);
        assert_eq!(m.phase_candidates_us.load(Ordering::Relaxed), 14);
        assert_eq!(m.probe_auto.load(Ordering::Relaxed), 1);
        assert_eq!(m.probe_wand.load(Ordering::Relaxed), 1);
    }
}
