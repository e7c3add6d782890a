//! Closed-loop load harness for `webtable-serve`: `concurrency` worker
//! threads each issue one request, wait for the response, and
//! immediately issue the next, until the deadline. Closed-loop means
//! offered load adapts to the server (no coordinated-omission backlog),
//! so the report's throughput is what the server actually sustained
//! and the percentiles are honest request latencies.
//!
//! Shared by the `load_driver` binary (CI scale-smoke drives a running
//! server and gates on `status_5xx == 0`; CI server-smoke gates the
//! per-path search p50 against the server's own timing) and
//! `perf_report` (serving rows in `BENCH_candidates.json`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webtable_server::client;

/// One request shape the harness replays.
#[derive(Debug, Clone)]
pub struct LoadRequest {
    /// HTTP method (`GET` / `POST`).
    pub method: String,
    /// Request path, e.g. `/v1/search`.
    pub path: String,
    /// Request body (empty for GET).
    pub body: String,
}

impl LoadRequest {
    /// A `POST` with a body.
    pub fn post(path: impl Into<String>, body: impl Into<String>) -> LoadRequest {
        LoadRequest { method: "POST".into(), path: path.into(), body: body.into() }
    }

    /// A bodyless `GET`.
    pub fn get(path: impl Into<String>) -> LoadRequest {
        LoadRequest { method: "GET".into(), path: path.into(), body: String::new() }
    }
}

/// What a load window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests that produced an HTTP response (any status).
    pub requests: usize,
    /// 2xx responses.
    pub status_2xx: usize,
    /// 4xx responses.
    pub status_4xx: usize,
    /// 5xx responses — the CI scale-smoke gate requires zero.
    pub status_5xx: usize,
    /// Requests that failed below HTTP (connect/read errors).
    pub io_errors: usize,
    /// Wall-clock of the measurement window.
    pub elapsed: Duration,
    /// Completed responses per second over the window.
    pub throughput_rps: f64,
    /// Mean response latency in µs.
    pub mean_us: f64,
    /// Median response latency in µs.
    pub p50_us: f64,
    /// 99th-percentile response latency in µs.
    pub p99_us: f64,
    /// Median response latency in µs per request path, sorted by path
    /// (shapes that share a path, like several search bodies, pool).
    pub path_p50_us: Vec<(String, f64)>,
}

/// A small annotate body shared by the load driver and `perf_report`:
/// one two-column table the server can annotate against any catalog
/// (unknown mentions are a supported outcome — the request exercises
/// the full pipeline either way).
pub fn annotate_smoke_body() -> String {
    r#"{"tables": [{"id": 1, "context": "films", "headers": ["Title", "Director"],
        "rows": [["Taxi Driver", "Martin Scorsese"], ["Raging Bull", "Martin Scorsese"]]}],
        "workers": 1}"#
        .to_string()
}

/// Index into a sorted latency vector for percentile `p` in `[0, 100]`
/// (nearest-rank).
fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1] as f64
}

/// Runs a closed loop of `concurrency` workers against `addr` for
/// `duration`, cycling through `requests` (worker `w` starts at request
/// `w`, so mixes interleave). Returns the merged report.
///
/// # Panics
///
/// Panics if `requests` is empty or `concurrency` is zero.
pub fn run_closed_loop(
    addr: &str,
    requests: &[LoadRequest],
    concurrency: usize,
    duration: Duration,
) -> LoadReport {
    assert!(!requests.is_empty(), "load harness needs at least one request shape");
    assert!(concurrency > 0, "load harness needs at least one worker");
    let requests: Arc<Vec<LoadRequest>> = Arc::new(requests.to_vec());
    let addr = addr.to_string();
    let started = Instant::now();
    let deadline = started + duration;
    let counters: Arc<[AtomicUsize; 4]> = Arc::new(std::array::from_fn(|_| AtomicUsize::new(0)));
    let (c2xx, c4xx, c5xx, cio) = (0, 1, 2, 3);

    let mut handles = Vec::with_capacity(concurrency);
    for w in 0..concurrency {
        let requests = Arc::clone(&requests);
        let counters = Arc::clone(&counters);
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            // (request shape index, latency in µs) per completed request.
            let mut latencies_us: Vec<(usize, u64)> = Vec::new();
            let mut i = w;
            while Instant::now() < deadline {
                let shape = i % requests.len();
                let r = &requests[shape];
                i += 1;
                let t = Instant::now();
                match client::request(&addr, &r.method, &r.path, &r.body) {
                    Ok((status, _body)) => {
                        latencies_us.push((shape, t.elapsed().as_micros() as u64));
                        let slot = match status {
                            200..=299 => c2xx,
                            400..=499 => c4xx,
                            500..=599 => c5xx,
                            _ => c4xx,
                        };
                        counters[slot].fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        counters[cio].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies_us
        }));
    }
    let mut all_us: Vec<u64> = Vec::new();
    let mut by_path: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for h in handles {
        for (shape, us) in h.join().expect("load worker panicked") {
            all_us.push(us);
            by_path.entry(requests[shape].path.as_str()).or_default().push(us);
        }
    }
    let elapsed = started.elapsed();
    all_us.sort_unstable();
    let path_p50_us = by_path
        .into_iter()
        .map(|(path, mut us)| {
            us.sort_unstable();
            (path.to_string(), percentile(&us, 50.0))
        })
        .collect();
    let requests_done = all_us.len();
    let mean_us = if requests_done == 0 {
        0.0
    } else {
        all_us.iter().sum::<u64>() as f64 / requests_done as f64
    };
    LoadReport {
        requests: requests_done,
        status_2xx: counters[c2xx].load(Ordering::Relaxed),
        status_4xx: counters[c4xx].load(Ordering::Relaxed),
        status_5xx: counters[c5xx].load(Ordering::Relaxed),
        io_errors: counters[cio].load(Ordering::Relaxed),
        elapsed,
        throughput_rps: requests_done as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_us,
        p50_us: percentile(&all_us, 50.0),
        p99_us: percentile(&all_us, 99.0),
        path_p50_us,
    }
}

impl LoadReport {
    /// Renders the report as the stable JSON shape the CI smoke jobs
    /// parse (sorted keys).
    pub fn to_json(&self) -> String {
        let path_p50_us: Vec<String> =
            self.path_p50_us.iter().map(|(path, us)| format!("\"{path}\": {us:.1}")).collect();
        format!(
            "{{\"elapsed_ms\": {}, \"io_errors\": {}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"path_p50_us\": {{{}}}, \"requests\": {}, \"status_2xx\": {}, \
             \"status_4xx\": {}, \"status_5xx\": {}, \"throughput_rps\": {:.1}}}",
            self.elapsed.as_millis(),
            self.io_errors,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            path_p50_us.join(", "),
            self.requests,
            self.status_2xx,
            self.status_4xx,
            self.status_5xx,
            self.throughput_rps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let us: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&us, 50.0), 50.0);
        assert_eq!(percentile(&us, 99.0), 99.0);
        assert_eq!(percentile(&us, 100.0), 100.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn report_json_has_the_gated_fields() {
        let r = LoadReport {
            requests: 10,
            status_2xx: 9,
            status_4xx: 1,
            status_5xx: 0,
            io_errors: 0,
            elapsed: Duration::from_millis(500),
            throughput_rps: 20.0,
            mean_us: 100.0,
            p50_us: 90.0,
            p99_us: 400.0,
            path_p50_us: vec![("/health".into(), 20.0), ("/v1/search".into(), 95.0)],
        };
        let json = r.to_json();
        for key in ["status_5xx", "throughput_rps", "p50_us", "p99_us", "requests"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // The JSON is parseable by the workspace's own parser.
        let doc = webtable_core::wire::Json::parse(&json).unwrap();
        assert_eq!(doc.get("status_5xx").and_then(|v| v.as_u64()), Some(0));
        let search_p50 = doc.get("path_p50_us").and_then(|p| p.get("/v1/search"));
        assert_eq!(search_p50.and_then(|v| v.as_f64()), Some(95.0));
    }

    #[test]
    fn closed_loop_measures_a_live_server() {
        // A trivial single-threaded HTTP responder on an ephemeral port.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            use std::io::{Read, Write};
            loop {
                let Ok((mut s, _)) = listener.accept() else { return };
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                if buf.starts_with(b"DONE") {
                    return;
                }
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
            }
        });
        let report =
            run_closed_loop(&addr, &[LoadRequest::get("/health")], 2, Duration::from_millis(300));
        // Stop the responder.
        use std::io::Write;
        if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
            let _ = s.write_all(b"DONE");
        }
        server.join().unwrap();
        assert!(report.requests > 0);
        assert_eq!(report.status_5xx, 0);
        assert_eq!(report.status_2xx, report.requests);
        assert!(report.p50_us > 0.0 && report.p99_us >= report.p50_us);
        assert!(report.throughput_rps > 0.0);
        assert_eq!(report.path_p50_us.len(), 1);
        assert_eq!(report.path_p50_us[0].0, "/health");
    }
}
