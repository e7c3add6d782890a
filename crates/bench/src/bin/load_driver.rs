//! Closed-loop load driver for a running `webtable-serve`.
//!
//! ```text
//! cargo run --release -p webtable-bench --bin load_driver -- \
//!     --addr 127.0.0.1:8191 --data DIR [--duration-ms N] [--concurrency N] [--out PATH]
//! ```
//!
//! Replays a mixed annotate/search/health workload (the search body is
//! the data directory's `sample-query.json`; when the dir also carries
//! the retrieval/augmentation bodies — `sample-tables-query.json`,
//! `sample-populate-query.json` — those join the mix) and prints a
//! one-line JSON report — throughput, p50/p99, p50 per request path,
//! and status-class counts. The CI scale-smoke job runs it against the
//! 100k-table corpus and gates on `status_5xx == 0`; exit code 1
//! mirrors that gate so local runs fail the same way. CI server-smoke
//! compares its `/v1/search` p50 with the server's own mean.

use std::process::ExitCode;
use std::time::Duration;

use webtable_bench::load::{annotate_smoke_body, run_closed_loop, LoadRequest};

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8191".to_string();
    let mut data: Option<String> = None;
    let mut duration_ms = 10_000u64;
    let mut concurrency = 4usize;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--data" => data = Some(value("--data")),
            "--duration-ms" => {
                duration_ms = value("--duration-ms").parse().expect("bad --duration-ms")
            }
            "--concurrency" => {
                concurrency = value("--concurrency").parse().expect("bad --concurrency")
            }
            "--out" => out = Some(value("--out")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: load_driver --addr A --data DIR [--duration-ms N] \
                     [--concurrency N] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut requests =
        vec![LoadRequest::get("/health"), LoadRequest::post("/v1/annotate", annotate_smoke_body())];
    match &data {
        Some(dir) => {
            let q = std::path::Path::new(dir).join("sample-query.json");
            match std::fs::read_to_string(&q) {
                Ok(body) => requests.push(LoadRequest::post("/v1/search", body)),
                Err(e) => {
                    eprintln!("load_driver: cannot read {}: {e}", q.display());
                    return ExitCode::FAILURE;
                }
            }
            // Retrieval/augmentation bodies are optional: demo dirs have
            // them, scale corpora may not — skip silently when absent.
            for name in ["sample-tables-query.json", "sample-populate-query.json"] {
                if let Ok(body) = std::fs::read_to_string(std::path::Path::new(dir).join(name)) {
                    requests.push(LoadRequest::post("/v1/search", body));
                }
            }
        }
        None => eprintln!("load_driver: no --data DIR, running without the search workload"),
    }

    eprintln!(
        "load_driver: {concurrency} workers x {duration_ms}ms against {addr} \
         ({} request shapes)",
        requests.len()
    );
    let report = run_closed_loop(&addr, &requests, concurrency, Duration::from_millis(duration_ms));
    let json = report.to_json();
    println!("{json}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("load_driver: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.status_5xx > 0 || report.requests == 0 {
        eprintln!(
            "load_driver: FAILED gate: {} 5xx responses, {} completed requests",
            report.status_5xx, report.requests
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
