//! Request routing: one pure function from [`Request`] to [`Response`].
//!
//! Endpoints (wire bodies are the `core::wire` / `search::wire`
//! formats, so HTTP responses are byte-identical to in-process
//! [`encode_response`] / [`encode_answers`] output):
//!
//! | method | path | body | response |
//! |--------|------|------|----------|
//! | POST | `/v1/annotate` | `WireAnnotateRequest` | `AnnotateResponse` |
//! | POST | `/v1/search` | `Query` | ranked answers |
//! | GET | `/health` | — | `{"generation":n,"status":"ok"}` |
//! | GET | `/admin/health` | — | readiness: `ok`/`degraded`, failure streak, last-good |
//! | GET | `/admin/stats` | — | process counters |
//! | POST | `/admin/swap` | — | `{"generation":n,"swapped":bool}` |
//! | POST | `/admin/shutdown` | — | `{"status":"shutting down"}` |
//!
//! [`encode_response`]: webtable_core::wire::encode_response
//! [`encode_answers`]: webtable_search::wire::encode_answers

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use webtable_core::wire::{encode_response, Json, WireAnnotateRequest};
use webtable_core::ProbeMode;
use webtable_search::wire::{decode_query, encode_answers};

use crate::error::{error_body, ServeError};
use crate::fault::{self, FaultPoint};
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, SegmentStats};
use crate::state::AppState;

/// Upper bound on a client-requested deadline, so a giant `timeout_ms`
/// cannot pin a worker for minutes.
const MAX_TIMEOUT: Duration = Duration::from_secs(60);

/// Classifies a path for metrics, independent of method validity.
pub fn endpoint_of(path: &str) -> Endpoint {
    match path {
        "/v1/annotate" => Endpoint::Annotate,
        "/v1/search" => Endpoint::Search,
        "/admin/swap" => Endpoint::Swap,
        "/admin/stats" => Endpoint::Stats,
        "/health" | "/admin/health" => Endpoint::Health,
        _ => Endpoint::Other,
    }
}

pub(crate) fn err_response(status: u16, code: &str, message: &str) -> Response {
    Response { status, body: error_body(code, message) }
}

fn serve_err(e: &ServeError) -> Response {
    err_response(e.http_status(), e.code(), &e.to_string())
}

/// A routed request: the response plus, for successfully decoded search
/// requests, the query's wire kind — the serving loop folds the kind
/// into the per-kind stats counter and the request log line.
#[derive(Debug)]
pub struct Routed {
    /// The response to write.
    pub response: Response,
    /// Wire kind of a decoded `/v1/search` query, `None` elsewhere.
    pub query_kind: Option<&'static str>,
}

impl From<Response> for Routed {
    fn from(response: Response) -> Routed {
        Routed { response, query_kind: None }
    }
}

/// Routes one request. `ingress` is the instant the connection was
/// accepted — annotate deadlines are anchored there, so queueing and
/// parse time count against the budget.
pub fn handle(state: &AppState, req: &Request, ingress: Instant) -> Routed {
    // The `handler` fault point: injected latency passes through,
    // injected errors answer 500 `internal`, injected panics unwind to
    // the worker's `catch_unwind` — proving the pool never shrinks.
    if let Err(e) = fault::hit(FaultPoint::Handler) {
        return err_response(500, "internal", &e.to_string()).into();
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/annotate") => annotate(state, &req.body, ingress).into(),
        ("POST", "/v1/search") => search(state, &req.body),
        ("GET", "/health") => health(state).into(),
        ("GET", "/admin/health") => admin_health(state).into(),
        ("GET", "/admin/stats") => stats(state).into(),
        ("POST", "/admin/swap") => swap(state).into(),
        ("POST", "/admin/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            Response::ok("{\"status\":\"shutting down\"}").into()
        }
        (_, "/v1/annotate" | "/v1/search" | "/admin/swap" | "/admin/shutdown") => {
            err_response(405, "method_not_allowed", "use POST").into()
        }
        (_, "/health" | "/admin/health" | "/admin/stats") => {
            err_response(405, "method_not_allowed", "use GET").into()
        }
        _ => err_response(404, "not_found", &format!("no route for {}", req.path)).into(),
    }
}

fn annotate(state: &AppState, body: &str, ingress: Instant) -> Response {
    let wire_req = match WireAnnotateRequest::decode(body) {
        Ok(r) => r,
        Err(e) => return err_response(400, "bad_request", &e.to_string()),
    };
    let budget = wire_req
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(state.default_timeout)
        .min(MAX_TIMEOUT);
    let generation = state.current.load();
    // Worker count never changes output (annotation is thread-count
    // deterministic); clamp the client's ask to the server's budget.
    let workers = wire_req.workers.clamp(1, state.annotate_workers.max(1));
    let request = wire_req
        .as_request()
        .workers(workers)
        .shared_cache(&generation.cache)
        .deadline(ingress + budget);
    match generation.annotator.try_run(&request) {
        Ok(response) => {
            state.metrics.record_annotate(
                &response.stats.timings,
                wire_req.probe_mode.unwrap_or(ProbeMode::Auto),
            );
            Response::ok(encode_response(&response))
        }
        Err(e) => {
            if e.code() == "deadline_exceeded" {
                state.metrics.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            serve_err(&ServeError::from(e))
        }
    }
}

fn search(state: &AppState, body: &str) -> Routed {
    let query = match decode_query(body) {
        Ok(q) => q,
        Err(e) => return err_response(400, "bad_request", &e.to_string()).into(),
    };
    let generation = state.current.load();
    let answers = generation.engine.search(&query);
    Routed { response: Response::ok(encode_answers(&answers)), query_kind: Some(query.kind()) }
}

fn health(state: &AppState) -> Response {
    let generation = state.current.load().generation;
    Response::ok(
        Json::Obj(vec![
            ("generation".into(), Json::u64(generation)),
            ("status".into(), Json::str("ok")),
        ])
        .encode(),
    )
}

/// The readiness contract: `ok` means the manifest's generation is the
/// one being served; `degraded` means swaps are failing and an older
/// generation keeps serving (with the last failure's stable code and
/// the consecutive-failure count). A later successful swap flips it
/// back to `ok`.
fn admin_health(state: &AppState) -> Response {
    let generation = state.current.load().generation;
    let (degraded, failures, last_good, last_error) = state.health.snapshot();
    Response::ok(
        Json::Obj(vec![
            ("consecutive_failures".into(), Json::u64(failures)),
            ("generation".into(), Json::u64(generation)),
            ("last_error".into(), last_error.map(Json::str).unwrap_or(Json::Null)),
            ("last_good_generation".into(), Json::u64(last_good)),
            ("status".into(), Json::str(if degraded { "degraded" } else { "ok" })),
        ])
        .encode(),
    )
}

fn stats(state: &AppState) -> Response {
    let generation = state.current.load();
    let uptime_us = state.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let index = &generation.annotator.index;
    let (probed, skipped) = index.probe_stats();
    let segments = SegmentStats { count: index.segment_count() as u64, probed, skipped };
    let doc = state.metrics.to_json(
        uptime_us,
        generation.cache.hits(),
        generation.cache.misses(),
        segments,
    );
    Response::ok(doc.encode())
}

fn swap(state: &AppState) -> Response {
    match state.swap() {
        Ok((generation, swapped)) => Response::ok(
            Json::Obj(vec![
                ("generation".into(), Json::u64(generation)),
                ("swapped".into(), Json::Bool(swapped)),
            ])
            .encode(),
        ),
        Err(e) => serve_err(&e),
    }
}
