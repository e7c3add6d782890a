//! End-to-end: HTTP responses carry exactly what the in-process front
//! door produces — annotations bit-identical to [`Annotator::run`],
//! search bodies byte-identical to [`SearchEngine::search`] run through
//! the wire encoder.

mod common;

use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use webtable_catalog::{generate_world, WorldConfig};
use webtable_core::wire::{annotation_to_json, decode_response, Json, WireAnnotateRequest};
use webtable_search::wire::{encode_answers, encode_query};
use webtable_search::Query;
use webtable_server::client::parse_response;
use webtable_server::server::{ServerConfig, ServerHandle};
use webtable_server::state::{load_generation, tables_from_wire};

use common::{TestServer, SEED};

/// A typed query with answers in the demo corpus, built from the same
/// deterministic world `prepare_data_dir` used.
fn demo_query() -> Query {
    let world = generate_world(&WorldConfig::tiny(SEED)).unwrap();
    let rel = world.oracle.relation(world.relations.directed);
    let (_, director) = rel.tuples[0];
    Query::Typed {
        query: webtable_search::EntityQuery {
            relation: world.relations.directed,
            t1: world.types.movie,
            t2: world.types.director,
            e2: director,
        },
        use_relations: false,
    }
}

#[test]
fn http_annotate_matches_in_process_run_bit_for_bit() {
    let srv = TestServer::start("roundtrip-annotate");
    let corpus = std::fs::read_to_string(srv.dir.join("tables-g1.json")).unwrap();
    let tables = tables_from_wire(&corpus).unwrap();
    let wire_req = WireAnnotateRequest::new(tables);

    let (status, body) = srv.request("POST", "/v1/annotate", &wire_req.encode());
    assert_eq!(status, 200, "{body}");
    let over_http = decode_response(&body).expect("wire response");

    // The same request through the in-process front door (the server
    // holds the same snapshot-restored annotator).
    let generation = load_generation(&srv.dir, 2).unwrap();
    let in_process = generation.annotator.run(&wire_req.as_request());

    assert_eq!(over_http.annotations.len(), in_process.annotations.len());
    for (http, local) in over_http.annotations.iter().zip(&in_process.annotations) {
        // Canonical sorted-key encoding makes this a bit-for-bit
        // comparison of every cell/column/relation label.
        assert_eq!(annotation_to_json(http).encode(), annotation_to_json(local).encode());
    }
    assert_eq!(over_http.stats.tables, in_process.stats.tables);
}

#[test]
fn http_search_body_is_byte_identical_to_in_process_search() {
    let srv = TestServer::start("roundtrip-search");
    let query = demo_query();

    let (status, body) = srv.request("POST", "/v1/search", &encode_query(&query));
    assert_eq!(status, 200, "{body}");

    let generation = load_generation(&srv.dir, 2).unwrap();
    let expected = encode_answers(&generation.engine.search(&query));
    assert!(!body.is_empty());
    assert_eq!(body, expected, "HTTP search body must be byte-identical");
}

/// All four retrieval/augmentation kinds answer over HTTP byte-identical
/// to the in-process engine, with ranked (non-empty) answers for the
/// generator-derived sample bodies.
#[test]
fn http_retrieval_and_augmentation_are_byte_identical() {
    let srv = TestServer::start("roundtrip-retrieval");
    let generation = load_generation(&srv.dir, 2).unwrap();

    // The prepared sample bodies (tables / populate_rows / related) plus
    // a populate_columns variant sharing the populate body's seeds.
    let mut bodies: Vec<String> =
        ["sample-tables-query.json", "sample-populate-query.json", "sample-related-query.json"]
            .iter()
            .map(|name| std::fs::read_to_string(srv.dir.join(name)).unwrap())
            .collect();
    let Query::PopulateRows { seeds, k } = webtable_search::wire::decode_query(&bodies[1]).unwrap()
    else {
        panic!("sample-populate-query.json must be a populate_rows body");
    };
    bodies.push(encode_query(&Query::PopulateColumns { seeds, k }));

    for body in &bodies {
        let query = webtable_search::wire::decode_query(body).unwrap();
        let (status, http_body) = srv.request("POST", "/v1/search", body);
        assert_eq!(status, 200, "{query:?}: {http_body}");
        let expected = encode_answers(&generation.engine.search(&query));
        assert_eq!(http_body, expected, "byte mismatch for {query:?}");
        if !matches!(query, Query::Related { .. }) {
            assert_ne!(http_body, r#"{"answers":[]}"#, "no ranked answers for {query:?}");
        }
    }

    // Per-kind counters observed the traffic.
    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    let kinds = stats.get("query_kinds").unwrap();
    for kind in ["tables", "populate_rows", "populate_columns", "related"] {
        assert_eq!(kinds.get(kind).and_then(Json::as_u64), Some(1), "{kind} counter");
    }
    assert_eq!(kinds.get("typed").and_then(Json::as_u64), Some(0));
}

/// Malformed retrieval/augmentation bodies answer 400 `bad_request` and
/// never count toward the per-kind counters.
#[test]
fn malformed_retrieval_requests_answer_400() {
    let srv = TestServer::start("roundtrip-badreq");
    for body in [
        r#"{"kind":"tables"}"#,                           // missing q
        r#"{"kind":"tables","q":"x","k":0}"#,             // k out of range
        r#"{"kind":"populate_rows"}"#,                    // missing seeds
        r#"{"kind":"populate_rows","seeds":[]}"#,         // empty seeds
        r#"{"kind":"populate_columns","seeds":["x"]}"#,   // non-numeric seed
        r#"{"kind":"related","entity":1}"#,               // missing relation
        r#"{"kind":"related","entity":-1,"relation":1}"#, // negative id
    ] {
        let (status, resp) = srv.request("POST", "/v1/search", body);
        assert_eq!(status, 400, "{body} -> {resp}");
        let err = Json::parse(&resp).unwrap();
        assert_eq!(
            err.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("bad_request"),
            "{body}"
        );
    }
    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    let kinds = stats.get("query_kinds").unwrap();
    for kind in ["tables", "populate_rows", "populate_columns", "related"] {
        assert_eq!(kinds.get(kind).and_then(Json::as_u64), Some(0), "{kind} counted a 400");
    }
}

#[test]
fn health_stats_and_error_mapping() {
    let srv = TestServer::start("roundtrip-admin");
    let (status, body) = srv.request("GET", "/health", "");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("generation").and_then(Json::as_u64), Some(1));

    // Drive one of each endpoint, then read the counters.
    let (s, _) = srv.request("POST", "/v1/search", &encode_query(&demo_query()));
    assert_eq!(s, 200);
    let (s, body) = srv.request("POST", "/v1/search", "{\"kind\":\"nope\"}");
    assert_eq!(s, 400);
    let err = Json::parse(&body).unwrap();
    assert_eq!(err.get("error").unwrap().get("code").and_then(Json::as_str), Some("bad_request"));

    let (s, body) = srv.request("GET", "/nowhere", "");
    assert_eq!(s, 404);
    assert!(body.contains("not_found"));
    let (s, body) = srv.request("GET", "/v1/search", "");
    assert_eq!(s, 405, "{body}");

    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    assert!(stats.get("requests_total").and_then(Json::as_u64).unwrap() >= 5);
    assert_eq!(stats.get("swap_generation").and_then(Json::as_u64), Some(1));
    let rows = stats.get("endpoints").and_then(Json::as_arr).unwrap();
    let search_row =
        rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("search")).unwrap();
    assert_eq!(search_row.get("2xx").and_then(Json::as_u64), Some(1));
    // The 400 bad-query and the 405 method mismatch both land on the
    // search endpoint's 4xx bucket.
    assert_eq!(search_row.get("4xx").and_then(Json::as_u64), Some(2));
}

#[test]
fn shutdown_route_stops_the_server_cleanly() {
    let mut srv = TestServer::start("roundtrip-shutdown");
    let (status, body) = srv.request("POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"));
    // stop() joins every thread; a hang here is a failed drain.
    srv.handle.take().unwrap().stop();
}

/// Runs `finish` (a `stop` or `wait`) off-thread and fails, rather than
/// hangs, if it has not returned within one second.
fn returns_within_a_second(handle: ServerHandle, finish: fn(ServerHandle)) {
    let (tx, rx) = mpsc::channel();
    let finisher = std::thread::spawn(move || {
        finish(handle);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(1)).expect("server threads still running after 1 s");
    finisher.join().unwrap();
}

#[test]
fn stop_on_an_idle_server_returns_promptly() {
    // Bound to the unspecified address: stop's wake-up connect must
    // reach the blocked acceptor through loopback.
    let config = ServerConfig { workers: 4, queue_depth: 64, log_requests: false };
    let mut srv = TestServer::start_bound("roundtrip-idle-stop", "0.0.0.0:0", config);
    returns_within_a_second(srv.handle.take().unwrap(), ServerHandle::stop);
}

#[test]
fn shutdown_route_on_an_unspecified_bind_lets_wait_return() {
    let config = ServerConfig { workers: 4, queue_depth: 64, log_requests: false };
    let mut srv = TestServer::start_bound("roundtrip-any-shutdown", "0.0.0.0:0", config);
    let (status, body) = srv.request_raw("POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "{body}");
    returns_within_a_second(srv.handle.take().unwrap(), ServerHandle::wait);
}

#[test]
fn full_queue_answers_503_while_the_only_worker_is_held() {
    let config = ServerConfig { workers: 1, queue_depth: 1, log_requests: false };
    let srv = TestServer::start_bound("roundtrip-queue-full", "127.0.0.1:0", config);
    // Three peers that connect and stay silent: the worker blocks reading
    // one, the queue holds at most one, so the acceptor turns one or two
    // away inline — and a rejection is the only reply a silent peer gets.
    let peers: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(&srv.addr).unwrap()).collect();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for mut peer in &peers {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut raw = Vec::new();
                let _ = peer.read_to_end(&mut raw);
                let _ = tx.send(raw);
            });
        }
        let first = rx.recv_timeout(Duration::from_secs(10)).expect("no peer was turned away");
        let (status, body) = parse_response(&first).expect("an HTTP response");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"queue_full\""), "{body}");
        let rejections = srv.state().metrics.queue_rejections.load(Ordering::Relaxed);
        assert!((1..=2).contains(&rejections), "{rejections} rejections");
        // Hang up: the worker reads EOF and the pool is free again.
        for peer in &peers {
            let _ = peer.shutdown(Shutdown::Both);
        }
    });
    // The acceptor is still blocked in `accept` and wins this connection
    // from the now idle worker; it must pass it on at once.
    let started = Instant::now();
    let (status, body) = srv.request("GET", "/health", "");
    assert_eq!(status, 200, "{body}");
    assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
}
