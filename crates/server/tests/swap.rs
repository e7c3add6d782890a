//! Zero-downtime swap correctness: while a generation swap runs,
//! every concurrent request succeeds and observes exactly the old or
//! the new generation — never a torn mixture — and requests that began
//! before the swap finish with pre-swap results.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use webtable_catalog::{generate_world, WorldConfig};
use webtable_search::wire::{encode_answers, encode_query};
use webtable_search::Query;
use webtable_server::demo;
use webtable_server::state::load_generation;
use webtable_server::ServeError;

use common::{TestServer, SEED};

fn query_for(director: webtable_catalog::EntityId) -> Query {
    let world = generate_world(&WorldConfig::tiny(SEED)).unwrap();
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
fn concurrent_requests_see_old_or_new_generation_never_torn() {
    let srv = TestServer::start("swap-concurrent");

    // Expected bodies for both generations, computed in-process from
    // the same data dir. Pick a director whose answers observably
    // change when the corpus grows from generation 1 to 2.
    let g1 = load_generation(&srv.dir, 2).unwrap();
    demo::promote(&srv.dir).unwrap();
    let g2 = load_generation(&srv.dir, 2).unwrap();
    let world = generate_world(&WorldConfig::tiny(SEED)).unwrap();
    let rel = world.oracle.relation(world.relations.directed);
    let (query, g1_body, g2_body) = rel
        .tuples
        .iter()
        .find_map(|&(_, director)| {
            let q = query_for(director);
            let a = encode_answers(&g1.engine.search(&q));
            let b = encode_answers(&g2.engine.search(&q));
            (a != b).then_some((q, a, b))
        })
        .expect("some director's answers must differ across generations");
    let query_body = encode_query(&query);

    // A request that "began before the swap": its Arc is loaded now.
    let pre_swap = srv.state().current.load();

    let swapped = Arc::new(AtomicBool::new(false));
    // Each client reports its first response; the swap waits for all.
    let (first_tx, first_rx) = mpsc::channel();
    let results: Vec<(u16, String, bool)> = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..4 {
            let addr = srv.addr.clone();
            let body = query_body.clone();
            let swapped = Arc::clone(&swapped);
            let first_tx = first_tx.clone();
            clients.push(scope.spawn(move || {
                // Keep the barrage running across the whole swap window:
                // until the swap completes, then a few more to prove the
                // new generation is what new requests observe.
                let mut out = Vec::new();
                let mut post_swap = 0;
                while post_swap < 3 && out.len() < 2000 {
                    let after = swapped.load(Ordering::Acquire);
                    let (status, resp) = webtable_server::client::request_with_retry(
                        &addr,
                        "POST",
                        "/v1/search",
                        &body,
                        5,
                    )
                    .expect("search during swap");
                    out.push((status, resp, after));
                    if out.len() == 1 {
                        let _ = first_tx.send(());
                    }
                    if after {
                        post_swap += 1;
                    }
                }
                out
            }));
        }
        // Fire the swap mid-barrage: every client has a response in hand.
        drop(first_tx);
        for _ in 0..4 {
            first_rx.recv().expect("a client failed before its first response");
        }
        let (status, body) = srv.request("POST", "/admin/swap", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":2"), "{body}");
        assert!(body.contains("\"swapped\":true"), "{body}");
        swapped.store(true, Ordering::Release);
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });

    let mut saw = [0usize; 2];
    for (status, body, after_swap) in &results {
        assert_eq!(*status, 200, "zero failed in-flight requests required");
        if body == &g1_body {
            saw[0] += 1;
            assert!(!after_swap, "post-swap requests must not see generation 1");
        } else if body == &g2_body {
            saw[1] += 1;
        } else {
            panic!("torn response: neither generation 1 nor generation 2 body");
        }
    }
    assert_eq!(saw[0] + saw[1], results.len());
    assert!(saw[1] > 0, "requests after the swap must see generation 2");

    // The pre-swap request finishes on the pre-swap generation.
    assert_eq!(pre_swap.generation, 1);
    assert_eq!(encode_answers(&pre_swap.engine.search(&query)), g1_body);

    // Observability: the swap is visible in the counters.
    let (_, stats) = srv.request("GET", "/admin/stats", "");
    assert!(stats.contains("\"swap_generation\":2"), "{stats}");
    assert!(stats.contains("\"swaps_completed\":1"), "{stats}");
}

/// Table retrieval survives a promote (corpus growth) and a `grow`
/// (delta segment) landed by one swap: tables that exist only in the new
/// generation become retrievable, byte-identical to the in-process
/// engine over the new manifest.
#[test]
fn table_retrieval_survives_promote_and_grow() {
    let srv = TestServer::start("swap-tables");

    // A keyword body targeting a table that only generation 2 has:
    // context + first-row cells of the first post-promote table.
    let g2_corpus = std::fs::read_to_string(srv.dir.join("tables-g2.json")).unwrap();
    let g2_tables = webtable_server::state::tables_from_wire(&g2_corpus).unwrap();
    let new_table = &g2_tables[demo::GEN1_TABLES];
    let new_id = new_table.id.0;
    let mut keywords = new_table.context.clone();
    for cell in &new_table.rows[0] {
        keywords.push(' ');
        keywords.push_str(cell);
    }
    let query = Query::Tables { keywords, k: 20 };
    let body = encode_query(&query);
    let hit = format!("{{\"table\":{new_id},");

    // Pre-swap: generation 1 has no such table id.
    let (status, pre) = srv.request("POST", "/v1/search", &body);
    assert_eq!(status, 200, "{pre}");
    assert!(!pre.contains(&hit), "gen 1 must not know table {new_id}: {pre}");

    // Promote (corpus grows) + grow (delta segment), landed by one swap.
    demo::promote(&srv.dir).unwrap();
    let generation = demo::grow(&srv.dir).unwrap();
    let (status, swap_body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200, "{swap_body}");
    assert!(swap_body.contains(&format!("\"generation\":{generation}")), "{swap_body}");

    let (status, post) = srv.request("POST", "/v1/search", &body);
    assert_eq!(status, 200, "{post}");
    assert!(post.contains(&hit), "table {new_id} must be retrievable post-swap: {post}");

    // Byte-identical to the in-process engine over the new manifest.
    let now = load_generation(&srv.dir, 2).unwrap();
    assert_eq!(post, encode_answers(&now.engine.search(&query)));

    // The augmentation sample bodies keep answering after the swap.
    for name in ["sample-populate-query.json", "sample-related-query.json"] {
        let sample = std::fs::read_to_string(srv.dir.join(name)).unwrap();
        let (status, resp) = srv.request("POST", "/v1/search", &sample);
        assert_eq!(status, 200, "{name}: {resp}");
        let q = webtable_search::wire::decode_query(&sample).unwrap();
        assert_eq!(resp, encode_answers(&now.engine.search(&q)), "{name}");
    }
}

#[test]
fn swap_is_idempotent_and_guarded() {
    let srv = TestServer::start("swap-guard");
    // Same manifest generation: no-op swap.
    let (status, body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"swapped\":false"), "{body}");

    // A swap already in flight is rejected with the stable code. Use
    // the raw client: the retrying client would (correctly) keep
    // retrying this transient status.
    srv.state().swapping.store(true, Ordering::Release);
    let (status, body) = srv.request_raw("POST", "/admin/swap", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("swap_in_progress"), "{body}");
    srv.state().swapping.store(false, Ordering::Release);

    // Promote, swap for real, then annotate against the new generation
    // still works (same catalog + snapshot → compatible annotator).
    demo::promote(&srv.dir).unwrap();
    let (status, body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    let (status, _) = srv.request("GET", "/health", "");
    assert_eq!(status, 200);

    // Direct state-level error shape check.
    srv.state().swapping.store(true, Ordering::Release);
    let err = srv.state().swap().unwrap_err();
    assert!(matches!(err, ServeError::SwapInProgress));
    assert_eq!(err.http_status(), 409);
    srv.state().swapping.store(false, Ordering::Release);
}
