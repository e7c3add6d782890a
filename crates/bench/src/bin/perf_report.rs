//! The workspace's one bench harness: every tracked workload, timed with a
//! calibrated wall-clock loop, written as one JSON record per benchmark to
//! `BENCH_candidates.json` at the **workspace root** (resolved from the
//! crate's manifest directory, so CI and a human running from inside a
//! crate directory agree on the output location), so every PR leaves a
//! perf data point behind.
//!
//! Groups, by the paper artifact they support:
//!
//! | group | what it measures |
//! |-------|------------------|
//! | `index_build/*` | parallel `LemmaIndex::build`; heap vs mmap snapshot load vs rebuild |
//! | `candidates/*` | §4.3 lemma-index probes and per-table candidates (Fig. 7's ~80%) |
//! | `annotate/*` | Fig. 7 per-table cost: collective vs simple, LCA, Majority |
//! | `batch/*`, `stream/*` | corpus-scale annotation: candidate cache, workers, streaming |
//! | `bp/*` | §4.4.2 model build and message passing (Fig. 7's <1%) |
//! | `similarity` | §4.2.1 feature kernels |
//! | `catalog/*` | §4.2.3 catalog probes and the full-world index build |
//! | `search/*` | §5 / Fig. 9 engine build and per-query latency |
//! | `wire/*` | JSON encode/decode of the HTTP bodies |
//! | `serve/load` | closed-loop HTTP latency/throughput over an in-process `webtable-serve` |
//!
//! ```text
//! cargo run --release -p webtable-bench --bin perf_report -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` takes 3 samples per benchmark instead of 25 (CI smoke mode).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use webtable_bench::load::{annotate_smoke_body, run_closed_loop, LoadRequest};
use webtable_bench::{batch_annotator, duplicate_heavy_corpus, fixture, tables};
use webtable_catalog::EntityId;
use webtable_core::wire::{decode_response, encode_response, WireAnnotateRequest};
use webtable_core::{
    annotate_simple, lca, majority, AnnotateRequest, AnnotatorConfig, CandidateScratch,
    StreamOptions, TableCandidates, TableModel, Weights,
};
use webtable_factorgraph::{propagate, BpOptions, FactorGraph};
use webtable_search::wire::{decode_answers, decode_query, encode_answers, encode_query};
use webtable_search::{build_workload, EntityQuery, Query, SearchEngine, SearchIndex};
use webtable_tables::{NoiseConfig, Table, TableGenerator, TruthMask};
use webtable_text::{cosine, sim, LemmaIndex, ProbeScratch, SegmentedIndex, SimEngineBuilder};

/// One measured benchmark.
struct Record {
    group: &'static str,
    bench: String,
    mean_us: f64,
    ops_per_sec: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Calibrates `f` so one sample takes ≳2 ms, runs four untimed warmup
/// samples, then measures `samples` samples and returns the mean µs per
/// call. The warmup pins the measurement to steady state: cache-backed
/// workloads (the annotator's cell cache in `candidates/table/*`)
/// otherwise report a mean that depends on the sample *count* — a
/// 3-sample `--quick` run would sit ~40% above a 25-sample full run and
/// the trend gate could never compare the two.
fn measure(samples: usize, mut f: impl FnMut()) -> (f64, u64) {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    for _ in 0..4 * iters {
        f();
    }
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        total += t.elapsed();
    }
    (total.as_secs_f64() * 1e6 / (samples as u64 * iters) as f64, iters)
}

fn record(
    out: &mut Vec<Record>,
    samples: usize,
    group: &'static str,
    bench: &str,
    f: impl FnMut(),
) {
    let (mean_us, iters_per_sample) = measure(samples, f);
    let ops_per_sec = if mean_us > 0.0 { 1e6 / mean_us } else { f64::INFINITY };
    eprintln!("{group}/{bench}: mean {mean_us:.2} µs ({ops_per_sec:.0} ops/s)");
    out.push(Record {
        group,
        bench: bench.to_string(),
        mean_us,
        ops_per_sec,
        samples,
        iters_per_sample,
    });
}

/// `BENCH_candidates.json` at the workspace root, wherever the binary is
/// launched from (previously a cwd-relative path: running from a crate
/// directory silently wrote a second copy there instead of updating the
/// tracked one).
fn default_out_path() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("BENCH_candidates.json")
        .to_string_lossy()
        .into_owned()
}

/// `bp/*`: model build and message passing as the table grows — Figure 7
/// puts inference under 1% of annotation time — plus a pure factor-graph
/// grid in the Figure 10 topology, independent of the annotator.
fn bp(records: &mut Vec<Record>, samples: usize) {
    let f = fixture();
    let catalog = &f.world.catalog;
    let index = &f.annotator.index;
    let weights = Weights::default();
    let cfg = AnnotatorConfig::default();
    for rows in [5usize, 20, 50] {
        let lt = &tables(1, rows, NoiseConfig::wiki(), 3 + rows as u64)[0];
        let cands = TableCandidates::build(catalog, index, &lt.table, &cfg);
        let model = TableModel::build(catalog, &cfg, &weights, &lt.table, cands);
        let opts = BpOptions::default();
        record(records, samples, "bp/propagate_by_rows", &rows.to_string(), || {
            black_box(propagate(black_box(model.graph()), &opts));
        });
    }

    // The type candidate budget is the dominant factor-table dimension.
    let lt = &tables(1, 20, NoiseConfig::wiki(), 41)[0];
    for type_k in [16usize, 64, 128] {
        let cfg = AnnotatorConfig { type_k, ..Default::default() };
        let cands = TableCandidates::build(catalog, index, &lt.table, &cfg);
        record(records, samples, "bp/model_build_type_k", &type_k.to_string(), || {
            black_box(TableModel::build(catalog, &cfg, &weights, &lt.table, cands.clone()));
        });
    }

    for (rows, ents, types) in [(10usize, 8usize, 32usize), (30, 8, 64)] {
        let mut graph = FactorGraph::new();
        let t1 = graph.add_var(types);
        let t2 = graph.add_var(types);
        let b12 = graph.add_var(6);
        for r in 0..rows {
            let e1 = graph.add_var(ents);
            let e2 = graph.add_var(ents);
            graph.add_factor_with(&[t1, e1], |idx| ((idx[0] + idx[1]) % 7) as f64 * 0.1);
            graph.add_factor_with(&[t2, e2], |idx| ((idx[0] * idx[1]) % 5) as f64 * 0.1);
            graph.add_factor_with(&[b12, e1, e2], move |idx| {
                if idx[0] == r % 6 && idx[1] == idx[2] {
                    0.4
                } else {
                    0.0
                }
            });
        }
        graph.add_factor_with(&[b12, t1, t2], |idx| {
            if idx[0] > 0 && idx[1] == idx[2] {
                0.6
            } else {
                0.0
            }
        });
        let opts = BpOptions::default();
        let bench = format!("{rows}x{ents}x{types}");
        record(records, samples, "bp/synthetic_grid", &bench, || {
            black_box(propagate(black_box(&graph), &opts));
        });
    }
}

/// `similarity/*`: the §4.2.1 kernels, run once per (cell, candidate
/// lemma) pair — the per-call constant behind Figure 7's 80% share.
fn similarity(records: &mut Vec<Record>, samples: usize) {
    let mut b = SimEngineBuilder::new();
    for s in [
        "Albert Einstein",
        "Relativity: The Special and the General Theory",
        "Uncle Albert and the Quantum Quest",
        "Russell Stannard",
        "The Time and Space of Uncle Albert",
    ] {
        b.add_document(s);
    }
    let engine = b.freeze();
    let a = engine.doc("Relativity: The Special and the General Theory");
    let q = engine.doc("The Special and General Theory of Relativty"); // typo'd
    record(records, samples, "similarity", "tfidf_cosine", || {
        black_box(cosine(black_box(&a.vec), black_box(&q.vec)));
    });
    record(records, samples, "similarity", "jaccard_tokens", || {
        black_box(sim::jaccard(black_box(&a.token_set), black_box(&q.token_set)));
    });
    record(records, samples, "similarity", "jaro_winkler", || {
        black_box(sim::jaro_winkler(black_box(&a.norm), black_box(&q.norm)));
    });
    record(records, samples, "similarity", "levenshtein", || {
        black_box(sim::levenshtein(black_box(&a.norm), black_box(&q.norm)));
    });
    record(records, samples, "similarity", "full_profile", || {
        black_box(engine.profile(black_box(&a), black_box(&q)));
    });

    let f = fixture();
    let index = &f.annotator.index;
    let e = EntityId(100);
    let q = index.doc(f.world.catalog.entity_name(e));
    record(records, samples, "similarity", "entity_profile_best_lemma", || {
        black_box(index.entity_profile(black_box(&q), e));
    });
}

/// `catalog/*`: the §4.2.3 structural probes behind `f3` and the candidate
/// spaces, and `catalog/index_build/*`: a full-world lemma-index build on
/// every core.
fn catalog_ops(records: &mut Vec<Record>, samples: usize, build_samples: usize) {
    let cat = &fixture().world.catalog;
    let person = cat.type_named("person").expect("person type");
    let movie = cat.type_named("movie").expect("movie type");
    let e = EntityId(cat.num_entities() as u32 / 2);
    let direct = cat.entity(e).direct_types[0];
    record(records, samples, "catalog", "dist", || {
        black_box(cat.dist(black_box(e), black_box(person)));
    });
    record(records, samples, "catalog", "is_subtype", || {
        black_box(cat.is_subtype(black_box(direct), black_box(person)));
    });
    record(records, samples, "catalog", "types_of", || {
        black_box(cat.types_of(black_box(e)).len());
    });
    record(records, samples, "catalog", "extent_overlap_large", || {
        black_box(cat.extent_overlap(black_box(person), black_box(movie)));
    });
    // The first call warms the memo; steady state is what annotation sees.
    cat.missing_link_relatedness(e, person);
    record(records, samples, "catalog", "missing_link_relatedness_memoized", || {
        black_box(cat.missing_link_relatedness(black_box(e), black_box(person)));
    });
    record(records, samples, "catalog", "specificity", || {
        black_box(cat.specificity(black_box(movie)));
    });
    record(records, build_samples, "catalog/index_build", "full_world", || {
        black_box(LemmaIndex::build(black_box(cat)));
    });
}

/// `search/*`: engine construction and per-query latency of the three §5
/// processors (Figure 9), all through `SearchEngine::search`; and
/// `wire/*`: JSON encode/decode of the HTTP body schemas that sit on every
/// `webtable-serve` request.
fn search_and_wire(records: &mut Vec<Record>, samples: usize, build_samples: usize) {
    let f = fixture();
    let mut g = TableGenerator::new(&f.world, NoiseConfig::web(), TruthMask::full(), 31);
    let mut corpus = Vec::new();
    for &relation in &f.world.relations.figure13() {
        for _ in 0..10 {
            corpus.push(g.gen_table_for_relation(relation, 15).table);
        }
    }
    let engine = SearchEngine::from_tables(&f.annotator, corpus, 4);
    record(records, build_samples, "search/index_build", "50_tables", || {
        black_box(SearchIndex::build(black_box(engine.corpus()), &f.world.catalog));
    });
    let workload = build_workload(&f.world, &f.world.relations.figure13(), 5, 77);
    let queries = || workload.per_relation.iter().flat_map(|(_, qs)| qs.iter().copied());
    let batches: [(&str, Vec<Query>); 3] = [
        ("baseline_fig3", queries().map(Query::Baseline).collect()),
        (
            "type_only",
            queries().map(|query| Query::Typed { query, use_relations: false }).collect(),
        ),
        (
            "type_rel_fig4",
            queries().map(|query| Query::Typed { query, use_relations: true }).collect(),
        ),
    ];
    for (label, batch) in &batches {
        record(records, samples, "search/query", label, || {
            for q in batch {
                black_box(engine.search(black_box(q)));
            }
        });
    }

    let mut g = TableGenerator::new(&f.world, NoiseConfig::web(), TruthMask::full(), 93);
    let tables: Vec<Table> =
        (0..10).map(|_| g.gen_table_for_relation(f.world.relations.directed, 15).table).collect();
    let response = f.annotator.run(&AnnotateRequest::new(&tables).workers(2));
    let response_body = encode_response(&response);
    let engine = SearchEngine::from_tables(&f.annotator, tables.clone(), 2);
    let request = WireAnnotateRequest::new(tables);
    let request_body = request.encode();
    record(records, samples, "wire/request", "encode_10_tables", || {
        black_box(black_box(&request).encode());
    });
    record(records, samples, "wire/request", "decode_10_tables", || {
        black_box(
            WireAnnotateRequest::decode(black_box(&request_body)).expect("request body decodes"),
        );
    });
    record(records, samples, "wire/response", "encode_10_tables", || {
        black_box(encode_response(black_box(&response)));
    });
    record(records, samples, "wire/response", "decode_10_tables", || {
        black_box(decode_response(black_box(&response_body)).expect("response body decodes"));
    });

    let (_, e2) = f.world.oracle.relation(f.world.relations.directed).tuples[0];
    let query = Query::Typed {
        query: EntityQuery {
            relation: f.world.relations.directed,
            t1: f.world.types.movie,
            t2: f.world.types.director,
            e2,
        },
        use_relations: true,
    };
    let query_body = encode_query(&query);
    let answers = engine.search(&query);
    let answers_body = encode_answers(&answers);
    record(records, samples, "wire/query_answers", "encode_query", || {
        black_box(encode_query(black_box(&query)));
    });
    record(records, samples, "wire/query_answers", "decode_query", || {
        black_box(decode_query(black_box(&query_body)).expect("query body decodes"));
    });
    record(records, samples, "wire/query_answers", "encode_answers", || {
        black_box(encode_answers(black_box(&answers)));
    });
    record(records, samples, "wire/query_answers", "decode_answers", || {
        black_box(decode_answers(black_box(&answers_body)).expect("answers body decodes"));
    });
}

fn main() {
    let mut quick = false;
    let mut out_path = default_out_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let samples = if quick { 3 } else { 25 };

    eprintln!("building fixture world + index...");
    let f = fixture();
    let index = &f.annotator.index;
    let catalog = &f.world.catalog;
    let cfg = AnnotatorConfig::default();
    let mut records = Vec::new();
    let build_samples = if quick { 3 } else { 10 };

    // --- index_build/snapshot_load: restart-free serving — restoring the
    //     index from an on-disk snapshot vs rebuilding it from the catalog
    //     (bit-identical outputs; see webtable-text/tests/snapshot_roundtrip.rs).
    //     Measured first, on a near-fresh heap: snapshot load happens at
    //     process start in real deployments, and the alloc-dominated load
    //     path is far more sensitive to a bench-fragmented heap than the
    //     compute-dominated rebuild is. ---
    let snap_path =
        std::env::temp_dir().join(format!("webtable-perf-snapshot-{}.idx", std::process::id()));
    index.segments()[0].save(&snap_path).expect("snapshot save");
    record(&mut records, build_samples, "index_build/snapshot_load", "load", || {
        black_box(LemmaIndex::load(&snap_path).expect("snapshot load"));
    });
    record(&mut records, build_samples, "index_build/snapshot_load", "mmap_load", || {
        black_box(LemmaIndex::load_mmap(&snap_path).expect("snapshot mmap load"));
    });
    record(&mut records, build_samples, "index_build/snapshot_load", "rebuild", || {
        black_box(LemmaIndex::build_with_threads(catalog, 1));
    });
    let _ = std::fs::remove_file(&snap_path);

    // --- candidates/index_probe: single-query entity probes ---
    let mut probe = ProbeScratch::new();
    for (label, text) in [
        ("exact_person", "Albert Einstein"),
        ("surname_only", "Einstein"),
        ("long_title", "The Secret of the Old Clock and Other Mysteries"),
        ("numeric", "1984"),
    ] {
        let doc = index.doc(text);
        record(&mut records, samples, "candidates/index_probe", label, || {
            black_box(index.entity_candidates_with(
                black_box(&doc),
                8,
                cfg.rescoring_factor,
                &mut probe,
            ));
        });
    }

    // --- candidates/segmented_probe: the same entity probes fanned out
    //     across index segments with bounded top-k merge. One segment is
    //     pure delegation (the monolithic baseline); four segments price
    //     the cross-segment merge + WAND upper-bound pruning. Results
    //     are bit-identical at every segment count
    //     (webtable-text/tests/segment_equivalence.rs). ---
    for segment_count in [1usize, 4] {
        let segmented = SegmentedIndex::build_split(catalog, segment_count, 1);
        for (label, text) in [("exact_person", "Albert Einstein"), ("surname_only", "Einstein")] {
            let doc = segmented.doc(text);
            let bench = format!("{label}_s{segment_count}");
            record(&mut records, samples, "candidates/segmented_probe", &bench, || {
                black_box(segmented.entity_candidates_with(
                    black_box(&doc),
                    8,
                    cfg.rescoring_factor,
                    &mut probe,
                ));
            });
        }
    }

    // --- candidates/table: full per-table candidate construction ---
    let mut scratch = CandidateScratch::new();
    for rows in [5usize, 20, 50] {
        let lt = &tables(1, rows, NoiseConfig::web(), 7 + rows as u64)[0];
        record(&mut records, samples, "candidates/table", &rows.to_string(), || {
            black_box(TableCandidates::build_with_scratch(
                catalog,
                index,
                black_box(&lt.table),
                &cfg,
                &mut scratch,
            ));
        });
    }

    // --- candidates/entity_k: recall/latency budget sweep ---
    let lt = &tables(1, 20, NoiseConfig::web(), 99)[0];
    for k in [4usize, 8, 16, 32] {
        let cfg = AnnotatorConfig { entity_k: k, ..Default::default() };
        record(&mut records, samples, "candidates/entity_k", &k.to_string(), || {
            black_box(TableCandidates::build_with_scratch(
                catalog,
                index,
                &lt.table,
                &cfg,
                &mut scratch,
            ));
        });
    }

    // --- candidates/rescoring_factor: the cosine-rescoring budget on the
    //     IDF-overlap shortlist, the recall/latency dial ---
    for factor in [1usize, 3, 6, 12] {
        let cfg = AnnotatorConfig { rescoring_factor: factor, ..Default::default() };
        record(&mut records, samples, "candidates/rescoring_factor", &factor.to_string(), || {
            black_box(TableCandidates::build_with_scratch(
                catalog,
                index,
                &lt.table,
                &cfg,
                &mut scratch,
            ));
        });
    }

    // --- annotate/collective: end-to-end, candidates dominate (Fig. 7) ---
    for (label, noise) in [("wiki", NoiseConfig::wiki()), ("web", NoiseConfig::web())] {
        let lt = &tables(1, 25, noise, 17)[0];
        record(&mut records, samples, "annotate/collective", label, || {
            black_box(f.annotator.run(&AnnotateRequest::one(black_box(&lt.table))));
        });
    }

    // --- annotate/algorithm: collective inference vs the Fig. 2 simple
    //     annotator and the LCA / Majority baselines on one table ---
    let lt = &tables(1, 25, NoiseConfig::web(), 18)[0];
    let weights = Weights::default();
    record(&mut records, samples, "annotate/algorithm", "collective", || {
        black_box(f.annotator.run(&AnnotateRequest::one(black_box(&lt.table))));
    });
    record(&mut records, samples, "annotate/algorithm", "simple_fig2", || {
        black_box(annotate_simple(catalog, index, &cfg, &weights, &lt.table));
    });
    record(&mut records, samples, "annotate/algorithm", "lca", || {
        black_box(lca(catalog, index, &cfg, &weights, &lt.table));
    });
    record(&mut records, samples, "annotate/algorithm", "majority", || {
        black_box(majority(catalog, index, &cfg, &weights, &lt.table));
    });

    // --- index_build/threads: parallel LemmaIndex construction (the
    //     output is byte-identical at every worker count) ---
    for threads in [1usize, 2, 4] {
        record(&mut records, build_samples, "index_build/threads", &threads.to_string(), || {
            black_box(LemmaIndex::build_with_threads(catalog, threads));
        });
    }

    // --- batch/annotate: duplicate-heavy corpus, cross-table candidate
    //     cache off vs on (single worker isolates caching; the shared
    //     corpus-scale batch profile from webtable_bench, identical for
    //     both rows) ---
    let batch = batch_annotator();
    let corpus = duplicate_heavy_corpus();
    for (label, capacity) in [("uncached", 0usize), ("cached", 1 << 16)] {
        record(&mut records, build_samples, "batch/annotate", label, || {
            let cache = batch.new_cell_cache(capacity);
            black_box(batch.run(&AnnotateRequest::new(&corpus).shared_cache(&cache)));
        });
    }

    // --- batch/threads: the same corpus across worker counts with the
    //     default cache, the end-to-end batch configuration ---
    for threads in [1usize, 4] {
        record(&mut records, build_samples, "batch/threads", &threads.to_string(), || {
            black_box(batch.run(&AnnotateRequest::new(&corpus).workers(threads)));
        });
    }

    // --- stream/annotate: bounded-memory streaming vs the batch request
    //     path at equal worker counts (same corpus, same shared-profile
    //     annotator; the stream holds at most 8 tables in flight).
    //     Outputs are byte-identical (core/tests/api_equivalence.rs);
    //     this group tracks the throughput price of bounded memory. ---
    for workers in [1usize, 2] {
        record(
            &mut records,
            build_samples,
            "stream/annotate",
            &format!("batch_w{workers}"),
            || {
                black_box(batch.run(&AnnotateRequest::new(&corpus).workers(workers)));
            },
        );
        record(
            &mut records,
            build_samples,
            "stream/annotate",
            &format!("stream_w{workers}"),
            || {
                let stream = batch.annotate_stream(
                    corpus.clone(),
                    StreamOptions::default().workers(workers).buffer_bound(8),
                );
                black_box(stream.count());
            },
        );
    }

    bp(&mut records, samples);
    similarity(&mut records, samples);
    catalog_ops(&mut records, samples, build_samples);
    search_and_wire(&mut records, samples, build_samples);

    // --- serve/load: closed-loop HTTP serving — an in-process
    //     webtable-serve over the demo data dir (segments mmap-loaded at
    //     startup), driven by the shared load harness. The per-endpoint
    //     rows carry request latency (p50/p99 in `mean_us`); the mixed
    //     row reports mean latency with the sustained closed-loop
    //     throughput in `ops_per_sec`. ---
    {
        let dir = std::env::temp_dir().join(format!("webtable-perf-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        webtable_server::demo::prepare_data_dir(&dir, 11).expect("prepare serve dir");
        let initial = webtable_server::state::load_generation(&dir, 2).expect("load generation");
        let state = std::sync::Arc::new(webtable_server::state::AppState::new(
            dir.clone(),
            initial,
            Duration::from_secs(30),
        ));
        let config = webtable_server::server::ServerConfig {
            workers: 4,
            queue_depth: 64,
            log_requests: false,
        };
        let handle =
            webtable_server::server::serve("127.0.0.1:0", state, config).expect("bind perf server");
        let addr = handle.addr().to_string();
        let search_body =
            std::fs::read_to_string(dir.join("sample-query.json")).expect("sample query");
        let tables_body = std::fs::read_to_string(dir.join("sample-tables-query.json"))
            .expect("sample tables query");
        let populate_body = std::fs::read_to_string(dir.join("sample-populate-query.json"))
            .expect("sample populate query");
        let window = Duration::from_millis(if quick { 400 } else { 2_000 });
        let mut push = |bench: &str, mean_us: f64, ops_per_sec: f64, n: usize| {
            eprintln!("serve/load/{bench}: {mean_us:.2} µs ({ops_per_sec:.0} ops/s, n={n})");
            records.push(Record {
                group: "serve/load",
                bench: bench.to_string(),
                mean_us,
                ops_per_sec,
                samples: n,
                iters_per_sample: 1,
            });
        };
        let endpoints = [
            ("search", LoadRequest::post("/v1/search", search_body.clone())),
            ("annotate", LoadRequest::post("/v1/annotate", annotate_smoke_body())),
            ("tables", LoadRequest::post("/v1/search", tables_body)),
            ("populate", LoadRequest::post("/v1/search", populate_body)),
        ];
        for (label, req) in &endpoints {
            let r = run_closed_loop(&addr, std::slice::from_ref(req), 2, window);
            assert_eq!(r.status_5xx, 0, "serve/load {label}: {} 5xx responses", r.status_5xx);
            push(&format!("{label}_p50"), r.p50_us, 1e6 / r.p50_us.max(1e-9), r.requests);
            push(&format!("{label}_p99"), r.p99_us, 1e6 / r.p99_us.max(1e-9), r.requests);
        }
        let mixed: Vec<LoadRequest> =
            endpoints.iter().map(|(_, r)| r.clone()).chain([LoadRequest::get("/health")]).collect();
        let r = run_closed_loop(&addr, &mixed, 4, window);
        assert_eq!(r.status_5xx, 0, "serve/load mixed: {} 5xx responses", r.status_5xx);
        push("mixed", r.mean_us, r.throughput_rps, r.requests);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"webtable-perf-report/v1\",\n");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"group\": \"{}\", \"bench\": \"{}\", \"mean_us\": {:.3}, \
             \"ops_per_sec\": {:.3}, \"samples\": {}, \"iters_per_sample\": {}}}",
            r.group, r.bench, r.mean_us, r.ops_per_sec, r.samples, r.iters_per_sample
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write perf report");
    eprintln!("wrote {out_path} ({} benchmarks)", records.len());
}
