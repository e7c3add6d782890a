//! The traced run: replays a generation load and the workload's request
//! bodies in-process, with a span around each call into a layer's
//! public functions. Each replayed request also runs once with the
//! recorder off; the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use webtable_core::wire::{encode_response, WireAnnotateRequest};
use webtable_core::{
    AnnotateResponse, AnnotateStats, Annotator, CandidateScratch, CellCandidateCache, PhaseTimings,
    TableCandidates, TableModel,
};
use webtable_search::wire::{decode_query, encode_answers};
use webtable_search::{AnnotatedCorpus, Query, SearchEngine, SearchIndex, TableIndex};
use webtable_server::state::{load_manifest, tables_from_wire};
use webtable_server::{Generation, Manifest};
use webtable_text::{LemmaIndex, SectionSource};

use crate::check::normalize;
use crate::trace::Recorder;

/// The server's per-generation cell-cache capacity (`webtable-serve`
/// sizes its shared candidate cache at 4096 entries).
pub const SERVER_CACHE_CAPACITY: usize = 4096;
/// Corpus annotation threads `webtable-serve` uses by default.
pub const SERVER_ANNOTATE_WORKERS: usize = 2;

/// The seven query kinds, in wire-name order.
pub const KINDS: [&str; 7] =
    ["baseline", "join", "populate_columns", "populate_rows", "related", "tables", "typed"];

fn kind_span(q: &Query) -> &'static str {
    match q.kind() {
        "baseline" => "search.baseline",
        "typed" => "search.typed",
        "join" => "search.join",
        "tables" => "search.tables",
        "populate_rows" => "search.populate_rows",
        "populate_columns" => "search.populate_columns",
        "related" => "search.related",
        _ => "search.other",
    }
}

/// Wall time of one replayed generation load, stage by stage (ms), and
/// the index's segment fan-out counters after the corpus annotation.
#[derive(Debug, Clone, Default)]
pub struct LoadStages {
    /// Stage name → milliseconds.
    pub ms: BTreeMap<&'static str, f64>,
    /// `(probed, skipped)` from the segmented index.
    pub probes: (u64, u64),
}

/// Replays `state::load_manifest` stage by stage on `dir` (with spans),
/// then times the whole call once more as a sum check; returns the
/// stage timings and the generation the whole call built.
pub fn replay_load(rec: &Recorder, dir: &Path) -> Result<(LoadStages, Generation), String> {
    let manifest = Manifest::load_dir(dir).map_err(|e| e.to_string())?;
    let mut ms = BTreeMap::new();
    let mut timed = |name: &'static str, t: Instant| {
        ms.insert(name, t.elapsed().as_secs_f64() * 1e3);
    };

    let t = Instant::now();
    let catalog = rec.span("catalog", "catalog.load", 0, || {
        webtable_catalog::io::load_catalog(dir.join(&manifest.catalog))
    });
    let catalog = Arc::new(catalog.map_err(|e| e.to_string())?);
    timed("catalog.load_ms", t);

    let t = Instant::now();
    let segments = rec.span("text", "text.snapshot_map", 0, || {
        manifest
            .segments
            .iter()
            .map(|seg| {
                let src = SectionSource::map_path(dir.join(seg)).map_err(|e| e.to_string())?;
                LemmaIndex::from_snapshot_source(src).map(Arc::new).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    timed("text.snapshot_map_ms", t);

    let annotator = rec
        .span("core", "core.annotator_assemble", 0, || {
            Annotator::from_lemma_segments(Arc::clone(&catalog), segments)
        })
        .map_err(|e| e.to_string())?;

    let text = std::fs::read_to_string(dir.join(&manifest.tables)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let tables = rec
        .span("server", "server.corpus_parse", 0, || tables_from_wire(&text))
        .map_err(|e| e.to_string())?;
    timed("server.corpus_parse_ms", t);

    let t = Instant::now();
    let annotations = rec.span("core", "core.annotate_corpus", 0, || {
        annotator
            .run(&webtable_core::AnnotateRequest::new(&tables).workers(SERVER_ANNOTATE_WORKERS))
            .annotations
    });
    timed("core.annotate_corpus_ms", t);
    let probes = annotator.index.probe_stats();

    let corpus = AnnotatedCorpus::from_parts(tables, annotations);
    let t = Instant::now();
    rec.span("search", "search.index_build", 0, || SearchIndex::build(&corpus, &catalog));
    timed("search.index_build_ms", t);
    let t = Instant::now();
    rec.span("search", "search.table_index_build", 0, || TableIndex::build(&corpus, &catalog));
    timed("search.table_index_build_ms", t);
    drop(corpus);

    // The sum check is timed but not traced: as a span it would charge
    // the whole load a second time to the server layer.
    let t = Instant::now();
    let generation =
        load_manifest(dir, &manifest, SERVER_ANNOTATE_WORKERS).map_err(|e| e.to_string())?;
    timed("server.load_generation_ms", t);
    Ok((LoadStages { ms, probes }, generation))
}

/// Counters gathered while replaying requests.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// Answers returned per query kind: (queries, answers).
    pub answers: BTreeMap<&'static str, (u64, u64)>,
    /// Tables annotated.
    pub tables: u64,
    /// Cells seen.
    pub cells: u64,
    /// Entity candidates summed over cells.
    pub entity_candidates: u64,
    /// Factor-graph variables summed over tables.
    pub vars: u64,
    /// Factors summed over tables.
    pub factors: u64,
    /// BP iterations summed over tables.
    pub bp_iterations: u64,
    /// Tables whose BP converged.
    pub converged: u64,
    /// Cell-cache hits.
    pub cache_hits: u64,
    /// Cell-cache misses.
    pub cache_misses: u64,
    /// Replayed outputs that differed from the reference.
    pub mismatches: u64,
}

/// Per-mode replay state: a fresh server-sized cell cache and scratch.
struct Lane<'g> {
    generation: &'g Generation,
    cache: CellCandidateCache,
    scratch: CandidateScratch,
    seconds: f64,
}

impl<'g> Lane<'g> {
    fn new(generation: &'g Generation) -> Lane<'g> {
        Lane {
            generation,
            cache: generation.annotator.new_cell_cache(SERVER_CACHE_CAPACITY),
            scratch: CandidateScratch::new(),
            seconds: 0.0,
        }
    }

    fn search(
        &mut self,
        rec: &Recorder,
        request: u64,
        body: &str,
        counts: &mut ReplayCounts,
    ) -> String {
        let engine: &SearchEngine = &self.generation.engine;
        let t = Instant::now();
        let out = rec.span("bench", "bench.search_request", request, || {
            let q = rec.span("search", "wire.query_decode", request, || decode_query(body));
            let Ok(q) = q else { return String::new() };
            let answers = rec.span("search", kind_span(&q), request, || engine.search(&q));
            let e = counts.answers.entry(q.kind()).or_default();
            e.0 += 1;
            e.1 += answers.len() as u64;
            rec.span("search", "wire.answers_encode", request, || encode_answers(&answers))
        });
        self.seconds += t.elapsed().as_secs_f64();
        out
    }

    fn annotate(
        &mut self,
        rec: &Recorder,
        request: u64,
        body: &str,
        counts: &mut ReplayCounts,
    ) -> String {
        let annotator = &self.generation.annotator;
        let (cache, scratch) = (&self.cache, &mut self.scratch);
        let t = Instant::now();
        let out = rec.span("bench", "bench.annotate_request", request, || {
            let req = rec.span("core", "wire.annotate_decode", request, || {
                WireAnnotateRequest::decode(body)
            });
            let Ok(req) = req else { return String::new() };
            let mut annotations = Vec::with_capacity(req.tables.len());
            for table in &req.tables {
                let cands = rec.span("core", "core.candidates", request, || {
                    TableCandidates::build_cached(
                        &annotator.catalog,
                        annotator.index.as_ref(),
                        table,
                        &annotator.config,
                        scratch,
                        Some(cache),
                    )
                });
                for row in &cands.cells {
                    for cell in row {
                        counts.cells += 1;
                        counts.entity_candidates += cell.entities.len() as u64;
                    }
                }
                let model = rec.span("core", "core.potentials", request, || {
                    TableModel::build(
                        &annotator.catalog,
                        &annotator.config,
                        &annotator.weights,
                        table,
                        cands,
                    )
                });
                counts.vars += model.graph().num_vars() as u64;
                counts.factors += model.graph().num_factors() as u64;
                let ann = rec.span("factorgraph", "factorgraph.bp", request, || model.decode());
                counts.bp_iterations += ann.bp_iterations as u64;
                counts.converged += u64::from(ann.converged);
                counts.tables += 1;
                annotations.push(ann);
            }
            let n = annotations.len();
            let response = AnnotateResponse {
                annotations,
                timings: vec![PhaseTimings::default(); n],
                stats: AnnotateStats { tables: n, ..AnnotateStats::default() },
            };
            rec.span("core", "wire.annotate_encode", request, || {
                encode_response(&normalize(response))
            })
        });
        self.seconds += t.elapsed().as_secs_f64();
        out
    }
}

/// What a traced replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Counters from the traced pass.
    pub counts: ReplayCounts,
    /// Wall seconds of the traced executions.
    pub traced_s: f64,
    /// Untraced wall seconds.
    pub untraced_s: f64,
}

/// Replays search bodies (`(body, reference)`) and annotate bodies
/// (`(body, normalized reference)`) against `generation` the way the
/// server handles them. Every request runs twice back to back — once
/// under `rec`, once with recording off, alternating which goes first —
/// each mode with its own fresh server-sized cell cache, so both see
/// the same cache history and the difference is the tracing overhead.
/// Request ids start at 1; outputs of both modes are checked.
pub fn replay_requests(
    rec: &Recorder,
    generation: &Generation,
    search: &[(&str, &str)],
    annotate: &[(&str, &str)],
) -> Replay {
    let off = Recorder::new(false);
    let (mut on_lane, mut off_lane) = (Lane::new(generation), Lane::new(generation));
    let mut counts = ReplayCounts::default();
    let mut scratch_counts = ReplayCounts::default();
    let mut request = 0u64;
    let check = |counts: &mut ReplayCounts, got: String, want: &str| {
        if got != want {
            counts.mismatches += 1;
        }
    };
    for &(body, reference) in search {
        request += 1;
        let first_on = request.is_multiple_of(2);
        for on in [first_on, !first_on] {
            let got = if on {
                on_lane.search(rec, request, body, &mut counts)
            } else {
                off_lane.search(&off, request, body, &mut scratch_counts)
            };
            check(&mut counts, got, reference);
        }
    }
    for &(body, reference) in annotate {
        request += 1;
        let first_on = request.is_multiple_of(2);
        for on in [first_on, !first_on] {
            let got = if on {
                on_lane.annotate(rec, request, body, &mut counts)
            } else {
                off_lane.annotate(&off, request, body, &mut scratch_counts)
            };
            check(&mut counts, got, reference);
        }
    }
    counts.cache_hits = on_lane.cache.hits();
    counts.cache_misses = on_lane.cache.misses();
    Replay { counts, traced_s: on_lane.seconds, untraced_s: off_lane.seconds }
}
