//! `servebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload against a freshly spawned `webtable-serve` and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). Every metric
//! is also printed above it as a readable line with its unit and sample
//! count. Exits 1 when any answer was wrong or any request failed, and
//! 2 (printing no result) when the run could not be carried out.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use webtable_core::wire::Json;
use webtable_servebench::check::{
    annotate_reference, compare_search, normalize_body, search_reference, Quality, SearchMatch,
    SCORE_REL_TOLERANCE,
};
use webtable_servebench::idle::Spinners;
use webtable_servebench::inputs::{
    annotate_bodies, encode_pool, full_world, search_pool, sequence, tiny_world, write_data_dir,
    AnnotateBody, Corpus,
};
use webtable_servebench::load::{closed_loop, http, open_loop, Outcome, Sample};
use webtable_servebench::server_proc::{server_binary, ServerProc};
use webtable_servebench::stats::{self, Summary};
use webtable_servebench::trace::{layer_self_ns, name_totals_ns, span_json, Recorder};
use webtable_servebench::traced::{replay_load, replay_requests, LoadStages, KINDS};
use webtable_servebench::valid_metric_name;
use webtable_server::state::load_generation;
use webtable_server::{demo, Generation};

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop phases must yield this many samples so a p99 has ten
/// samples beyond it.
const MIN_TAIL_SAMPLES: usize = 1000;
/// A run is invalid when the generator's median lateness exceeds this:
/// the open loop has then degenerated into a closed one.
const MAX_MEDIAN_LATENESS: Duration = Duration::from_millis(10);
/// Requests per endpoint sent back to back before the first timed
/// phase, so first-touch costs (page faults on the mapped index, lazy
/// allocations) do not land in the tail of the first phase. They are
/// checked and counted as attempts, but are not latency samples.
const WARM_UP: usize = 100;
/// End-to-end tail latencies that are printed with the end-to-end
/// metrics but reported, ungated, with the per-layer ones (`--trace 1`).
/// On a shared 2-vCPU VM, host preemption stalls the guest for 5–15 ms
/// a few times a second. That sets the p99 of sub-10 ms requests, and
/// the p99 swung with the host's load (IQR/median 0.5–0.7 over ten
/// seeds) while the p50s stayed within 0.1. No gate of at most 25 % can
/// hold such a figure.
const UNGATED_TAILS: [&str; 2] = ["annotate_p99_ms", "search_p99_ms"];
/// Slice length for the capacity median.
const CAPACITY_SLICE: Duration = Duration::from_millis(500);
/// Search bodies and annotate bodies the traced replay re-runs.
const REPLAY_SEARCH: usize = 700;
const REPLAY_ANNOTATE: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SearchMix,
    AnnotateMix,
    IngestSwap,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "search_mix" => Some(Workload::SearchMix),
            "annotate_mix" => Some(Workload::AnnotateMix),
            "ingest_swap" => Some(Workload::IngestSwap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SearchMix => "search_mix",
            Workload::AnnotateMix => "annotate_mix",
            Workload::IngestSwap => "ingest_swap",
        }
    }
}

/// Scale and rates of one workload.
struct Plan {
    /// Corpus tables in the data directory.
    corpus_tables: usize,
    /// Per-kind size of the search query pool.
    pool_per_kind: usize,
    /// Annotate bodies: tables per body and rows per table (inclusive).
    body_tables: (usize, usize),
    body_rows: (usize, usize),
    /// Open-loop search traffic: rate and share of `--seconds`.
    search: (f64, f64),
    /// Open-loop annotate traffic: rate and share of `--seconds`. Both
    /// endpoints run together, over the same share, at the summed rate.
    annotate: (f64, f64),
    /// Closed-loop capacity phase share of `--seconds`.
    capacity: f64,
    /// Swap rounds (each: grow, then a timed swap). `ingest_swap` runs
    /// them inside its traffic windows, the others after their phases.
    rounds: usize,
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::SearchMix => Plan {
            corpus_tables: 2000,
            pool_per_kind: 150,
            body_tables: (1, 1),
            body_rows: (5, 10),
            search: (180.0, 0.7),
            annotate: (180.0, 0.7),
            capacity: 0.3,
            rounds: 3,
        },
        Workload::AnnotateMix => Plan {
            corpus_tables: 200,
            pool_per_kind: 60,
            body_tables: (1, 3),
            body_rows: (5, 20),
            search: (120.0, 0.85),
            annotate: (45.0, 0.85),
            capacity: 0.15,
            rounds: 7,
        },
        // The traffic share is split into `rounds` windows.
        Workload::IngestSwap => Plan {
            corpus_tables: 2000,
            pool_per_kind: 60,
            body_tables: (1, 1),
            body_rows: (5, 10),
            search: (150.0, 0.85),
            annotate: (150.0, 0.85),
            capacity: 0.15,
            rounds: 3,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("{flag} is required"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One request of a phase: which endpoint, which body.
#[derive(Debug, Clone, Copy)]
enum Req {
    Search(usize),
    Annotate(usize),
}

/// Reference outputs of one generation.
struct Refs {
    search: Vec<String>,
    annotate: Vec<String>,
}

/// Everything a run accumulates.
#[derive(Default)]
struct Tally {
    attempted: u64,
    non_2xx: u64,
    io_errors: u64,
    wrong: u64,
    /// Search answers equal to the reference except for last-bit score
    /// rounding (see `check::compare_search`).
    score_rounding: u64,
    first_errors: Vec<String>,
    /// Open-loop latency from the due time, ms (failures as +inf).
    search_ms: Vec<f64>,
    annotate_ms: Vec<f64>,
    /// Send-to-response time of every exchange, µs, per endpoint.
    search_service_us: Vec<f64>,
    annotate_service_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    capacity_rps: Option<f64>,
    capacity_n: usize,
    setup_s: Vec<f64>,
    swap_s: Vec<f64>,
    quality: Quality,
    graded: HashSet<usize>,
    /// Wrong answers with what was expected, for `mismatches.txt`.
    mismatches: Vec<String>,
    /// One line per open-loop exchange, for `samples.tsv`.
    sample_rows: Vec<String>,
    /// Wire kind of each search pool entry, for `samples.tsv`.
    search_kinds: Vec<&'static str>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        if self.first_errors.len() < 5 {
            self.first_errors.push(msg);
        }
    }

    fn failed(&self) -> u64 {
        self.non_2xx + self.io_errors + self.wrong
    }
}

/// Checks one exchange against the references of every generation that
/// may have served it, and records its latency.
fn record(
    t: &mut Tally,
    s: &Sample,
    req: Req,
    refs: &[&Refs],
    bodies: &[AnnotateBody],
    open: bool,
) {
    t.attempted += 1;
    let ok = match &s.outcome {
        Outcome::IoError(e) => {
            t.io_errors += 1;
            t.fail(format!("{req:?}: I/O error {e}"));
            false
        }
        Outcome::Response(status, body) if !(200..300).contains(status) => {
            t.non_2xx += 1;
            t.fail(format!("{req:?}: HTTP {status} {body}"));
            false
        }
        Outcome::Response(_, body) => {
            let matched = match req {
                Req::Search(i) => {
                    let best = refs
                        .iter()
                        .map(|r| compare_search(body, &r.search[i]))
                        .min_by_key(|m| *m as u8)
                        .unwrap_or(SearchMatch::Differs);
                    if best == SearchMatch::ScoreRounding {
                        t.score_rounding += 1;
                    }
                    best != SearchMatch::Differs
                }
                Req::Annotate(i) => match normalize_body(body) {
                    Ok((norm, resp)) => {
                        let hit = refs.iter().any(|r| r.annotate[i] == norm);
                        if hit && t.graded.insert(i) {
                            if let Err(e) = t.quality.grade(&resp, &bodies[i].truth) {
                                t.fail(e);
                            }
                        }
                        hit
                    }
                    Err(e) => {
                        t.fail(e);
                        false
                    }
                },
            };
            if !matched {
                t.wrong += 1;
                t.fail(format!("{req:?}: answer differs from the in-process reference"));
                let expected = match req {
                    Req::Search(i) => refs.iter().map(|r| r.search[i].as_str()).collect::<Vec<_>>(),
                    Req::Annotate(i) => refs.iter().map(|r| r.annotate[i].as_str()).collect(),
                };
                t.mismatches.push(format!("{req:?}\ngot:      {body}\nexpected: {expected:?}\n"));
            }
            matched
        }
    };
    let service_us = s.service().as_secs_f64() * 1e6;
    let latency_ms = if ok { s.latency().as_secs_f64() * 1e3 } else { f64::INFINITY };
    match req {
        Req::Search(_) => {
            t.search_service_us.push(service_us);
            if open {
                t.search_ms.push(latency_ms);
            }
        }
        Req::Annotate(_) => {
            t.annotate_service_us.push(service_us);
            if open {
                t.annotate_ms.push(latency_ms);
            }
        }
    }
    if open {
        t.lateness_ms.push(s.lateness().as_secs_f64() * 1e3);
        let (endpoint, body) = match req {
            Req::Search(i) => (t.search_kinds.get(i).copied().unwrap_or("search"), i),
            Req::Annotate(i) => ("annotate", i),
        };
        t.sample_rows.push(format!(
            "{endpoint}\t{}\t{body}\t{:.3}\t{:.3}\t{:.3}\t{ok}",
            s.idx,
            latency_ms,
            service_us / 1e3,
            s.lateness().as_secs_f64() * 1e3
        ));
    }
}

fn send(addr: &str, req: Req, search: &[String], annotate: &[AnnotateBody]) -> Outcome {
    match req {
        Req::Search(i) => http(addr, "POST", "/v1/search", &search[i]),
        Req::Annotate(i) => http(addr, "POST", "/v1/annotate", &annotate[i].body),
    }
}

/// Merges search and annotate requests into one seeded order: each
/// step takes the next request of a randomly drawn endpoint, or of the
/// other one once the drawn endpoint has run out.
fn interleave(seed: u64, searches: Vec<Req>, annotates: Vec<Req>) -> Vec<Req> {
    let n = searches.len() + annotates.len();
    let (mut s, mut a) = (searches.into_iter(), annotates.into_iter());
    sequence(seed, n, 2)
        .into_iter()
        .filter_map(|c| {
            if c == 0 {
                s.next().or_else(|| a.next())
            } else {
                a.next().or_else(|| s.next())
            }
        })
        .collect()
}

/// Builds references for `generation`: every search body, and the
/// annotate bodies in `annotate` (others are left empty).
fn references(
    generation: &Generation,
    search: &[String],
    bodies: &[AnnotateBody],
    annotate: impl IntoIterator<Item = usize>,
) -> Result<Refs, String> {
    let search =
        search.iter().map(|b| search_reference(generation, b)).collect::<Result<_, _>>()?;
    let mut ann = vec![String::new(); bodies.len()];
    // Two threads: annotate references dominate the untimed set-up.
    let idx: Vec<usize> = annotate.into_iter().collect();
    let half = idx.len() / 2;
    let (a, b) = idx.split_at(half);
    let compute = |part: &[usize]| -> Result<Vec<(usize, String)>, String> {
        part.iter().map(|&i| Ok((i, annotate_reference(generation, &bodies[i].body)?))).collect()
    };
    let (ra, rb) = std::thread::scope(|s| {
        let h = s.spawn(|| compute(b));
        (compute(a), h.join().expect("reference thread"))
    });
    for (i, r) in ra?.into_iter().chain(rb?) {
        ann[i] = r;
    }
    Ok(Refs { search, annotate: ann })
}

/// Loads the data directory's current generation in-process; in a
/// traced run the load is replayed stage by stage with spans.
fn load_reference(
    dir: &Path,
    rec: Option<&Recorder>,
    stages: &mut Vec<LoadStages>,
) -> Result<Generation, String> {
    match rec {
        Some(rec) => {
            let (s, generation) = replay_load(rec, dir)?;
            stages.push(s);
            Ok(generation)
        }
        None => load_generation(dir, 2).map_err(|e| e.to_string()),
    }
}

fn endpoint_row(stats: &Json, name: &str) -> (f64, f64) {
    let row = stats
        .get("endpoints")
        .and_then(Json::as_arr)
        .and_then(|rows| rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name)));
    let f = |k: &str| row.and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
    (f("requests"), f("duration_us"))
}

fn stat_value(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A metric value with its unit and a note on where it came from.
struct Metric {
    value: f64,
    unit: &'static str,
    note: String,
}

type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
    m.insert(name.to_string(), Metric { value, unit, note: note.into() });
}

fn latency_metrics(m: &mut Metrics, prefix: &str, values: &[f64]) -> Result<(), String> {
    if values.len() < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{prefix}: {} open-loop samples, a p99 needs {MIN_TAIL_SAMPLES}; raise --seconds",
            values.len()
        ));
    }
    let s = Summary::of(values).ok_or("no samples")?;
    let (p99, slices) = stats::sliced_percentile(values, 99.0).ok_or("too few samples for p99")?;
    put(m, &format!("{prefix}_p50_ms"), s.p50, "ms", format!("p50 of n={}", s.n));
    put(
        m,
        &format!("{prefix}_p99_ms"),
        p99,
        "ms",
        format!("median p99 of {slices} time slices, n={} (whole-run p99 {:.4})", s.n, s.tail),
    );
    Ok(())
}

struct Outcomes {
    tally: Tally,
    e2e: Metrics,
    layers: Metrics,
    lateness: (f64, f64),
}

fn run(args: &Args, out: &Path) -> Result<Outcomes, String> {
    let bin = server_binary()?;
    let p = plan(args.workload);
    let seed = args.seed;
    let data = out.join("data");
    let senders = std::thread::available_parallelism().map_or(2, usize::from);
    let rec = args.trace.then(|| Recorder::new(true));
    let mut stages: Vec<LoadStages> = Vec::new();
    let mut t = Tally::default();

    // ---- inputs (untimed) ----
    let world = match args.workload {
        Workload::AnnotateMix => {
            let world = full_world()?;
            write_data_dir(&data, &world, seed, p.corpus_tables, Corpus::Distinct)?;
            world
        }
        _ => {
            let world = tiny_world()?;
            write_data_dir(&data, &world, seed, p.corpus_tables, Corpus::Scale)?;
            world
        }
    };
    let gen1 = load_reference(&data, rec.as_ref(), &mut stages)?;
    let pool = search_pool(&world, &gen1.engine, seed, p.pool_per_kind);
    let search_bodies = encode_pool(&pool);
    t.search_kinds = pool.iter().map(|q| q.kind()).collect();
    let n_search = (p.search.0 * p.search.1 * args.seconds).round() as usize;
    let n_annotate = (p.annotate.0 * p.annotate.1 * args.seconds).round() as usize;
    // Bodies 0..n_annotate are measured; the rest are the warm-up's.
    let bodies =
        annotate_bodies(&world, seed ^ 0xa11, n_annotate + WARM_UP, p.body_tables, p.body_rows);
    let warm_up: Vec<Req> = sequence(seed ^ 0x3a7, WARM_UP, search_bodies.len())
        .into_iter()
        .map(Req::Search)
        .zip((n_annotate..n_annotate + WARM_UP).map(Req::Annotate))
        .flat_map(|(a, b)| [a, b])
        .collect();
    let search_seq = sequence(seed ^ 0x5ea, n_search, search_bodies.len());

    // ---- set-up: start the server several times, keep the last ----
    let log = out.join("server.log");
    let mut server = None;
    for i in 0..SETUPS {
        let (proc, took) = ServerProc::start(&bin, &data, &log)?;
        t.setup_s.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            proc.shutdown()?;
        } else {
            server = Some(proc);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();
    let stats0 = server.stats()?;

    let mut generations: Vec<Refs> = Vec::new();
    let mut reference_gen = gen1;
    let capacity_mix: Vec<Req>;

    match args.workload {
        Workload::SearchMix | Workload::AnnotateMix => {
            let refs = references(&reference_gen, &search_bodies, &bodies, 0..bodies.len())?;
            warm(&mut t, &addr, senders, &warm_up, &refs, &search_bodies, &bodies);
            let searches: Vec<Req> = search_seq.iter().map(|&i| Req::Search(i)).collect();
            let annotates: Vec<Req> = (0..n_annotate).map(Req::Annotate).collect();
            // One mixed open loop at the summed rate.
            let reqs = interleave(seed ^ 0x77, searches.clone(), annotates.clone());
            let samples =
                open_loop(reqs.len(), p.search.0 + p.annotate.0, senders, Instant::now(), |k| {
                    send(&addr, reqs[k], &search_bodies, &bodies)
                });
            for s in &samples {
                record(&mut t, s, reqs[s.idx], &[&refs], &bodies, true);
            }
            capacity_mix = if args.workload == Workload::SearchMix { searches } else { annotates };
            generations.push(refs);
        }
        Workload::IngestSwap => {
            // Rounds: grow on the benchmark side (untimed), build the
            // grown generation's references, then run a window of mixed
            // open-loop traffic with a timed swap inside it. Requests
            // that overlap the swap may be answered by either generation.
            let per_search = n_search / p.rounds;
            let per_annotate = n_annotate / p.rounds;
            let window = |r: usize| (r * per_annotate)..((r + 1) * per_annotate).min(bodies.len());
            let rate = p.search.0 + p.annotate.0;
            let covering = |r: usize| window(r).start..window(r + 1).end.max(window(r).end);
            let warm_ids = n_annotate..n_annotate + WARM_UP;
            let gen1 =
                references(&reference_gen, &search_bodies, &bodies, covering(0).chain(warm_ids))?;
            warm(&mut t, &addr, senders, &warm_up, &gen1, &search_bodies, &bodies);
            generations.push(gen1);
            for round in 0..p.rounds {
                let grown = demo::grow(&data).map_err(|e| e.to_string())?;
                settle(&data)?;
                let next = load_reference(&data, rec.as_ref(), &mut stages)?;
                if next.generation != grown {
                    return Err(format!("grew to {grown} but loaded {}", next.generation));
                }
                generations.push(references(&next, &search_bodies, &bodies, covering(round))?);
                let (old, new) = (&generations[round], &generations[round + 1]);
                let reqs = interleave(
                    seed ^ round as u64,
                    search_seq[round * per_search..(round + 1) * per_search]
                        .iter()
                        .map(|&i| Req::Search(i))
                        .collect(),
                    window(round).map(Req::Annotate).collect(),
                );
                let start = Instant::now();
                let (samples, swap_result, swap_span) = std::thread::scope(|scope| {
                    let traffic = scope.spawn(|| {
                        open_loop(reqs.len(), rate, senders, start, |k| {
                            send(&addr, reqs[k], &search_bodies, &bodies)
                        })
                    });
                    std::thread::sleep(Duration::from_millis(500));
                    let sent = Instant::now();
                    let result = http(&addr, "POST", "/admin/swap", "");
                    let span = (sent, Instant::now());
                    (traffic.join().expect("traffic thread"), result, span)
                });
                record_swap(&mut t, swap_result, swap_span.1 - swap_span.0, grown);
                check_health(&mut t, &addr, grown);
                for s in &samples {
                    let gens: &[&Refs] = if s.done < swap_span.0 {
                        &[old]
                    } else if s.sent > swap_span.1 {
                        &[new]
                    } else {
                        &[old, new]
                    };
                    record(&mut t, s, reqs[s.idx], gens, &bodies, true);
                }
                reference_gen = next;
            }
            // Capacity replays the last window's bodies on the final
            // generation, whose references cover that window.
            let last = p.rounds - 1;
            capacity_mix = search_seq[last * per_search..(last + 1) * per_search]
                .iter()
                .map(|&i| Req::Search(i))
                .zip(window(last).map(Req::Annotate))
                .flat_map(|(a, b)| [a, b])
                .collect();
        }
    }

    // ---- capacity: closed loop with one client per CPU ----
    let refs_now = generations.last().expect("references");
    let (cap, elapsed) =
        closed_loop(senders, Duration::from_secs_f64(p.capacity * args.seconds), |k| {
            send(&addr, capacity_mix[k % capacity_mix.len()], &search_bodies, &bodies)
        });
    let mut ok = 0usize;
    for s in &cap {
        if s.outcome.is_2xx() {
            ok += 1;
        }
        record(&mut t, s, capacity_mix[s.idx % capacity_mix.len()], &[refs_now], &bodies, false);
    }
    t.capacity_rps = capacity_slices(&cap);
    t.capacity_n = cap.len();
    let stats1 = server.stats()?;

    // Peak RSS of serving: set-up and every traffic phase (for
    // ingest_swap that includes its swaps). The trailing swaps of the
    // other workloads briefly hold two generations; their peak depends
    // on allocator timing and is left out.
    let rss_kb = server.peak_rss_kb();

    // ---- swap (search_mix, annotate_mix): grow, then a timed swap ----
    if args.workload != Workload::IngestSwap {
        for _ in 0..p.rounds {
            let grown = demo::grow(&data).map_err(|e| e.to_string())?;
            settle(&data)?;
            let sent = Instant::now();
            let result = http(&addr, "POST", "/admin/swap", "");
            record_swap(&mut t, result, sent.elapsed(), grown);
            check_health(&mut t, &addr, grown);
        }
        if let Some(rec) = &rec {
            // The traced run also replays the load of the final,
            // multi-segment generation the swaps built.
            load_reference(&data, Some(rec), &mut stages)?;
        }
    }
    server.shutdown()?;

    // ---- end-to-end metrics ----
    let mut e2e = Metrics::new();
    put(
        &mut e2e,
        "setup_s",
        stats::median(&t.setup_s).ok_or("no set-up")?,
        "s",
        format!("median of n={}", t.setup_s.len()),
    );
    latency_metrics(&mut e2e, "search", &t.search_ms)?;
    latency_metrics(&mut e2e, "annotate", &t.annotate_ms)?;
    put(
        &mut e2e,
        "capacity_rps",
        t.capacity_rps.unwrap_or(0.0),
        "1/s",
        format!(
            "median of {:.1} s slices; {ok} 2xx of n={} in {:.2} s, {senders} clients",
            CAPACITY_SLICE.as_secs_f64(),
            t.capacity_n,
            elapsed.as_secs_f64()
        ),
    );
    put(
        &mut e2e,
        "swap_s",
        stats::median(&t.swap_s).unwrap_or(f64::INFINITY),
        "s",
        format!("median of n={}", t.swap_s.len()),
    );
    let q = &t.quality;
    put(
        &mut e2e,
        "entity_acc",
        q.entity.fraction(),
        "fraction",
        format!("{} cells", q.entity.total),
    );
    put(&mut e2e, "type_f1", q.types.f1(), "fraction", format!("{} tables", q.tables));
    put(&mut e2e, "relation_f1", q.relations.f1(), "fraction", format!("{} tables", q.tables));
    put(
        &mut e2e,
        "server_rss_mb",
        rss_kb.ok_or("no VmHWM for the server process")? as f64 / 1024.0,
        "MB",
        "VmHWM after the traffic phases",
    );
    let mut lateness = t.lateness_ms.clone();
    lateness.sort_by(f64::total_cmp);
    let lateness = (
        stats::percentile(&lateness, 50.0).unwrap_or(0.0),
        stats::percentile(&lateness, 99.0).unwrap_or(0.0),
    );
    if lateness.0 > MAX_MEDIAN_LATENESS.as_secs_f64() * 1e3 {
        return Err(format!(
            "invalid run: median generator lateness {:.2} ms exceeds {:?}",
            lateness.0, MAX_MEDIAN_LATENESS
        ));
    }

    // ---- per-layer metrics (traced run) ----
    let mut layers = Metrics::new();
    if let Some(rec) = &rec {
        let refs = generations.last().expect("references");
        let search: Vec<(&str, &str)> = search_seq
            .iter()
            .take(REPLAY_SEARCH)
            .map(|&i| (search_bodies[i].as_str(), refs.search[i].as_str()))
            .collect();
        let annotate: Vec<(&str, &str)> = (0..bodies.len())
            .filter(|&i| !refs.annotate[i].is_empty())
            .take(REPLAY_ANNOTATE)
            .map(|i| (bodies[i].body.as_str(), refs.annotate[i].as_str()))
            .collect();
        let replay = replay_requests(rec, &reference_gen, &search, &annotate);
        let counts = &replay.counts;
        let (t_on, t_off) = (replay.traced_s, replay.untraced_s);
        if counts.mismatches > 0 {
            t.wrong += counts.mismatches;
            t.fail(format!("{} replayed outputs differ from the references", counts.mismatches));
        }
        let spans = rec.take();
        layer_metrics(&mut layers, &t, &stats0, &stats1, &stages, counts, &spans);
        put(
            &mut layers,
            "trace.overhead_pct",
            (t_on - t_off) / t_off * 100.0,
            "pct",
            format!("traced {t_on:.3} s vs untraced {t_off:.3} s, same requests interleaved"),
        );
        write_trace(out, &spans, &layers)?;
    }
    Ok(Outcomes { tally: t, e2e, layers, lateness })
}

/// Capacity: 2xx completions per second in each whole slice of
/// [`CAPACITY_SLICE`] of the closed loop, and the median over slices —
/// a short stall of the machine then costs one slice, not the figure.
fn capacity_slices(samples: &[Sample]) -> Option<f64> {
    let start = samples.iter().map(|s| s.sent).min()?;
    let end = samples.iter().map(|s| s.done).max()?;
    let slices = ((end - start).as_secs_f64() / CAPACITY_SLICE.as_secs_f64()) as usize;
    let mut counts = vec![0u32; slices];
    for s in samples.iter().filter(|s| s.outcome.is_2xx()) {
        let i = ((s.done - start).as_secs_f64() / CAPACITY_SLICE.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    let rates: Vec<f64> =
        counts.iter().map(|&c| f64::from(c) / CAPACITY_SLICE.as_secs_f64()).collect();
    stats::median(&rates)
}

/// The untimed warm-up: `reqs` back to back from `senders` clients,
/// every answer checked.
fn warm(
    t: &mut Tally,
    addr: &str,
    senders: usize,
    reqs: &[Req],
    refs: &Refs,
    search: &[String],
    bodies: &[AnnotateBody],
) {
    let samples = open_loop(reqs.len(), f64::INFINITY, senders, Instant::now(), |k| {
        send(addr, reqs[k], search, bodies)
    });
    for s in &samples {
        record(t, s, reqs[s.idx], &[refs], bodies, false);
    }
}

/// Flushes every file of the data directory to disk, so the writeback
/// of what `grow` just wrote does not land inside the timed swap.
fn settle(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::File::open(entry.path())
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("syncing {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Records a swap: it must answer `200` naming the grown generation.
fn record_swap(t: &mut Tally, result: Outcome, took: Duration, grown: u64) {
    t.attempted += 1;
    let expect = format!("{{\"generation\":{grown},\"swapped\":true}}");
    match result {
        Outcome::Response(200, body) if body == expect => t.swap_s.push(took.as_secs_f64()),
        other => count_failure(t, &format!("swap to {grown}"), other),
    }
}

/// After a swap, `/health` must report the grown generation.
fn check_health(t: &mut Tally, addr: &str, generation: u64) {
    t.attempted += 1;
    match http(addr, "GET", "/health", "") {
        Outcome::Response(200, body)
            if Json::parse(&body).ok().and_then(|j| j.get("generation").and_then(Json::as_u64))
                == Some(generation) => {}
        other => count_failure(t, &format!("/health after swap to {generation}"), other),
    }
}

/// Counts a failed control call by its kind: I/O error, non-2xx, or a
/// 2xx with the wrong answer.
fn count_failure(t: &mut Tally, what: &str, outcome: Outcome) {
    match outcome {
        Outcome::IoError(_) => t.io_errors += 1,
        Outcome::Response(status, _) if !(200..300).contains(&status) => t.non_2xx += 1,
        Outcome::Response(..) => t.wrong += 1,
    }
    t.fail(format!("{what}: {outcome:?}"));
}

fn layer_metrics(
    m: &mut Metrics,
    t: &Tally,
    stats0: &Json,
    stats1: &Json,
    stages: &[LoadStages],
    counts: &webtable_servebench::traced::ReplayCounts,
    spans: &[webtable_servebench::trace::Span],
) {
    // Server, read from outside.
    for (endpoint, service) in
        [("search", &t.search_service_us), ("annotate", &t.annotate_service_us)]
    {
        let (r0, d0) = endpoint_row(stats0, endpoint);
        let (r1, d1) = endpoint_row(stats1, endpoint);
        let handler = if r1 > r0 { (d1 - d0) / (r1 - r0) } else { 0.0 };
        let client = stats::mean(service).unwrap_or(0.0);
        put(m, &format!("server.handler_us.{endpoint}"), handler, "us", format!("n={}", r1 - r0));
        put(
            m,
            &format!("server.outside_handler_us.{endpoint}"),
            client - handler,
            "us",
            format!("client mean {client:.1} us over n={}", service.len()),
        );
    }
    for key in ["queue_rejections", "deadlines_exceeded"] {
        let v = stat_value(stats1, key) - stat_value(stats0, key);
        put(m, &format!("server.{key}"), v, "count", "during the traffic phases");
    }

    // Spans of the traced replay.
    let totals = name_totals_ns(spans);
    let mean_us =
        |name: &str| totals.get(name).map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64);
    let n_of = |name: &str| totals.get(name).map_or(0, |&(_, n)| n);
    for (metric, span) in [
        ("wire.query_decode_us", "wire.query_decode"),
        ("wire.answers_encode_us", "wire.answers_encode"),
        ("wire.annotate_decode_us", "wire.annotate_decode"),
        ("wire.annotate_encode_us", "wire.annotate_encode"),
        ("core.candidates_us", "core.candidates"),
        ("core.potentials_us", "core.potentials"),
        ("factorgraph.bp_us", "factorgraph.bp"),
    ] {
        put(m, metric, mean_us(span), "us", format!("mean of n={}", n_of(span)));
    }
    for kind in KINDS {
        let span = format!("search.{kind}");
        put(
            m,
            &format!("search.{kind}_us"),
            mean_us(&span),
            "us",
            format!("mean of n={}", n_of(&span)),
        );
        let (queries, answers) = counts.answers.get(kind).copied().unwrap_or_default();
        put(
            m,
            &format!("search.answers.{kind}"),
            answers as f64 / queries.max(1) as f64,
            "count",
            format!("mean answers over n={queries}"),
        );
    }
    let lookups = counts.cache_hits + counts.cache_misses;
    put(
        m,
        "core.cache_hit_rate",
        counts.cache_hits as f64 / lookups.max(1) as f64,
        "fraction",
        format!("{} hits of {lookups} lookups, 4096-entry cache", counts.cache_hits),
    );
    put(
        m,
        "core.entity_candidates_per_cell",
        counts.entity_candidates as f64 / counts.cells.max(1) as f64,
        "count",
        format!("over {} cells", counts.cells),
    );
    let tables = counts.tables.max(1) as f64;
    put(
        m,
        "factorgraph.vars",
        counts.vars as f64 / tables,
        "count",
        format!("per table, n={}", counts.tables),
    );
    put(
        m,
        "factorgraph.factors",
        counts.factors as f64 / tables,
        "count",
        format!("per table, n={}", counts.tables),
    );
    put(m, "factorgraph.bp_iterations", counts.bp_iterations as f64 / tables, "count", "per table");
    put(m, "factorgraph.converged_frac", counts.converged as f64 / tables, "fraction", "of tables");

    // Load path, replayed stage by stage.
    for stage in [
        "catalog.load_ms",
        "text.snapshot_map_ms",
        "server.corpus_parse_ms",
        "core.annotate_corpus_ms",
        "search.index_build_ms",
        "search.table_index_build_ms",
        "server.load_generation_ms",
    ] {
        let values: Vec<f64> = stages.iter().filter_map(|s| s.ms.get(stage).copied()).collect();
        put(
            m,
            stage,
            stats::median(&values).unwrap_or(0.0),
            "ms",
            format!("median of n={} replayed loads", values.len()),
        );
    }
    let (probed, skipped) = stages.last().map_or((0, 0), |s| s.probes);
    put(m, "text.segments_probed", probed as f64, "count", "last replayed load");
    put(m, "text.segments_skipped", skipped as f64, "count", "last replayed load");

    // Self time per layer over every recorded span.
    for (layer, ns) in layer_self_ns(spans) {
        put(m, &format!("{layer}.self_ms"), ns as f64 / 1e6, "ms", "self time, traced replay");
    }
}

fn write_trace(
    out: &Path,
    spans: &[webtable_servebench::trace::Span],
    layers: &Metrics,
) -> Result<(), String> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&span_json(s));
        text.push('\n');
    }
    std::fs::write(out.join("spans.jsonl"), text).map_err(|e| format!("writing spans: {e}"))?;
    std::fs::write(out.join("layers.json"), metrics_json(layers).encode() + "\n")
        .map_err(|e| format!("writing layers: {e}"))
}

fn metrics_json<'a>(m: impl IntoIterator<Item = (&'a String, &'a Metric)>) -> Json {
    Json::Obj(
        m.into_iter()
            .map(|(name, metric)| {
                // JSON has no infinity: a failed phase reports a huge value
                // (the run is already marked incorrect).
                let value = if metric.value.is_finite() { metric.value } else { 1e12 };
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(metric.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload search_mix|annotate_mix|ingest_swap --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out =
        PathBuf::from(".servebench").join(format!("{}-seed{}", args.workload.name(), args.seed));
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("servebench: creating {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let spinners = Spinners::start(std::thread::available_parallelism().map_or(1, usize::from));
    let result = run(&args, &out);
    drop(spinners);
    if let Ok(o) = &result {
        let header = "kind\tidx\tbody\tlatency_ms\tservice_ms\tlateness_ms\tok\n";
        let _ = std::fs::write(
            out.join("samples.tsv"),
            header.to_string() + &o.tally.sample_rows.join("\n"),
        );
        if !o.tally.mismatches.is_empty() {
            let _ = std::fs::write(out.join("mismatches.txt"), o.tally.mismatches.join("\n"));
        }
    }
    let _ = std::fs::remove_dir_all(out.join("data"));
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let t = &o.tally;
    let tail = |name: &String| UNGATED_TAILS.contains(&name.as_str());
    let metrics: Vec<(&String, &Metric)> = if args.trace {
        o.layers.iter().chain(o.e2e.iter().filter(|(k, _)| tail(k))).collect()
    } else {
        o.e2e.iter().filter(|(k, _)| !tail(k)).collect()
    };
    for (name, _) in &metrics {
        assert!(valid_metric_name(name), "bad metric name {name}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} seconds {} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (name, m) in &o.e2e {
        let gate = if tail(name) { " [ungated]" } else { "" };
        println!("  {name:<24} {:>12.4} {:<8} {}{gate}", m.value, m.unit, m.note);
    }
    let failed_frac = t.failed() as f64 / t.attempted.max(1) as f64;
    println!(
        "  {:<24} {:>12.6} {:<8} {} failed of {} attempted ({} non-2xx, {} I/O errors, {} wrong answers)",
        "failed_frac", failed_frac, "fraction", t.failed(), t.attempted, t.non_2xx, t.io_errors, t.wrong
    );
    println!(
        "  {:<24} {:>12} {:<8} search answers not byte-identical, equal up to score rounding (<= {:e} relative)",
        "score_rounding_diffs", t.score_rounding, "count", SCORE_REL_TOLERANCE
    );
    println!(
        "  {:<24} {:>12.4} {:<8} p50; p99 {:.4} ms over n={} open-loop sends (bound: p50 <= {:?})",
        "generator_lateness_ms",
        o.lateness.0,
        "ms",
        o.lateness.1,
        t.lateness_ms.len(),
        MAX_MEDIAN_LATENESS
    );
    if args.trace {
        println!("per-layer (traced replay; spans in .servebench/)");
        for (name, m) in &o.layers {
            println!("  {name:<36} {:>12.4} {:<8} {}", m.value, m.unit, m.note);
        }
    }
    for e in &t.first_errors {
        println!("  error: {e}");
    }
    let correct = t.failed() == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(t.attempted)),
        ("failed".into(), Json::u64(t.failed())),
        ("metrics".into(), metrics_json(metrics)),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
