//! Seeded inputs: data directories built through public library calls,
//! search query pools drawn from the world oracle and the annotated
//! corpus, and distinct generated annotate bodies with their ground
//! truth. The server only ever sees the files and the request bodies.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use webtable_catalog::{generate_world, EntityId, RelationId, World, WorldConfig};
use webtable_core::wire::WireAnnotateRequest;
use webtable_core::Annotator;
use webtable_search::wire::encode_query;
use webtable_search::{EntityQuery, JoinQuery, Query, SearchEngine};
use webtable_server::state::tables_to_wire;
use webtable_server::Manifest;
use webtable_tables::{GroundTruth, NoiseConfig, ReusePolicy, TableGenerator, TruthMask};

/// Result bound used by every ranked query.
const K: usize = 10;
/// Join-variable fan-out of join queries.
const JOIN_MID_K: usize = 10;

/// Seed of the catalog world. The world is the same for every run, so
/// workload seeds vary the corpus, the queries and the annotate bodies
/// without also redrawing the catalog's shape, whose cost differences
/// would otherwise dominate the run-to-run spread.
pub const WORLD_SEED: u64 = 11;

/// The tiny world (`WorldConfig::tiny`, ~500 entities).
pub fn tiny_world() -> Result<World, String> {
    generate_world(&WorldConfig::tiny(WORLD_SEED)).map_err(|e| format!("world: {e}"))
}

/// The scale-1.0 world (~10× the tiny world's entities).
pub fn full_world() -> Result<World, String> {
    generate_world(&WorldConfig { seed: WORLD_SEED, ..WorldConfig::default() })
        .map_err(|e| format!("world: {e}"))
}

/// How the corpus generator renders entity mentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Zipfian relation skew and reused spellings
    /// (`ReusePolicy::web`) — the `webtable-serve prepare --tables`
    /// scale corpus.
    Scale,
    /// Every mention corrupted independently.
    Distinct,
}

/// Writes a one-generation data directory over `world`: catalog, index
/// snapshot, and a corpus of `tables` web-noise tables drawn with `seed`.
pub fn write_data_dir(
    dir: &Path,
    world: &World,
    seed: u64,
    tables: usize,
    corpus: Corpus,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    webtable_catalog::io::save_catalog(&world.catalog, dir.join("catalog.tsv"))
        .map_err(|e| format!("catalog: {e}"))?;
    Annotator::new(Arc::clone(&world.catalog))
        .save_snapshot(dir.join("index.snap"))
        .map_err(|e| format!("snapshot: {e}"))?;
    let generator = TableGenerator::new(world, NoiseConfig::web(), TruthMask::full(), seed);
    let corpus: Vec<_> = match corpus {
        Corpus::Scale => {
            let policy = ReusePolicy::web();
            let mut generator = generator.with_reuse(policy);
            generator.gen_corpus_iter(tables, 8, policy.relation_skew).map(|lt| lt.table).collect()
        }
        Corpus::Distinct => {
            let mut generator = generator;
            generator.gen_corpus(tables, 8).into_iter().map(|lt| lt.table).collect()
        }
    };
    std::fs::write(dir.join("tables.json"), tables_to_wire(&corpus))
        .map_err(|e| format!("corpus: {e}"))?;
    Manifest {
        generation: 1,
        catalog: "catalog.tsv".into(),
        segments: vec!["index.snap".into()],
        tables: "tables.json".into(),
    }
    .save_dir(dir)
    .map_err(|e| format!("manifest: {e}"))
}

/// One `/v1/annotate` body and the ground truth of each of its tables.
#[derive(Debug, Clone)]
pub struct AnnotateBody {
    /// The encoded request.
    pub body: String,
    /// Ground truth per table, in body order.
    pub truth: Vec<GroundTruth>,
}

/// `count` distinct annotate bodies of `tables` tables each with `rows`
/// rows (both inclusive ranges), web noise over `world`.
pub fn annotate_bodies(
    world: &World,
    seed: u64,
    count: usize,
    tables: (usize, usize),
    rows: (usize, usize),
) -> Vec<AnnotateBody> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator =
        TableGenerator::new(world, NoiseConfig::web(), TruthMask::full(), seed ^ 0x05ee_da11);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let n = rng.gen_range(tables.0..=tables.1);
        let labeled: Vec<_> =
            (0..n).map(|_| generator.gen_table(rng.gen_range(rows.0..=rows.1))).collect();
        let mut content = String::new();
        for lt in &labeled {
            content.push_str(&format!(
                "{:?}|{:?}|{:?}\n",
                lt.table.context, lt.table.headers, lt.table.rows
            ));
        }
        if !seen.insert(content) {
            continue; // bodies must be distinct generated tables
        }
        let truth = labeled.iter().map(|lt| lt.truth.clone()).collect();
        let body =
            WireAnnotateRequest::new(labeled.into_iter().map(|lt| lt.table).collect()).encode();
        out.push(AnnotateBody { body, truth });
    }
    out
}

fn sorted_rights(world: &World, b: RelationId) -> Vec<EntityId> {
    let mut rights: Vec<EntityId> = world.oracle.relation(b).by_right.keys().copied().collect();
    rights.sort_unstable();
    rights
}

/// A pool of `per_kind` queries of each of the seven kinds. Entity and
/// relation parameters come from the world oracle; table keywords,
/// population seeds and related-entity picks come from the annotated
/// corpus the server will search.
pub fn search_pool(world: &World, engine: &SearchEngine, seed: u64, per_kind: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let oracle = &world.oracle;
    let relations: Vec<RelationId> =
        oracle.relation_ids().filter(|&b| !oracle.relation(b).tuples.is_empty()).collect();
    let joins: Vec<(RelationId, RelationId)> = relations
        .iter()
        .flat_map(|&r1| relations.iter().map(move |&r2| (r1, r2)))
        .filter(|&(r1, r2)| {
            r1 != r2
                && oracle.is_subtype(oracle.relation(r1).right_type, oracle.relation(r2).left_type)
        })
        .collect();
    let corpus = engine.corpus();
    // Columns holding at least three distinct annotated entities: the
    // population queries' seed sources.
    let mut entity_columns: Vec<Vec<EntityId>> = Vec::new();
    for (t, ann) in corpus.annotations.iter().enumerate() {
        let table = &corpus.tables[t];
        for c in 0..table.num_cols() {
            let mut ents: Vec<EntityId> = (0..table.num_rows())
                .filter_map(|r| ann.cell_entities.get(&(r, c)).copied().flatten())
                .collect();
            ents.sort_unstable();
            ents.dedup();
            if ents.len() >= 3 {
                entity_columns.push(ents);
            }
        }
    }
    let annotated_relations: Vec<RelationId> = relations
        .iter()
        .copied()
        .filter(|&b| !engine.index().pairs_of_relation(b).is_empty())
        .collect();

    let entity_query = |rng: &mut StdRng| {
        let b = *relations.choose(rng).expect("world has relations");
        let rel = oracle.relation(b);
        let e2 = *sorted_rights(world, b).choose(rng).expect("relation has tuples");
        EntityQuery { relation: b, t1: rel.left_type, t2: rel.right_type, e2 }
    };
    let seeds = |rng: &mut StdRng| -> Vec<EntityId> {
        match entity_columns.choose(rng) {
            Some(col) => {
                let mut col = col.clone();
                col.shuffle(rng);
                col.truncate(2);
                col
            }
            None => vec![oracle.relation(relations[0]).tuples[0].0],
        }
    };
    let mut pool = Vec::with_capacity(per_kind * 7);
    for _ in 0..per_kind {
        pool.push(Query::Baseline(entity_query(&mut rng)));
        pool.push(Query::Typed { query: entity_query(&mut rng), use_relations: rng.gen_bool(0.5) });
        if let Some(&(r1, r2)) = joins.choose(&mut rng) {
            let e3 = *sorted_rights(world, r2).choose(&mut rng).expect("relation has tuples");
            pool.push(Query::Join { query: JoinQuery { r1, r2, e3 }, mid_k: JOIN_MID_K });
        }
        let t = &corpus.tables[rng.gen_range(0..corpus.len())];
        let mut keywords = t.context.clone();
        for cell in &t.rows[rng.gen_range(0..t.num_rows())] {
            keywords.push(' ');
            keywords.push_str(cell);
        }
        pool.push(Query::Tables { keywords, k: K });
        pool.push(Query::PopulateRows { seeds: seeds(&mut rng), k: K });
        pool.push(Query::PopulateColumns { seeds: seeds(&mut rng), k: K });
        let (entity, relation) = match annotated_relations.choose(&mut rng) {
            Some(&b) => {
                let pairs = engine.index().pairs_of_relation(b);
                let (t, c_left, _) = pairs[rng.gen_range(0..pairs.len())];
                let ann = &corpus.annotations[t as usize];
                let rows = corpus.tables[t as usize].num_rows();
                let picked = (0..rows)
                    .filter_map(|r| ann.cell_entities.get(&(r, c_left as usize)).copied().flatten())
                    .next();
                (picked.unwrap_or(oracle.relation(b).tuples[0].0), b)
            }
            None => (oracle.relation(relations[0]).tuples[0].0, relations[0]),
        };
        pool.push(Query::Related { entity, relation, k: K });
    }
    pool
}

/// Encoded bodies of a query pool.
pub fn encode_pool(pool: &[Query]) -> Vec<String> {
    pool.iter().map(encode_query).collect()
}

/// A seeded sequence of `n` indices into a pool of `len` items.
pub fn sequence(seed: u64, n: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..len)).collect()
}
