//! Segmented-index equivalence: at segment count 1 the [`SegmentedIndex`]
//! must be **bit-identical** to the monolithic [`LemmaIndex`] (same layout,
//! same digest, same probes), and at 2/4/8 segments the cross-segment
//! top-k merge must reproduce the monolithic candidate lists bit for bit —
//! across probe modes, with sequential and parallel fan-out, and after
//! growing by [`SegmentedIndex::append`], which must reject non-append
//! changes with a typed [`ExtendError`].

use std::sync::Arc;

use proptest::prelude::*;
use webtable_catalog::{generate_world, Catalog, CatalogBuilder, EntityId, TypeId, WorldConfig};
use webtable_text::{
    ExtendError, LemmaIndex, ProbeMode, ProbeScratch, SegmentedIndex, DEFAULT_RESCORING_FACTOR,
};

/// Deterministic catalog family: `build_catalog(t, e)` is an exact
/// id-prefix of `build_catalog(t', e')` whenever `t ≤ t'` and `e ≤ e'`.
/// An explicit root type keeps the hierarchy single-rooted, so `finish`
/// never appends a synthetic root that would shift type ids between the
/// base and the grown catalog.
fn build_catalog(n_types: usize, n_entities: usize) -> Catalog {
    edited_catalog(n_types, n_entities, Edit::None)
}

/// A non-append change to one base entity of [`build_catalog`].
#[derive(Clone, Copy, PartialEq)]
enum Edit {
    None,
    /// Entity `j` gets a different name.
    Reword(usize),
    /// Entity `j` gets one more lemma.
    AddLemma(usize),
}

fn edited_catalog(n_types: usize, n_entities: usize, edit: Edit) -> Catalog {
    let mut b = CatalogBuilder::new();
    let root = b.add_type("thing", &[]).unwrap();
    let mut types = vec![root];
    for i in 0..n_types {
        let t = b.add_type(format!("kind{i} category"), &[&format!("k{i}")]).unwrap();
        b.add_subtype(t, root);
        types.push(t);
    }
    for j in 0..n_entities {
        // Shared tokens ("entity", "alpha") across old and new lemmas
        // stress the segment-local → global token remap; the per-entity
        // suffix keeps names unique.
        let t = if types.len() > 1 { types[1 + j % (types.len() - 1)] } else { root };
        let name = if edit == Edit::Reword(j) {
            "reworded entity name".to_string()
        } else {
            format!("entity alpha{j} item")
        };
        let e = b.add_entity(name, &[&format!("e{j}"), "alpha shared"], &[t]).unwrap();
        if j % 3 == 0 {
            b.add_entity_lemma(e, &format!("alpha alpha {j}"));
        }
        if edit == Edit::AddLemma(j) {
            b.add_entity_lemma(e, "a brand new alias");
        }
    }
    b.finish().unwrap()
}

/// Query texts exercising shared tokens, exact names, and OOV words.
fn queries_for(cat: &Catalog) -> Vec<String> {
    let mut qs: Vec<String> = cat
        .entity_ids()
        .take(6)
        .map(|e| cat.entity_name(e).to_string())
        .chain(cat.type_ids().take(3).map(|t| cat.type_name(t).to_string()))
        .collect();
    qs.push("alpha shared".into());
    qs.push("entity item".into());
    qs.push("zzz never-seen token".into());
    qs
}

/// Asserts that `seg` answers every query exactly like `mono`, across all
/// probe modes, for entities and types, including similarity profiles.
fn assert_probe_equivalence(
    mono: &LemmaIndex,
    seg: &SegmentedIndex,
    queries: &[String],
    ctx: &str,
) {
    let mut s1 = ProbeScratch::new();
    let mut s2 = ProbeScratch::new();
    for text in queries {
        let qm = mono.doc(text);
        let qs = seg.doc(text);
        assert_eq!(qm.token_set, qs.token_set, "{ctx}: token set for {text:?}");
        assert_eq!(qm.vec.pairs(), qs.vec.pairs(), "{ctx}: tfidf vec for {text:?}");
        for mode in [ProbeMode::Auto, ProbeMode::Exhaustive, ProbeMode::Wand] {
            for k in [1usize, 4, 8] {
                assert_eq!(
                    mono.entity_candidates_mode(&qm, k, DEFAULT_RESCORING_FACTOR, mode, &mut s1),
                    seg.entity_candidates_mode(&qs, k, DEFAULT_RESCORING_FACTOR, mode, &mut s2),
                    "{ctx}: entity candidates k={k} mode={mode:?} for {text:?}"
                );
                assert_eq!(
                    mono.type_candidates_mode(&qm, k, DEFAULT_RESCORING_FACTOR, mode, &mut s1),
                    seg.type_candidates_mode(&qs, k, DEFAULT_RESCORING_FACTOR, mode, &mut s2),
                    "{ctx}: type candidates k={k} mode={mode:?} for {text:?}"
                );
            }
        }
        for e in 0..mono.num_indexed_entities().min(8) as u32 {
            assert_eq!(
                mono.entity_profile(&qm, EntityId(e)),
                seg.entity_profile(&qs, EntityId(e)),
                "{ctx}: entity profile {e} for {text:?}"
            );
        }
        for t in 0..mono.num_indexed_types().min(6) as u32 {
            assert_eq!(
                mono.type_profile(&qm, TypeId(t)),
                seg.type_profile(&qs, TypeId(t)),
                "{ctx}: type profile {t} for {text:?}"
            );
        }
    }
}

fn assert_segmented_matches_monolithic(cat: &Catalog, queries: &[String]) {
    let mono = LemmaIndex::build(cat);
    for num_segments in [2usize, 4, 8] {
        let seg = SegmentedIndex::build_split(cat, num_segments, 1);
        assert_eq!(seg.num_indexed_entities(), cat.num_entities());
        assert_eq!(seg.num_indexed_types(), cat.num_types());
        seg.verify_catalog(cat).expect("segments cover the catalog");
        assert_probe_equivalence(&mono, &seg, queries, &format!("{num_segments} segments"));
        // Parallel fan-out must agree with sequential (and the monolith).
        let mut par = SegmentedIndex::build_split(cat, num_segments, 1);
        par.set_parallel_probe(true);
        assert_probe_equivalence(&mono, &par, queries, &format!("{num_segments} segments ∥"));
    }
}

#[test]
fn single_segment_is_bit_identical_to_monolithic() {
    for seed in [5u64, 13] {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let mono = LemmaIndex::build(&w.catalog);
        let digest = mono.content_digest();
        let seg = SegmentedIndex::from_single(Arc::new(mono));
        // The single-segment digest is the monolithic digest itself, so
        // cache fingerprints carry over from the monolithic path.
        assert_eq!(seg.content_digest(), digest, "seed={seed}");
        assert_eq!(seg.segment_count(), 1);
        let split = SegmentedIndex::build_split(&w.catalog, 1, 1);
        assert_eq!(split.segment_count(), 1);
        assert_eq!(split.content_digest(), digest, "seed={seed}: build_split(1)");
        // Layouts of the lone segment are the monolithic layouts verbatim.
        let rebuilt = LemmaIndex::build(&w.catalog);
        assert_eq!(
            format!("{:?}", split.segments()[0].layout()),
            format!("{:?}", rebuilt.layout()),
            "seed={seed}: layout"
        );
        let queries = queries_for(&w.catalog);
        assert_probe_equivalence(&rebuilt, &seg, &queries, &format!("seed {seed} single"));
    }
}

#[test]
fn multi_segment_merge_matches_monolithic_on_generated_worlds() {
    for seed in [5u64, 13] {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let queries = queries_for(&w.catalog);
        assert_segmented_matches_monolithic(&w.catalog, &queries);
    }
}

#[test]
fn append_matches_monolithic_rebuild() {
    let base_cat = build_catalog(3, 24);
    let grown_cat = build_catalog(5, 40);
    let base = SegmentedIndex::build_split(&base_cat, 2, 1);
    let base_ptrs: Vec<*const LemmaIndex> = base.segments().iter().map(Arc::as_ptr).collect();
    let grown = base.append(&grown_cat, 1).expect("append-only growth");
    // The delta is one new segment; every base segment is shared untouched.
    assert_eq!(grown.segment_count(), 3);
    for (old, new) in base_ptrs.iter().zip(grown.segments()) {
        assert_eq!(*old, Arc::as_ptr(new), "base segments must be reused, not rebuilt");
    }
    let mono = LemmaIndex::build(&grown_cat);
    let queries = queries_for(&grown_cat);
    assert_probe_equivalence(&mono, &grown, &queries, "append 2+1 segments");
    // Appending nothing keeps coverage (and stays equivalent).
    let same = grown.append(&grown_cat, 1).expect("no-op append");
    assert_eq!(same.segment_count(), 3);
    assert_probe_equivalence(&mono, &same, &queries, "no-op append");
}

#[test]
fn chained_appends_match_monolithic_rebuild() {
    let c1 = build_catalog(2, 6);
    let c2 = build_catalog(3, 14);
    let c3 = build_catalog(5, 30);
    let chained = SegmentedIndex::from_single(Arc::new(LemmaIndex::build(&c1)))
        .append(&c2, 1)
        .expect("first growth")
        .append(&c3, 2)
        .expect("second growth");
    assert_eq!(chained.segment_count(), 3);
    chained.verify_catalog(&c3).expect("chained segments cover the grown catalog");
    assert_probe_equivalence(&LemmaIndex::build(&c3), &chained, &queries_for(&c3), "chained");
}

#[test]
fn append_rejects_non_append_changes() {
    let base_cat = build_catalog(3, 24);
    let base = SegmentedIndex::build_split(&base_cat, 2, 1);
    let rejected = |grown: &Catalog| match base.append(grown, 1) {
        Err(e) => e,
        Ok(_) => panic!("a non-append change must be rejected"),
    };
    assert_eq!(
        rejected(&build_catalog(3, 10)),
        ExtendError::BaseShrunk { what: "entities", base: 24, grown: 10 }
    );
    // The explicit root type counts: 3 kinds + root vs 2 kinds + root.
    assert_eq!(
        rejected(&build_catalog(2, 24)),
        ExtendError::BaseShrunk { what: "types", base: 4, grown: 3 }
    );
    // Same counts but a reworded base lemma: rejected, not merged.
    assert!(matches!(
        rejected(&edited_catalog(3, 24, Edit::Reword(7))),
        ExtendError::BaseChanged { what: "entity", owner: 7, .. }
    ));
    // A base entity that gained a lemma is a changed owner, not growth.
    assert!(matches!(
        rejected(&edited_catalog(3, 30, Edit::AddLemma(2))),
        ExtendError::BaseChanged { what: "entity", owner: 2, .. }
    ));
    // Failed appends leave the base index as it was.
    assert_eq!(
        base.content_digest(),
        SegmentedIndex::build_split(&base_cat, 2, 1).content_digest()
    );
    base.verify_catalog(&base_cat).expect("base still covers its catalog");
}

#[test]
fn segment_probe_counters_move() {
    let cat = build_catalog(4, 60);
    let seg = SegmentedIndex::build_split(&cat, 4, 1);
    let mut scratch = ProbeScratch::new();
    let q = seg.doc("entity alpha3 item");
    let _ = seg.entity_candidates_with(&q, 4, DEFAULT_RESCORING_FACTOR, &mut scratch);
    let (probed, skipped) = seg.probe_stats();
    assert!(probed >= 1, "at least one segment must be probed");
    assert!(probed + skipped <= 4, "counters bounded by the fan-out width");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn segmented_merge_is_exact_on_random_catalogs(
        n_types in 0usize..5,
        n_entities in 1usize..48,
    ) {
        let cat = build_catalog(n_types, n_entities);
        let queries = queries_for(&cat);
        assert_segmented_matches_monolithic(&cat, &queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn append_matches_rebuild_on_random_growth(
        base_entities in 1usize..15,
        added_entities in 0usize..15,
        base_types in 0usize..3,
        added_types in 0usize..3,
        threads in 1usize..5,
    ) {
        let base_cat = build_catalog(base_types, base_entities);
        let grown_cat = build_catalog(base_types + added_types, base_entities + added_entities);
        let base = SegmentedIndex::from_single(Arc::new(LemmaIndex::build(&base_cat)));
        let grown = base.append(&grown_cat, threads).expect("append-only growth");
        let queries = queries_for(&grown_cat);
        assert_probe_equivalence(&LemmaIndex::build(&grown_cat), &grown, &queries, "random growth");
    }
}
