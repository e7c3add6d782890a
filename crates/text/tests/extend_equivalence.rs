//! Incremental-growth equivalence: `SegmentedIndex::append` over an
//! append-only catalog change must answer every probe exactly like
//! `LemmaIndex::build` on the grown catalog — same query vectors, same
//! candidate lists — at every thread count, and must reject non-append
//! changes with a typed [`ExtendError`] without touching the base index.

use std::sync::Arc;

use webtable_catalog::{Catalog, CatalogBuilder};
use webtable_text::{
    ExtendError, LemmaIndex, ProbeScratch, SegmentedIndex, DEFAULT_RESCORING_FACTOR,
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
            "entity REWORDED item".to_string()
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

fn base_index(cat: &Catalog) -> SegmentedIndex {
    SegmentedIndex::from_single(Arc::new(LemmaIndex::build(cat)))
}

fn assert_append_matches_rebuild(base_cat: &Catalog, grown_cat: &Catalog, queries: &[&str]) {
    let base = base_index(base_cat);
    let rebuilt = LemmaIndex::build(grown_cat);
    for threads in [1usize, 2, 4] {
        let grown = base.append(grown_cat, threads).expect("append-only growth");
        assert_eq!(grown.num_indexed_entities(), grown_cat.num_entities(), "threads={threads}");
        assert_eq!(grown.num_indexed_types(), grown_cat.num_types(), "threads={threads}");
        grown.verify_catalog(grown_cat).expect("segments cover the grown catalog");
        let mut s1 = ProbeScratch::new();
        let mut s2 = ProbeScratch::new();
        for text in queries {
            let qg = grown.doc(text);
            let qr = rebuilt.doc(text);
            assert_eq!(qg.token_set, qr.token_set, "threads={threads} {text:?}");
            assert_eq!(qg.vec.pairs(), qr.vec.pairs(), "threads={threads} {text:?}");
            assert_eq!(
                grown.entity_candidates_with(&qg, 8, DEFAULT_RESCORING_FACTOR, &mut s1),
                rebuilt.entity_candidates_with(&qr, 8, DEFAULT_RESCORING_FACTOR, &mut s2),
                "threads={threads} entities {text:?}"
            );
            assert_eq!(
                grown.type_candidates_with(&qg, 8, DEFAULT_RESCORING_FACTOR, &mut s1),
                rebuilt.type_candidates_with(&qr, 8, DEFAULT_RESCORING_FACTOR, &mut s2),
                "threads={threads} types {text:?}"
            );
        }
    }
}

/// Appends `changed` onto an index of `base_cat`, expects a rejection,
/// and checks the failed append left the base index as it was.
fn rejected_append(base_cat: &Catalog, changed: &Catalog) -> ExtendError {
    let base = base_index(base_cat);
    let err = match base.append(changed, 1) {
        Err(e) => e,
        Ok(_) => panic!("a non-append change must be rejected"),
    };
    assert_eq!(base.content_digest(), LemmaIndex::build(base_cat).content_digest());
    base.verify_catalog(base_cat).expect("base still covers its catalog");
    err
}

#[test]
fn extend_with_new_entities_matches_rebuild() {
    let base = build_catalog(3, 10);
    let grown = build_catalog(3, 25);
    assert_append_matches_rebuild(&base, &grown, &["entity alpha3", "e17", "alpha shared", "k2"]);
}

#[test]
fn extend_with_new_entities_and_types_matches_rebuild() {
    let base = build_catalog(2, 8);
    let grown = build_catalog(6, 20);
    assert_append_matches_rebuild(&base, &grown, &["entity alpha1 item", "k5", "alpha alpha 18"]);
}

#[test]
fn extend_with_no_growth_matches_rebuild() {
    let cat = build_catalog(3, 10);
    assert_append_matches_rebuild(&cat, &cat, &["entity alpha3", "k1"]);
}

#[test]
fn shrunk_catalog_is_rejected() {
    let base = build_catalog(3, 10);
    match rejected_append(&base, &build_catalog(3, 4)) {
        ExtendError::BaseShrunk { what, base, grown } => {
            assert_eq!(what, "entities");
            assert!(grown < base, "{grown} < {base}");
        }
        other => panic!("expected BaseShrunk, got {other:?}"),
    }
}

#[test]
fn reworded_base_lemma_is_rejected() {
    // Same counts, but entity 0's name differs: not an append-only change.
    let base = build_catalog(2, 5);
    match rejected_append(&base, &edited_catalog(2, 5, Edit::Reword(0))) {
        ExtendError::BaseChanged { what, owner, .. } => {
            assert_eq!(what, "entity");
            assert_eq!(owner, 0);
        }
        other => panic!("expected BaseChanged, got {other:?}"),
    }
}

#[test]
fn added_lemma_on_base_entity_is_rejected() {
    let base = build_catalog(2, 5);
    assert!(matches!(
        rejected_append(&base, &edited_catalog(2, 5, Edit::AddLemma(2))),
        ExtendError::BaseChanged { owner: 2, .. }
    ));
}
