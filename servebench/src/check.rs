//! Output checks. Search responses must be byte-identical to
//! [`encode_answers`] over the same generation — with one named
//! exception, see [`compare_search`]. Annotate responses must
//! be byte-identical to [`encode_response`] once the fields that are
//! measurements rather than outputs (per-table phase timings and the
//! shared cache's hit/miss counters) are zeroed on both sides; the
//! server's body must also re-encode to itself, so nothing is hidden by
//! the decode. Annotations are then graded against ground truth.

use webtable_core::wire::{decode_response, encode_response, WireAnnotateRequest};
use webtable_core::{AnnotateResponse, PhaseTimings};
use webtable_eval::{entity_accuracy, point_types_as_sets, relation_f1, type_f1, Accuracy, SetF1};
use webtable_search::wire::{decode_answers, decode_query, encode_answers};
use webtable_server::Generation;
use webtable_tables::GroundTruth;

/// How a search response compares with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMatch {
    /// Byte-identical.
    Exact,
    /// Same answers in the same order; some scores differ only by
    /// floating-point summation order (relative difference at most
    /// [`SCORE_REL_TOLERANCE`]).
    ScoreRounding,
    /// Anything else: a wrong answer.
    Differs,
}

/// Largest relative score difference [`SearchMatch::ScoreRounding`]
/// admits — far above summation-order noise (≈1e-15), far below any
/// ranking-relevant change.
pub const SCORE_REL_TOLERANCE: f64 = 1e-12;

/// Compares a server search body with its reference.
///
/// The server builds its own `TableIndex`, whose token ids follow the
/// iteration order of per-process randomly seeded hash maps, so `tables`
/// scores can differ from an in-process reference in their last bits
/// (the norms are summed in a different order). Such responses are
/// reported as [`SearchMatch::ScoreRounding`] — counted and printed,
/// never silently equal — while any difference in answers, order, or a
/// score beyond the tolerance is [`SearchMatch::Differs`].
pub fn compare_search(body: &str, reference: &str) -> SearchMatch {
    if body == reference {
        return SearchMatch::Exact;
    }
    let (Ok(got), Ok(want)) = (decode_answers(body), decode_answers(reference)) else {
        return SearchMatch::Differs;
    };
    let close = |a: f64, b: f64| (a - b).abs() <= SCORE_REL_TOLERANCE * a.abs().max(b.abs());
    if got.len() == want.len()
        && got.iter().zip(&want).all(|(g, w)| g.key == w.key && close(g.score, w.score))
        && encode_answers(&got) == body
    {
        SearchMatch::ScoreRounding
    } else {
        SearchMatch::Differs
    }
}

/// Zeroes the measurement fields of a response.
pub fn normalize(mut r: AnnotateResponse) -> AnnotateResponse {
    for t in &mut r.timings {
        *t = PhaseTimings::default();
    }
    r.stats.cache_hits = 0;
    r.stats.cache_misses = 0;
    r.stats.timings = PhaseTimings::default();
    r
}

/// The reference body of a search request on `generation`.
pub fn search_reference(generation: &Generation, body: &str) -> Result<String, String> {
    let q = decode_query(body).map_err(|e| format!("bad search body: {e}"))?;
    Ok(encode_answers(&generation.engine.search(&q)))
}

/// The normalized reference body of an annotate request on `generation`.
pub fn annotate_reference(generation: &Generation, body: &str) -> Result<String, String> {
    let req = WireAnnotateRequest::decode(body).map_err(|e| format!("bad annotate body: {e}"))?;
    let resp = generation.annotator.try_run(&req.as_request()).map_err(|e| e.to_string())?;
    Ok(encode_response(&normalize(resp)))
}

/// Normalizes a server annotate body; `Err` when it does not decode or
/// does not re-encode to exactly itself.
pub fn normalize_body(body: &str) -> Result<(String, AnnotateResponse), String> {
    let resp = decode_response(body).map_err(|e| format!("undecodable annotate body: {e}"))?;
    if encode_response(&resp) != body {
        return Err("annotate body is not in canonical wire form".into());
    }
    let norm = normalize(resp.clone());
    Ok((encode_response(&norm), resp))
}

/// Annotation quality accumulated over graded tables.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Cell-entity accuracy.
    pub entity: Accuracy,
    /// Column-type F1.
    pub types: SetF1,
    /// Relation F1.
    pub relations: SetF1,
    /// Tables graded.
    pub tables: usize,
}

impl Quality {
    /// Grades one response against the truth of its tables.
    pub fn grade(&mut self, resp: &AnnotateResponse, truth: &[GroundTruth]) -> Result<(), String> {
        if resp.annotations.len() != truth.len() {
            return Err(format!(
                "response has {} annotations for {} tables",
                resp.annotations.len(),
                truth.len()
            ));
        }
        for (a, t) in resp.annotations.iter().zip(truth) {
            self.entity.add(entity_accuracy(&a.cell_entities, &t.cell_entities));
            self.types.add(type_f1(&point_types_as_sets(&a.column_types), &t.column_types));
            self.relations.add(relation_f1(&a.relations, &t.relations));
            self.tables += 1;
        }
        Ok(())
    }
}
