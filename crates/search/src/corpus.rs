//! An annotated table corpus: the searchable artifact.

use webtable_core::TableAnnotation;
use webtable_tables::Table;

/// Tables plus their (machine-produced) annotations, aligned by index.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedCorpus {
    /// The source tables.
    pub tables: Vec<Table>,
    /// One annotation per table.
    pub annotations: Vec<TableAnnotation>,
}

impl AnnotatedCorpus {
    /// Wraps pre-computed annotations.
    pub fn from_parts(tables: Vec<Table>, annotations: Vec<TableAnnotation>) -> AnnotatedCorpus {
        assert_eq!(tables.len(), annotations.len(), "misaligned corpus");
        AnnotatedCorpus { tables, annotations }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "misaligned corpus")]
    fn misaligned_parts_panic() {
        AnnotatedCorpus::from_parts(vec![], vec![TableAnnotation::default()]);
    }

    #[test]
    fn empty_corpus() {
        let c = AnnotatedCorpus::default();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn snapshot_roundtrip_corpus_matches_fresh_annotator() {
        use std::sync::Arc;
        use webtable_catalog::{generate_world, WorldConfig};
        use webtable_core::{AnnotateRequest, Annotator};
        use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

        let w = generate_world(&WorldConfig::tiny(31)).unwrap();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 3);
        let tables: Vec<Table> = g.gen_corpus(4, 6).into_iter().map(|lt| lt.table).collect();

        let annotator = Annotator::new(Arc::clone(&w.catalog));
        let annotate = |a: &Annotator, tables: Vec<Table>| {
            let annotations = a.run(&AnnotateRequest::new(&tables).workers(2)).annotations;
            AnnotatedCorpus::from_parts(tables, annotations)
        };
        let fresh = annotate(&annotator, tables.clone());

        let path =
            std::env::temp_dir().join(format!("webtable-snap-corpus-{}.idx", std::process::id()));
        annotator.save_snapshot(&path).expect("save");
        let restored = annotate(
            &Annotator::from_snapshot(Arc::clone(&w.catalog), &path).expect("snapshot load"),
            tables,
        );
        let _ = std::fs::remove_file(&path);

        assert_eq!(fresh.len(), restored.len());
        for (a, b) in fresh.annotations.iter().zip(&restored.annotations) {
            assert_eq!(a.cell_entities, b.cell_entities);
            assert_eq!(a.column_types, b.column_types);
            assert_eq!(a.relations, b.relations);
        }
    }
}
