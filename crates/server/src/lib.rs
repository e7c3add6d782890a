//! # webtable-server
//!
//! The serving layer: `webtable-serve` loads a catalog + lemma-index
//! snapshot (the PR-4 persistence format), answers annotate and search
//! requests over a hand-rolled HTTP/1.1 subset, and hot-swaps whole
//! serving generations with zero downtime.
//!
//! ```text
//! data dir (MANIFEST, catalog.tsv, index.snap, tables-gN.json)
//!        │ load_generation
//!        ▼
//!   Generation { Annotator, SearchEngine, cache } ──► SwapCell (Arc swap)
//!        ▲                                               │ load() per request
//!   /admin/swap (manifest re-read, rebuild off-path)     ▼
//!                accept ──► worker pool ◄── bounded queue (while all busy)
//! ```
//!
//! Request bodies and responses are the dependency-free wire formats of
//! [`webtable_core::wire`] and [`webtable_search::wire`], so an HTTP
//! response is byte-identical to what the in-process front door
//! produces. Every error carries a stable machine-readable code (see
//! [`ServeError::code`] and [`webtable_core::Error::code`]) with a
//! documented HTTP mapping.

pub mod client;
pub mod demo;
pub mod error;
pub mod fault;
pub mod http;
pub mod manifest;
pub mod metrics;
pub mod router;
pub mod server;
pub mod state;
pub mod swap;

pub use error::ServeError;
pub use fault::{FaultAction, FaultPlan, FaultPoint};
pub use manifest::Manifest;
pub use metrics::{Metrics, SegmentStats};
pub use server::{serve, ServerConfig, ServerHandle};
pub use state::{
    load_generation, load_generation_recovering, AppState, Generation, HealthState, RecoveryReport,
    RetryPolicy,
};
pub use swap::SwapCell;
