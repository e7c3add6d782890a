//! `servebench`: the repository's benchmark for `webtable-serve`.
//!
//! One command prepares seeded data directories through public library
//! calls, spawns the release server with its default settings, drives
//! a workload from one load process, checks every answer against an
//! in-process reference, and prints each end-to-end metric by name with
//! its unit and sample count. With `--trace 1` it also replays the same
//! inputs in-process with spans around each layer's public functions
//! and prints the per-layer metrics instead. See `servebench/README.md`.

pub mod check;
pub mod idle;
pub mod inputs;
pub mod load;
pub mod server_proc;
pub mod stats;
pub mod trace;
pub mod traced;

/// True when `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
