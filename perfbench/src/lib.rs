#![forbid(unsafe_code)]
// A benchmark harness: the scripts and inputs are this crate's own
// fixtures, and every failure ends the run with a non-zero exit, so a
// panic with the reason is the error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! `onesql-bench`: one end-to-end + per-layer benchmark for the
//! stream/table engine, driven by `BENCHMARK.json` at the repository
//! root. See `README.md` in this directory for the metric and workload
//! tables; [`spec`] is the single source of their names.
//!
//! The harness touches no engine code. Every layer is measured from
//! outside: by timing calls into its public functions, and by reading the
//! counters, histograms and spans the engine already exposes.

pub mod cli;
pub mod gate;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod scratch;
pub mod spec;
pub mod tracing;
pub mod workloads;
