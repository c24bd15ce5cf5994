#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! `onesql_checker`: black-box consistency checking for onesql pipelines.
//!
//! The checker treats a pipeline exactly as an external observer would —
//! it sees only the *observable history* (emitted changelog rows, sink
//! watermark deliveries, checkpoint/restore epochs, the finish marker,
//! `AS OF` probe reads, and sink-file bytes) and verifies composable
//! [`oracle`]s over it:
//!
//! - **watermark-monotone** — sinks never hear time run backwards;
//! - **retraction-balanced** — every retraction matches a prior insert
//!   and the changelog folds to the operator table;
//! - **as-of-stable** — re-reading a past version after more input
//!   returns identical rows;
//! - **emit-gated** — under `EMIT AFTER WATERMARK`, no row escapes ahead
//!   of the watermark that releases it;
//! - **replay-identical** — a killed-and-restored run's effective
//!   history (and its committed sink bytes) equal the uninterrupted
//!   run's;
//! - **config-transparent** — a run on another worker count denotes the
//!   same table, finally and `AS OF` every probed instant; one at another
//!   batch size, finally.
//!
//! A seeded [`nemesis`] drives arbitrary-but-reproducible interleavings
//! — uneven scheduling chunks, mid-stream checkpoints, staged-then-
//! discarded suffixes, kill/restore cycles, worker-count and batch-size
//! variation — so one [`harness::check`] call replaces a hand-rolled
//! kill-choreography test. See `docs/CHECKING.md` for the vocabulary and
//! for how a new connector or operator opts in.
//!
//! Two families of [`Scenario`]s ship here: the NEXMark suite
//! ([`NexmarkScenario`]) and the paper's own listings over its Bid
//! timeline ([`paper`]), the latter killed at every event boundary.

pub mod harness;
pub mod nemesis;
pub mod oracle;
pub mod paper;
pub mod scenarios;

pub use harness::{
    check, check_seeded, Probe, Report, RunKind, RunRecord, Scenario, ScenarioConfig,
};
pub use nemesis::{KillCycle, Nemesis, NemesisConfig, NemesisPlan};
pub use oracle::{
    as_of_stable, config_transparent, effective_history, emit_gated, emitted, fold_table,
    fold_table_at, replay_identical, retraction_balanced, retraction_balanced_against,
    watermark_monotone, watermarks, Violation,
};
pub use scenarios::NexmarkScenario;
