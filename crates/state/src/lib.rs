#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! State management substrate for the streaming engine.
//!
//! The paper's engines (Appendix B.2) keep operator state in a pluggable
//! backend (JVM heap or RocksDB) with periodic consistent checkpoints; state
//! is freed as watermarks pass (§5, lesson 1). This crate is our substitute
//! substrate (see DESIGN.md §2): an in-memory, hashed, typed keyed-state
//! layer with
//!
//! - a compact binary [`codec`] for checkpoint encoding (built on `bytes`),
//! - [`KeyedState`], the per-key state primitive operators build on, hashed
//!   by [`MulRotate`], the engine's one seeded table hasher,
//! - whole-operator [`Checkpoint`] snapshots with exact restore, and
//! - [`TemporalTable`]: system-time versioned tables supporting
//!   `AS OF SYSTEM TIME` (§6.1).

pub mod codec;
pub mod hash;
pub mod keyed;
pub mod temporal;

pub use codec::{crc32, Codec, Decoder};
pub use hash::MulRotate;
pub use keyed::{Checkpoint, KeyedState, StateMetrics};
pub use temporal::TemporalTable;
