#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! NEXMark workload support.
//!
//! NEXMark [Tucker et al.] models an online auction platform with three
//! streams — `Person`, `Auction`, `Bid` — plus a static `Category` table.
//! The paper (§4) uses NEXMark Query 7 as its running example and the
//! benchmark as its performance reference. This crate provides:
//!
//! - [`paper`]: the *exact* dataset of §4 (the 8:07–8:21 timeline of bids
//!   and watermarks) and the paper's Query 7 SQL — the fixture every
//!   listing reproduction runs against;
//! - [`model`]: typed rows and schemas for the NEXMark entities;
//! - [`generator`]: a deterministic, seeded event generator with
//!   configurable event-time skew (the substitute for the original
//!   distributed data feed — see DESIGN.md substitutions);
//! - [`queries`]: the NEXMark query suite expressed in the paper's dialect.

pub mod generator;
pub mod model;
pub mod paper;
pub mod queries;

pub use generator::{Draw, GeneratorConfig, NexmarkEvent, NexmarkGenerator};
pub use paper::{paper_timeline, PaperEvent, PAPER_Q7_SQL};
