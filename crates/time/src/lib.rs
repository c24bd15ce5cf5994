#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Event-time semantics: watermarks and their min-combining tracker.
//!
//! Implements §3.2 of the paper. A *watermark* is a monotonic function from
//! processing time to event time: observed at processing time `y` with value
//! `x`, it asserts that all future records carry event timestamps `> x`.
//! Watermarks are what let the engine declare event-time groupings complete
//! (Extension 2), gate materialization (`EMIT AFTER WATERMARK`, Extension
//! 5), and free operator state (§5, lesson 1). A query learns time only
//! from its sources: each connector asserts its own watermarks.

pub mod watermark;

pub use watermark::{Watermark, WatermarkTracker};
