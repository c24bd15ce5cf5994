#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Time-varying relations (TVRs): the paper's central semantic object.
//!
//! A TVR is a relation whose contents vary over time (§3.1). This crate
//! provides the two canonical *encodings* of a TVR and the conversions
//! between them, realizing the stream/table duality:
//!
//! - **Table encoding**: a multiset snapshot of rows at a point in time
//!   ([`Bag`]), or a sequence of such snapshots.
//! - **Stream encoding**: a changelog of `INSERT`/`DELETE` deltas over
//!   processing time ([`Changelog`], rows of [`Change`]).
//!
//! The conversions are exact inverses (verified by property tests):
//! replaying a changelog yields the snapshot sequence, and differencing
//! consecutive snapshots yields a (consolidated) changelog. This is the
//! formal backbone for the paper's claim that "streams and tables are two
//! representations for one semantic object".
//!
//! The dataflow wire protocol ([`Element`]) also lives here: a stream edge
//! carries data changes interleaved with watermark punctuation.

pub mod bag;
pub mod batch;
pub mod change;
pub mod changelog;
pub mod element;

pub use bag::Bag;
pub use batch::{BatchOut, ChangeBatch};
pub use change::Change;
pub use changelog::{Changelog, TimedChange};
pub use element::Element;
