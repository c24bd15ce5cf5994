#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Incremental dataflow execution of streaming SQL plans.
//!
//! A [`plan::LogicalPlan`](onesql_plan::LogicalPlan) compiles into a tree of
//! push-based [`Operator`]s. Every edge carries
//! [`Element`](onesql_tvr::Element)s: row changes (`+1`/`-1` diffs)
//! interleaved with watermark punctuation. The output of the root operator,
//! stamped with processing time, is the query's changelog — a complete
//! encoding of the result TVR from which both the table view (snapshot at
//! any processing time) and the stream view (`EMIT STREAM`, with
//! `undo`/`ptime`/`ver` metadata) are rendered.
//!
//! Key operators:
//! - [`aggregate`]: retraction-based updating aggregation with
//!   watermark-driven finalization, late-input dropping, and state cleanup
//!   (Extension 2 + §5 lesson 1);
//! - [`window`]: `Tumble`/`Hop` event-time window assignment (Extension 3);
//! - [`join`]: incremental binary joins with recognized time-bound state
//!   expiry;
//! - [`emit`]: the materialization-delay operators implementing
//!   `EMIT AFTER WATERMARK` and `EMIT AFTER DELAY` (Extensions 5–7) and the
//!   changelog renderer for `EMIT STREAM` (Extension 4).

pub mod aggregate;
pub mod compile;
pub mod emit;
pub mod executor;
pub mod join;
pub mod operator;
pub mod session;
pub mod simple;
pub mod vector;
pub mod window;

pub use compile::compile;
pub use emit::{
    render_stream, BatchRow, Cells, StreamBatch, StreamRenderer, StreamRow, STREAM_META_COLUMNS,
};
pub use executor::{ExecConfig, Executor};
pub use operator::Operator;
