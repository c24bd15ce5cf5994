#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! `onesql-core`: the unified streaming/table SQL engine.
//!
//! This crate is the paper's primary contribution assembled into a usable
//! system: register streams and tables as time-varying relations, run one
//! SQL dialect over both, and choose *how* and *when* results materialize
//! (table snapshots, changelog streams, watermark-gated or periodically
//! delayed emission).
//!
//! # Quickstart
//!
//! ```
//! use onesql_core::{Engine, StreamBuilder};
//! use onesql_types::{row, DataType, Ts};
//!
//! let mut engine = Engine::new();
//! engine.register_stream(
//!     "Bid",
//!     StreamBuilder::new()
//!         .event_time_column("bidtime")
//!         .column("price", DataType::Int)
//!         .column("item", DataType::String),
//! );
//!
//! let mut q = engine
//!     .execute("SELECT item, price FROM Bid WHERE price > 2")
//!     .unwrap();
//! q.insert("Bid", Ts::hm(8, 8), row!(Ts::hm(8, 7), 2i64, "A")).unwrap();
//! q.insert("Bid", Ts::hm(8, 12), row!(Ts::hm(8, 11), 3i64, "B")).unwrap();
//!
//! assert_eq!(q.table_at(Ts::hm(8, 21)).unwrap(), vec![row!("B", 3i64)]);
//! ```

pub mod connect;
pub mod driver;
pub mod durable;
pub mod engine;
pub mod hash;
pub mod history;
pub mod observe;
pub mod query;
pub mod session;

pub use connect::{
    AdaptiveBatch, BatchController, ConnectorRegistry, DriverConfig, Exports, OptionBag,
    PartitionedSource, PipelineMetrics, Sink, SinkConnector, SinkSpec, Source, SourceBatch,
    SourceConnector, SourceEvent, SourceMetrics, SourceSpec, SourceStatus, WatermarkProvenance,
};
pub use driver::{PipelineCheckpoint, PipelineDriver};
pub use durable::{schema_fingerprint, CheckpointStore, DEFAULT_RETAIN};
pub use engine::{Engine, StreamBuilder};
pub use hash::{partition_of, StableHasher};
pub use history::{HistoryEvent, HistoryTap};
pub use observe::{
    FlightRecorder, Histogram, MetricKind, MetricRow, MetricsHub, PipelineSnapshot, TraceRecord,
    TraceSpan,
};
pub use query::RunningQuery;
pub use session::{PipelineInfo, ScriptOutcome, Session, SqlPipeline, StatementResult};

pub use onesql_exec::{ExecConfig, StreamRow};
pub use onesql_plan::{render_report, BoundQuery, Diagnostic, EmitSpec, LintMode, Severity};
