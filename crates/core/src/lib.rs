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
//! One script declares the input, the output and the query; the session
//! assembles the pipeline. Here the input is a [`connect::replay::Replay`]
//! schedule and the output a [`HistoryTap`]:
//!
//! ```
//! use onesql_core::connect::replay::Replay;
//! use onesql_core::{ConnectorRegistry, HistoryTap, Session, StreamBuilder};
//! use onesql_types::{row, DataType, Ts};
//!
//! let bid = StreamBuilder::new()
//!     .event_time_column("bidtime")
//!     .column("price", DataType::Int)
//!     .column("item", DataType::String);
//! let mut bids = Replay::new([("Bid", bid.build())]);
//! bids.insert(Ts::hm(8, 8), "Bid", row!(Ts::hm(8, 7), 2i64, "A"))
//!     .insert(Ts::hm(8, 12), "Bid", row!(Ts::hm(8, 11), 3i64, "B"));
//!
//! let mut registry = ConnectorRegistry::new();
//! registry.register_source("replay", bids);
//! registry.register_sink("history", HistoryTap::new());
//! let mut pipeline = Session::new(registry)
//!     .execute_script(
//!         "CREATE SOURCE feed WITH (connector = 'replay');
//!          CREATE SINK out WITH (connector = 'history');
//!          INSERT INTO out SELECT item, price FROM Bid WHERE price > 2;",
//!     )
//!     .unwrap()
//!     .into_pipeline()
//!     .unwrap();
//! pipeline.run().unwrap();
//! assert_eq!(pipeline.table_at(Ts::hm(8, 21)).unwrap(), vec![row!("B", 3i64)]);
//! ```

pub mod connect;
pub mod driver;
pub mod durable;
pub mod engine;
pub mod hash;
pub mod history;
pub mod observe;
#[doc(hidden)]
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
pub use session::{PipelineInfo, ScriptOutcome, Session, SqlPipeline, StatementResult};

pub use onesql_exec::{ExecConfig, StreamBatch, StreamRow};
pub use onesql_plan::{render_report, BoundQuery, Diagnostic, EmitSpec, LintMode, Severity};
