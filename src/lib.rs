#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Meta-crate re-exporting the onesql public API.
//!
//! - [`core`] — the engine: catalog, planning, running queries, and the
//!   SQL-first [`Session`] facade.
//! - [`connect`] — pluggable sources/sinks, the pipeline driver, and the
//!   default connector registry behind `CREATE SOURCE / SINK` DDL
//!   ([`connect::session`] is the one-line entry point).
//!
//! A query runs one way: as a script through [`Session::execute_script`].
//! There is no handle to a query fed by hand:
//!
//! ```compile_fail
//! use onesql::RunningQuery;
//! ```
//!
//! ```compile_fail
//! use onesql::core::RunningQuery;
//! ```
pub use onesql_connect as connect;
pub use onesql_core as core;

pub use onesql_connect::{
    ChangelogSink, ChannelPublisher, ChannelSink, ChannelSource, ConnectorRegistry, CsvFileSink,
    CsvFileSource, CsvSinkMode, DriverConfig, FileSourceConfig, NetAddr, NetConfig, NetPublisher,
    NetSink, NetSource, NexmarkSource, PartitionedFileSource, PartitionedNetSource,
    PartitionedNexmarkSource, PartitionedSource, PartitionedVec, PipelineCheckpoint,
    PipelineDriver, PipelineMetrics, ScriptOutcome, Session, ShardedChannelSource, Sink, Source,
    SourceBatch, SourceEvent, SourceStatus, SqlPipeline, StatementResult, TxnFileSink,
};
pub use onesql_core::{CheckpointStore, Engine, HistoryEvent, HistoryTap, StreamBuilder};
