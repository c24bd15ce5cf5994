#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! `onesql-connect`: pluggable sources, sinks, and connectors for the
//! onesql engine.
//!
//! The connector **runtime** — the [`Source`] / [`Sink`] traits in
//! `onesql_core::connect` and the [`PipelineDriver`] in
//! `onesql_core::driver` — lives in core and is re-exported here. This
//! crate adds the concrete connectors, and [`default_registry`] names each
//! family for `CREATE SOURCE` / `CREATE SINK ... WITH (connector = ...)`:
//!
//! | Connector | Kind | Purpose |
//! |---|---|---|
//! | [`CsvFileSource`] | file | schema-driven CSV ingestion |
//! | [`PartitionedFileSource`] | file | one partition per CSV or JSON-lines file |
//! | [`TxnFileSink`] | file | two-phase CSV or JSON-lines output, byte-identical after a restore |
//! | [`channel()`] / [`channel_sink`] | memory | crossbeam-backed feeds for tests and multi-producer fan-in |
//! | [`sharded_channel`] | memory | N channel shards as source partitions |
//! | [`NexmarkSource`] | generator | the NEXMark Person/Auction/Bid workload as a source |
//! | [`PartitionedNexmarkSource`] | generator | the workload split across N seed-range partitions |
//! | [`NetSource`] / [`NetSink`] / [`NetPublisher`] | network | length-prefixed framing over TCP/unix sockets |
//! | [`PartitionedNetSource`] | network | one partition per accepted connection, exactly-once resume |
//! | [`ChangelogSink`] | render | paper-style insert/retract stream rendering |
//!
//! # Quickstart
//!
//! A pipeline is one script: the session builds its connectors from the
//! `WITH` options and hands back their side handles.
//!
//! ```
//! use std::sync::{Arc, Mutex};
//!
//! use onesql_connect::{session, ChannelPublisher};
//! use onesql_types::{row, Ts};
//!
//! let mut session = session();
//! let mut pipeline = session
//!     .execute_script(
//!         "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
//!            WITH (connector = 'channel');
//!          CREATE SINK out WITH (connector = 'changelog');
//!          INSERT INTO out SELECT price FROM Bid WHERE price > 2;",
//!     )
//!     .unwrap()
//!     .into_pipeline()
//!     .unwrap();
//!
//! // The channel source exports its publishers, the changelog sink its
//! // rendered text.
//! let publishers = session.take_handle::<Vec<ChannelPublisher>>("Bid").unwrap();
//! let rendered = session.take_handle::<Arc<Mutex<String>>>("out").unwrap();
//! publishers[0].insert(Ts::hm(8, 8), row!(Ts::hm(8, 7), 5i64)).unwrap();
//! publishers[0].finish().unwrap();
//! let metrics = pipeline.run().unwrap();
//! assert_eq!(metrics.events_in, 1);
//! assert!(rendered.lock().unwrap().contains('5'));
//! ```

pub mod changelog;
pub mod channel;
pub mod file;
pub mod json;
pub mod metrics;
pub mod net;
pub mod nexmark;
pub mod registry;
pub mod text;
pub mod trace;

pub use changelog::ChangelogSink;
pub use channel::{
    channel, channel_sink, sharded_channel, ChannelPublisher, ChannelSink, ChannelSource,
    ShardedChannelSource, SinkEvent,
};
pub use file::{
    CsvFileSink, CsvFileSource, CsvSinkMode, FileSourceConfig, PartitionedFileSource, TxnFileSink,
};
pub use metrics::{metrics_schema, MetricsSource};
pub use net::{
    NetAddr, NetConfig, NetPartStats, NetPublisher, NetPublisherStats, NetSink, NetSource,
    PartitionedNetSource, WIRE_MAGIC, WIRE_VERSION,
};
pub use nexmark::{register_nexmark_streams, NexmarkSource, PartitionedNexmarkSource};
pub use registry::{default_registry, session};
pub use trace::{trace_schema, TraceSource};

pub use onesql_core::connect::{
    AdaptiveBatch, BatchController, ColumnarBatch, ConnectorRegistry, DriverConfig, Exports,
    OptionBag, PartitionedSource, PartitionedVec, PipelineMetrics, Sink, SinkConnector, SinkSpec,
    Source, SourceBatch, SourceColumns, SourceConnector, SourceEvent, SourceMetrics, SourceSpec,
    SourceStatus, WrapsPartitioned,
};
pub use onesql_core::driver::{PipelineCheckpoint, PipelineDriver};
pub use onesql_core::observe::{MetricKind, MetricRow, MetricsHub, PipelineSnapshot};
pub use onesql_core::session::{
    PipelineInfo, ScriptOutcome, Session, SqlPipeline, StatementResult,
};
