//! The built-in connector factories: how this crate's concrete
//! connectors plug into `CREATE SOURCE / SINK ... WITH (...)` DDL.
//!
//! [`default_registry`] returns a [`ConnectorRegistry`] with every
//! connector family this crate ships; [`session`] wraps it in a ready
//! [`Session`]. Each factory maps a validated `WITH`-option bag to a
//! connector instance — misspelled, missing, or ill-typed options error
//! with the offending key named (see `OptionBag` in `onesql_core`).
//!
//! | connector | kind | required options | optional options |
//! |---|---|---|---|
//! | `file` | source | `path` | `format`, `header`, `lateness_ms` |
//! | `channel` | source | — | `capacity`, `partitions` |
//! | `nexmark` | source | `events` | `seed`, `partitions` |
//! | `net` | source | `addr` | `partitions`, `streams`, consumer-side net tuning |
//! | `metrics` | source | `pipelines` | — |
//! | `trace` | source | — | `pipelines` |
//! | `file` | sink | `path` | `format`, `mode`, `header`, `transactional` (`TRUE` only) |
//! | `changelog` | sink | — | `path`, `watermarks` |
//! | `channel` | sink | — | `capacity` |
//! | `net` | sink | `addr`, `stream` | `partition`, producer-side net tuning |
//!
//! Every `file` sink is two-phase ([`TxnFileSink`]); its `transactional`
//! key is accepted only as `TRUE`, for scripts that still say it. A
//! `changelog` sink with a `path` is not, and refuses a restore.
//!
//! The full grammar and option tables live in `docs/SQL_REFERENCE.md`.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use onesql_core::connect::{
    ConnectorRegistry, Exports, OptionBag, PartitionedSource, PartitionedVec, Sink, SinkConnector,
    SinkSpec, SourceConnector, SourceSpec,
};
use onesql_core::Session;
use onesql_plan::TableKind;
use onesql_types::{Duration, Error, Result, SchemaRef};

use crate::changelog::ChangelogSink;
use crate::channel::{channel_sink, sharded_channel};
use crate::file::{CsvSinkMode, FileSourceConfig, PartitionedFileSource, TxnFileSink};
use crate::net::{NetAddr, NetConfig, NetSink, NetSource, PartitionedNetSource};
use crate::nexmark::PartitionedNexmarkSource;

use onesql_nexmark::model::{Auction, Bid, Person};
use onesql_nexmark::GeneratorConfig;

/// A [`ConnectorRegistry`] populated with this crate's connector
/// families (see the module docs for the option tables).
pub fn default_registry() -> ConnectorRegistry {
    let mut registry = ConnectorRegistry::new();
    registry.register_source("file", FileConnector);
    registry.register_source("channel", ChannelConnector);
    registry.register_source("nexmark", NexmarkConnector);
    registry.register_source("net", NetSourceConnector);
    registry.register_source("metrics", crate::metrics::MetricsConnector);
    registry.register_source("trace", crate::trace::TraceConnector);
    registry.register_sink("file", FileSinkConnector);
    registry.register_sink("changelog", ChangelogConnector);
    registry.register_sink("channel", ChannelSinkConnector);
    registry.register_sink("net", NetSinkConnector);
    registry
}

/// A [`Session`] over [`default_registry`]: the one-line entry point for
/// SQL-first pipelines.
pub fn session() -> Session {
    Session::new(default_registry())
}

/// The stream a single-stream source feeds: its inline DDL schema,
/// required.
fn require_schema(spec: &SourceSpec) -> Result<(String, SchemaRef)> {
    let schema = spec.schema.clone().ok_or_else(|| {
        Error::plan(format!(
            "source '{}' needs an inline column list, e.g. \
             CREATE SOURCE {} (t TIMESTAMP, v INT, WATERMARK FOR t) WITH (...)",
            spec.name, spec.name
        ))
    })?;
    Ok((spec.name.to_string(), schema))
}

/// Text format shared by the file source and sink.
enum FileFormat {
    Csv,
    JsonLines,
}

fn file_format(options: &mut OptionBag) -> Result<FileFormat> {
    let context = options.context().to_string();
    match options.opt_str("format")?.as_deref() {
        None | Some("csv") => Ok(FileFormat::Csv),
        Some("jsonl") => Ok(FileFormat::JsonLines),
        Some(other) => Err(Error::plan(format!(
            "{context}: option 'format' must be 'csv' or 'jsonl', got '{other}'"
        ))),
    }
}

// ---------------------------------------------------------------------------
// file source
// ---------------------------------------------------------------------------

struct FileConnector;

impl FileConnector {
    /// `path` is one file, or a comma-separated list (one partition per
    /// file) for `CREATE PARTITIONED SOURCE`.
    fn paths(spec: &SourceSpec, options: &mut OptionBag) -> Result<Vec<String>> {
        let raw = options.require_str("path")?;
        let paths: Vec<String> = raw
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect();
        if paths.is_empty() {
            return Err(Error::plan(format!(
                "source '{}': option 'path' is empty",
                spec.name
            )));
        }
        if paths.len() > 1 && !spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': {} paths need CREATE PARTITIONED SOURCE \
                 (one partition per file)",
                spec.name,
                paths.len()
            )));
        }
        Ok(paths)
    }

    fn config(options: &mut OptionBag, format: &FileFormat) -> Result<FileSourceConfig> {
        let header = options.opt_bool("header")?;
        if header.is_some() && matches!(format, FileFormat::JsonLines) {
            return Err(Error::plan(format!(
                "{}: option 'header' only applies to format='csv' \
                 (JSON-lines has no header concept)",
                options.context()
            )));
        }
        Ok(FileSourceConfig {
            lateness: Duration(options.opt_u64("lateness_ms")?.unwrap_or(0) as i64),
            has_header: header.unwrap_or(false),
        })
    }
}

impl SourceConnector for FileConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        Self::paths(spec, options)?;
        let format = file_format(options)?;
        Self::config(options, &format)?;
        Ok(vec![require_schema(spec)?])
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let paths = Self::paths(spec, options)?;
        let format = file_format(options)?;
        let config = Self::config(options, &format)?;
        let (stream, schema) = require_schema(spec)?;
        Ok(Box::new(match format {
            FileFormat::Csv => PartitionedFileSource::csv(&paths, &stream, schema, config)?,
            FileFormat::JsonLines => {
                PartitionedFileSource::json_lines(&paths, &stream, schema, config)?
            }
        }))
    }

    /// Every line of a file is an insertion.
    fn retracts(&self, _spec: &SourceSpec) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// channel source
// ---------------------------------------------------------------------------

/// In-memory channel source. Builds export the
/// [`crate::ChannelPublisher`] handles (a `Vec<ChannelPublisher>`, one
/// per partition) — retrieve them with `session.take_handle`. Channels
/// are not replayable: a pipeline over them can checkpoint, but
/// restoring into a fresh instance errors (the pre-crash events exist
/// nowhere to replay from).
struct ChannelConnector;

impl SourceConnector for ChannelConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        options.opt_u64("capacity")?;
        let partitions = options.opt_u64("partitions")?;
        if partitions.is_some() && !spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': option 'partitions' needs CREATE PARTITIONED SOURCE",
                spec.name
            )));
        }
        Ok(vec![require_schema(spec)?])
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let capacity = options.opt_u64("capacity")?.unwrap_or(64) as usize;
        // `declare` refused `partitions` without PARTITIONED.
        let partitions = options.opt_u64("partitions")?.unwrap_or(1) as usize;
        let (stream, _) = require_schema(spec)?;
        let (publishers, source) = sharded_channel(stream, partitions, capacity);
        exports.put(publishers);
        Ok(Box::new(source))
    }

    fn replayable(&self, _spec: &SourceSpec) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// nexmark source
// ---------------------------------------------------------------------------

/// The NEXMark generator. Defines its own streams — `Person`,
/// `Auction`, `Bid` with the benchmark schemas — so the DDL takes no
/// column list.
struct NexmarkConnector;

impl NexmarkConnector {
    fn validate(spec: &SourceSpec, options: &mut OptionBag) -> Result<(u64, u64, usize)> {
        if spec.schema.is_some() {
            return Err(Error::plan(format!(
                "source '{}': connector 'nexmark' defines its own streams \
                 (Person, Auction, Bid); drop the column list",
                spec.name
            )));
        }
        let events = options.require_u64("events")?;
        let seed = options.opt_u64("seed")?.unwrap_or(1);
        let partitions = options.opt_u64("partitions")?.unwrap_or(1) as usize;
        if partitions > 1 && !spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': option 'partitions' needs CREATE PARTITIONED SOURCE",
                spec.name
            )));
        }
        Ok((events, seed, partitions))
    }
}

impl SourceConnector for NexmarkConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        Self::validate(spec, options)?;
        Ok(vec![
            ("Person".to_string(), Arc::new(Person::schema())),
            ("Auction".to_string(), Arc::new(Auction::schema())),
            ("Bid".to_string(), Arc::new(Bid::schema())),
        ])
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let (events, seed, partitions) = Self::validate(spec, options)?;
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        Ok(Box::new(PartitionedNexmarkSource::new(
            config, events, partitions,
        )))
    }

    /// The generator only ever emits new persons, auctions and bids.
    fn retracts(&self, _spec: &SourceSpec) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// net source
// ---------------------------------------------------------------------------

/// Parse `'tcp:host:port'` / `'unix:/path'` into a [`NetAddr`].
fn parse_addr(context: &str, raw: &str) -> Result<NetAddr> {
    if let Some(addr) = raw.strip_prefix("tcp:") {
        Ok(NetAddr::tcp(addr))
    } else if let Some(path) = raw.strip_prefix("unix:") {
        Ok(NetAddr::unix(path))
    } else {
        Err(Error::plan(format!(
            "{context}: option 'addr' must look like 'tcp:host:port' or \
             'unix:/path', got '{raw}'"
        )))
    }
}

/// Consumer-side net tuning: only the knobs the listening *source*
/// actually reads. Producer-side keys (frame sizes, spool bounds,
/// keepalive cadence) are rejected here rather than silently ignored —
/// they belong on the producing process's `NetConfig` / net sink.
fn net_source_config(options: &mut OptionBag) -> Result<NetConfig> {
    let mut config = NetConfig::default();
    if let Some(ms) = options.opt_u64("poll_wait_ms")? {
        config.poll_wait = StdDuration::from_millis(ms);
    }
    if let Some(ms) = options.opt_u64("silence_limit_ms")? {
        config.silence_limit = Some(StdDuration::from_millis(ms));
    }
    if let Some(restarts) = options.opt_bool("producer_restarts")? {
        config.producer_restarts = restarts;
    }
    Ok(config)
}

/// Producer-side net tuning: only the knobs the publishing *sink*
/// actually uses. Consumer-side keys (`poll_wait_ms`,
/// `silence_limit_ms`, `producer_restarts`) and `keepalive_ms` (the
/// sink writes frames only when the driver hands it rows, so it never
/// heartbeats) are rejected rather than silently inert.
fn net_sink_config(options: &mut OptionBag) -> Result<NetConfig> {
    let mut config = NetConfig::default();
    if let Some(n) = options.opt_u64("batch_events")? {
        config.batch_events = n as usize;
    }
    if let Some(n) = options.opt_u64("spool_events")? {
        config.spool_events = n as usize;
    }
    if let Some(ms) = options.opt_u64("connect_timeout_ms")? {
        config.connect_timeout = StdDuration::from_millis(ms);
    }
    if let Some(ms) = options.opt_u64("ack_wait_ms")? {
        config.ack_wait = StdDuration::from_millis(ms);
    }
    Ok(config)
}

/// Network listener source. Feeds either the stream its inline schema
/// declares, or — via `streams='A,B,C'` — several pre-declared streams
/// (matching the producer handshake's declaration order). Builds export
/// the bound [`NetAddr`] (so `tcp:127.0.0.1:0` callers can learn the
/// ephemeral port with `session.take_handle::<NetAddr>(...)`).
struct NetSourceConnector;

impl NetSourceConnector {
    fn streams(spec: &SourceSpec, options: &mut OptionBag) -> Result<Vec<(String, SchemaRef)>> {
        match options.opt_str("streams")? {
            Some(list) => {
                if spec.schema.is_some() {
                    return Err(Error::plan(format!(
                        "source '{}': give either an inline column list or a \
                         'streams' option, not both",
                        spec.name
                    )));
                }
                let mut streams = Vec::new();
                for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let (schema, kind) = spec.catalog.resolve(name)?;
                    if kind != TableKind::Stream {
                        return Err(Error::plan(format!(
                            "source '{}': '{name}' in 'streams' is a table, \
                             not a stream",
                            spec.name
                        )));
                    }
                    streams.push((name.to_string(), schema));
                }
                if streams.is_empty() {
                    return Err(Error::plan(format!(
                        "source '{}': option 'streams' is empty",
                        spec.name
                    )));
                }
                Ok(streams)
            }
            None => Ok(vec![require_schema(spec)?]),
        }
    }
}

impl SourceConnector for NetSourceConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        let context = options.context().to_string();
        parse_addr(&context, &options.require_str("addr")?)?;
        net_source_config(options)?;
        if options.opt_u64("partitions")?.unwrap_or(1) > 1 && !spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': option 'partitions' needs CREATE PARTITIONED SOURCE",
                spec.name
            )));
        }
        Self::streams(spec, options)
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let context = options.context().to_string();
        let addr = parse_addr(&context, &options.require_str("addr")?)?;
        let config = net_source_config(options)?;
        let partitions = options.opt_u64("partitions")?.unwrap_or(1) as usize;
        let streams: Vec<String> = Self::streams(spec, options)?
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        if spec.partitioned {
            let source = PartitionedNetSource::bind(addr, streams, partitions.max(1), config)?;
            exports.put(source.local_addr());
            Ok(Box::new(source))
        } else {
            // (`declare` refused `partitions > 1` without PARTITIONED.)
            // Not `PartitionedNetSource` with one partition: `NetSource`
            // acks as it consumes, so un-checkpointed consumers still trim
            // the producer's spool — which is why it cannot replay.
            let source = NetSource::bind(addr, streams, config)?;
            exports.put(source.local_addr());
            Ok(Box::new(PartitionedVec::single(source)))
        }
    }

    fn replayable(&self, spec: &SourceSpec) -> bool {
        spec.partitioned
    }
}

// ---------------------------------------------------------------------------
// sinks
// ---------------------------------------------------------------------------

/// CSV / JSON-lines file sink, always two-phase ([`TxnFileSink`]).
struct FileSinkConnector;

impl FileSinkConnector {
    fn parse(
        spec: &SinkSpec,
        options: &mut OptionBag,
    ) -> Result<(String, FileFormat, CsvSinkMode, bool)> {
        let path = options.require_str("path")?;
        let format = file_format(options)?;
        let mode = match options.opt_str("mode")?.as_deref() {
            None | Some("changelog") => CsvSinkMode::Changelog,
            Some("appends") => CsvSinkMode::Appends,
            Some(other) => {
                return Err(Error::plan(format!(
                    "sink '{}': option 'mode' must be 'changelog' or \
                     'appends', got '{other}'",
                    spec.name
                )))
            }
        };
        let header = options.opt_bool("header")?;
        if header.is_some() && matches!(format, FileFormat::JsonLines) {
            return Err(Error::plan(format!(
                "sink '{}': option 'header' only applies to format='csv' \
                 (JSON-lines has no header concept)",
                spec.name
            )));
        }
        // Kept so scripts that say `transactional = TRUE` still run.
        if options.opt_bool("transactional")? == Some(false) {
            return Err(Error::plan(format!(
                "sink '{}': option 'transactional' cannot be FALSE: every file \
                 sink is two-phase (drop the option)",
                spec.name
            )));
        }
        Ok((path, format, mode, header.unwrap_or(true)))
    }
}

impl SinkConnector for FileSinkConnector {
    fn declare(&self, spec: &SinkSpec, options: &mut OptionBag) -> Result<()> {
        Self::parse(spec, options).map(|_| ())
    }

    fn build(
        &self,
        spec: &SinkSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        let (path, format, mode, header) = Self::parse(spec, options)?;
        // The file keeps its bytes until the first write (fresh run) or a
        // RESTORE (recovery) decides whether this instance continues the
        // previous incarnation's file.
        let sink = match format {
            FileFormat::Csv => TxnFileSink::new(&path, mode, header),
            FileFormat::JsonLines => TxnFileSink::json_lines(&path, mode),
        };
        sink.check_writable()?;
        Ok(Box::new(sink))
    }
}

/// Paper-style changelog renderer. With a `path`, renders to that file;
/// without, renders to an in-memory buffer and exports the
/// `Arc<Mutex<String>>` handle.
struct ChangelogConnector;

impl SinkConnector for ChangelogConnector {
    fn declare(&self, _spec: &SinkSpec, options: &mut OptionBag) -> Result<()> {
        options.opt_str("path")?;
        options.opt_bool("watermarks")?;
        Ok(())
    }

    fn build(
        &self,
        _spec: &SinkSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        let watermarks = options.opt_bool("watermarks")?.unwrap_or(false);
        let sink = match options.opt_str("path")? {
            Some(path) => ChangelogSink::to_file(path)?,
            None => {
                let (buffer, sink) = ChangelogSink::in_memory();
                exports.put(buffer);
                sink
            }
        };
        Ok(Box::new(if watermarks {
            sink.with_watermarks()
        } else {
            sink
        }))
    }
}

/// In-memory channel sink; exports the
/// `crossbeam::channel::Receiver<SinkEvent>` handle.
struct ChannelSinkConnector;

impl SinkConnector for ChannelSinkConnector {
    fn declare(&self, _spec: &SinkSpec, options: &mut OptionBag) -> Result<()> {
        options.opt_u64("capacity")?;
        Ok(())
    }

    fn build(
        &self,
        _spec: &SinkSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        let capacity = options.opt_u64("capacity")?.unwrap_or(64) as usize;
        let (sink, receiver) = channel_sink(capacity);
        exports.put(receiver);
        Ok(Box::new(sink))
    }
}

/// Ships the pipeline's output changelog to a downstream consumer's net
/// source.
struct NetSinkConnector;

impl NetSinkConnector {
    fn parse(options: &mut OptionBag) -> Result<(NetAddr, String, usize, NetConfig)> {
        let context = options.context().to_string();
        let addr = parse_addr(&context, &options.require_str("addr")?)?;
        let stream = options.require_str("stream")?;
        let partition = options.opt_u64("partition")?.unwrap_or(0) as usize;
        let config = net_sink_config(options)?;
        Ok((addr, stream, partition, config))
    }
}

impl SinkConnector for NetSinkConnector {
    fn declare(&self, _spec: &SinkSpec, options: &mut OptionBag) -> Result<()> {
        Self::parse(options).map(|_| ())
    }

    fn build(
        &self,
        _spec: &SinkSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        let (addr, stream, partition, config) = Self::parse(options)?;
        Ok(Box::new(NetSink::connect(addr, stream, partition, config)))
    }
}
