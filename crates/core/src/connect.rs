//! The connector boundary: pluggable [`Source`]s / [`Sink`]s, the
//! partition adapter, and the accounting the
//! [`PipelineDriver`](crate::driver::PipelineDriver) keeps while pumping
//! them through a running query.
//!
//! The paper's engines (§7–§8, Appendix B) consume time-varying relations
//! from external connectors — Kafka topics, file sets — and materialize
//! results back out through sinks. This module is the single-process
//! version of that boundary layer:
//!
//! - A [`Source`] produces **batches** of `(ptime, change)` events for one
//!   or more named streams, each batch optionally carrying a watermark
//!   assertion, and reports a [`SourceStatus`] (ready / idle / finished)
//!   the driver uses for backpressure-aware scheduling.
//! - A [`Sink`] consumes the query's output changelog, rendered as
//!   [`StreamRow`]s (Extension 4's `undo` / `ptime` / `ver` encoding), plus
//!   output-watermark notifications.
//! - The [`PipelineDriver`](crate::driver::PipelineDriver) treats every
//!   source as a [`PartitionedSource`] (a plain [`Source`] is a one-part
//!   [`PartitionedVec`]), round-robins over the partitions, propagates
//!   **monotone** per-stream watermarks (the min over all partitions
//!   feeding a stream, delivered only when it advances), and accounts
//!   everything in [`PipelineMetrics`].
//!
//! Concrete connectors (CSV / JSON-lines files, in-memory channels, the
//! NEXMark generator, network endpoints, changelog renderers) live in the
//! `onesql-connect` crate; this module holds only the traits, so the
//! driver can name them without a dependency cycle.
//!
//! A source is just a type that hands the driver batches: the example in
//! [`crate::driver`] implements one and runs it through a query end to end.

use std::collections::BTreeMap;

use onesql_exec::StreamRow;
use onesql_time::{Watermark, WatermarkTracker};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{Error, Result, Ts, Value};

use crate::observe::{Histogram, MetricRow};

pub mod registry;

pub use registry::{
    ConnectorRegistry, Exports, OptionBag, SinkConnector, SinkSpec, SourceConnector, SourceSpec,
};

/// What a source reports after a poll; drives the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceStatus {
    /// The source holds a backlog: the next poll returns more without
    /// waiting for anyone (a file with bytes left, a seeded generator, the
    /// buffered remainder of a poll that `max_events` cut short). This is
    /// a promise, not a guess. A threaded driver whose every partition
    /// answered `Ready` with events leaves the round's output unwritten
    /// until it has polled again, so a source that answers `Ready` and then
    /// waits for input withholds that output for as long as it waits.
    Ready,
    /// Nothing more right now, but the source is not done: whatever events
    /// the batch carries drained it, and the next poll depends on someone
    /// else (a channel's producers, a socket's peer). What a live source
    /// answers unless it can prove a backlog.
    #[default]
    Idle,
    /// The source will never produce again; its streams get final
    /// watermarks once every source feeding them has finished.
    Finished,
}

/// One event from a source: a change to one of its declared streams at a
/// processing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEvent {
    /// Index into the source's [`Source::streams`] list.
    pub stream: usize,
    /// Processing time of arrival. The driver clamps these to be monotone
    /// across all sources (the executor's clock may not regress).
    pub ptime: Ts,
    /// The row change (insert, retract, or weighted).
    pub change: Change,
}

/// A batch of events plus optional progress information.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceBatch {
    /// The events, in the source's processing-time order.
    pub events: Vec<SourceEvent>,
    /// If set, asserts that all future events from this source have event
    /// timestamps strictly greater than this value (for every stream the
    /// source feeds).
    pub watermark: Option<Ts>,
    /// Scheduling hint for the driver.
    pub status: SourceStatus,
    /// Causal trace context: the producer-side span ID these events were
    /// emitted under (carried across the OSQW wire by the `net` source),
    /// or `None` for local sources. The driver parents its ingest span
    /// here, stitching producer and consumer pipelines into one trace.
    pub trace_parent: Option<u64>,
}

impl SourceBatch {
    /// An empty batch with the given status.
    pub fn empty(status: SourceStatus) -> SourceBatch {
        SourceBatch {
            events: Vec::new(),
            watermark: None,
            status,
            trace_parent: None,
        }
    }
}

/// A columnar batch of changes for one stream, plus the same progress
/// information a [`SourceBatch`] carries. The columnar analog of
/// [`SourceBatch`] for sources that parse input directly into columns
/// (e.g. chunked CSV), skipping per-row materialization entirely.
///
/// Ptimes must be monotone non-decreasing within the batch (clamp to a
/// running max while building); the driver applies its global clock
/// clamp on top via [`ChangeBatch::clamp_ptimes`].
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    /// Index into the source's [`Source::streams`] list.
    pub stream: usize,
    /// The changes, already columnar.
    pub columns: ChangeBatch,
    /// Same meaning as [`SourceBatch::watermark`].
    pub watermark: Option<Ts>,
    /// Same meaning as [`SourceBatch::status`].
    pub status: SourceStatus,
}

/// A pluggable input connector.
pub trait Source {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// The engine stream names this source feeds. [`SourceEvent::stream`]
    /// indexes into this list. Most sources feed exactly one stream; the
    /// NEXMark source feeds three.
    fn streams(&self) -> &[String];

    /// Produce up to `max_events` events. Must not block; a source with
    /// nothing buffered returns an empty batch with status
    /// [`SourceStatus::Idle`] (or `Finished`), and one whose batch emptied
    /// its buffer answers `Idle` with the events.
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch>;

    /// Columnar poll: sources that can produce changes already in
    /// columnar form override this to return `Some`, and a one-worker
    /// driver feeds the batch straight into the vectorized executor path
    /// without materializing rows. `None` (the default) means "use
    /// [`Source::poll_batch`]". A vectorizing driver calls this *instead
    /// of* `poll_batch` each round, so an override must carry the same
    /// watermark/status progress a row batch would; a driver with
    /// vectorization disabled never calls it.
    fn poll_columns(&mut self, _max_events: usize) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }

    /// Whether a freshly constructed instance re-emits the same events in
    /// the same order (files, seeded generators — the default). A source
    /// whose history is gone once polled (an in-memory channel, a live
    /// socket, a telemetry feed) returns `false`, and [`PartitionedVec`]
    /// then refuses to seek it anywhere but its current offset instead of
    /// polling the live input and discarding events that exist nowhere
    /// else.
    fn replayable(&self) -> bool {
        true
    }
}

impl<S: Source + ?Sized> Source for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn streams(&self) -> &[String] {
        (**self).streams()
    }
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        (**self).poll_batch(max_events)
    }
    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        (**self).poll_columns(max_events)
    }
    fn replayable(&self) -> bool {
        (**self).replayable()
    }
}

/// A Kafka-style input connector: N ordered partitions, each with a
/// replayable offset and its own watermark progress.
///
/// Partitions are the unit of parallel ingestion *and* of recovery: the
/// driver polls them independently, combines their watermarks as the min
/// (the way [`WatermarkTracker`] combines ports), and records one offset
/// per partition in a [`crate::driver::PipelineCheckpoint`] so a killed
/// pipeline can seek back and resume exactly-once.
///
/// Offsets count events: the offset of a partition is the number of events
/// it has emitted so far, and [`PartitionedSource::seek`] repositions so
/// the next event emitted is the `offset`-th. Only a replayable source
/// ([`Source::replayable`]) can honor a seek, which is why
/// [`PartitionedVec`] rejects time travel over one that is not.
pub trait PartitionedSource {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// The engine stream names this source feeds; [`SourceEvent::stream`]
    /// indexes into this list (shared by all partitions).
    fn streams(&self) -> &[String];

    /// Number of partitions; fixed for the life of the source.
    fn partitions(&self) -> usize;

    /// Produce up to `max_events` events from one partition. Must not
    /// block; semantics otherwise match [`Source::poll_batch`], applied
    /// per partition (a partition's events are in its own processing-time
    /// order, its watermark asserts only its own future events).
    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch>;

    /// Columnar poll of one partition, with [`Source::poll_columns`]'s
    /// contract: `Some` replaces that round's [`poll_partition`] and must
    /// advance [`offset`] by the rows it carries; `None` (the default)
    /// means "use `poll_partition`".
    ///
    /// [`poll_partition`]: PartitionedSource::poll_partition
    /// [`offset`]: PartitionedSource::offset
    fn poll_partition_columns(
        &mut self,
        _partition: usize,
        _max_events: usize,
    ) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }

    /// The partition's replayable position: events emitted so far.
    fn offset(&self, partition: usize) -> u64;

    /// Reposition `partition` so the next event emitted is the `offset`-th.
    ///
    /// The default implementation replays via [`replay_seek`]: it polls
    /// the partition and discards events until the offset is reached,
    /// which is correct for any freshly constructed replayable source.
    /// Seeking backwards from the current position errors.
    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        replay_seek(self, partition, offset)
    }

    /// The offset-acknowledge half of the checkpoint handshake: the driver
    /// durably recorded `offset` as `partition`'s resume position, so the
    /// source may release any replay resources held for earlier events.
    ///
    /// Local sources replay from their own backing data (files, seeded
    /// generators) and ignore acks — the default is a no-op. A source
    /// whose upstream lives in **another process** forwards the ack over
    /// the wire so the remote producer can trim its bounded replay spool;
    /// everything the producer still holds is exactly what a
    /// [`crate::driver::PipelineCheckpoint`] restore could ask it to
    /// re-send. The driver calls this from
    /// [`crate::driver::PipelineDriver::ack_checkpoint`] (invoked
    /// by the caller once a checkpoint is durably stored — never before,
    /// or a crash could strand every restorable state) and once more
    /// when the pipeline finishes.
    fn ack(&mut self, _partition: usize, _offset: u64) -> Result<()> {
        Ok(())
    }
}

/// Seek a partition forward by replaying: poll and discard events until
/// `offset` is reached. This is [`PartitionedSource::seek`]'s default
/// body, exposed so adapters that override `seek` (e.g. to refuse
/// non-replayable time travel, or to replay only conditionally) can still
/// fall back to it.
///
/// Correct for any freshly constructed replayable source. Seeking
/// backwards from the current position errors, as does exhausting the
/// partition before the target offset.
pub fn replay_seek<S: PartitionedSource + ?Sized>(
    source: &mut S,
    partition: usize,
    offset: u64,
) -> Result<()> {
    let at = source.offset(partition);
    if offset < at {
        return Err(Error::exec(format!(
            "source '{}' partition {partition}: cannot seek backwards \
             (at offset {at}, asked for {offset})",
            source.name()
        )));
    }
    let mut remaining = offset - at;
    while remaining > 0 {
        let batch = source.poll_partition(partition, remaining.min(4096) as usize)?;
        let n = batch.events.len() as u64;
        if n == 0 {
            return Err(Error::exec(format!(
                "source '{}' partition {partition}: exhausted at offset {} \
                 while seeking to {offset}",
                source.name(),
                offset - remaining
            )));
        }
        if n > remaining {
            // A poll must not over-deliver; past this point the source
            // has been dragged beyond the target offset.
            return Err(Error::exec(format!(
                "source '{}' partition {partition}: poll returned {n} events \
                 when at most {remaining} were requested; seek overshot {offset}",
                source.name()
            )));
        }
        remaining -= n;
    }
    Ok(())
}

/// Folds N ≥ 1 independent per-partition [`Source`]s into one
/// [`PartitionedSource`]: the one way a [`Source`] reaches the driver,
/// owning the `Vec<inner>` + per-partition offset bookkeeping.
///
/// The file, channel, NEXMark, and network connector families all have the
/// same shape — partition `p` is a self-contained source (one file, one
/// channel shard, one seeded generator, one accepted connection) — and a
/// plain source is the N = 1 case ([`PartitionedVec::single`]). They differ
/// only in how (whether) a partition can be repositioned, which each part
/// declares itself through [`Source::replayable`]:
///
/// - **Replayable** parts (files, generators) seek via [`replay_seek`].
/// - **Non-replayable** parts (in-memory channels, live sockets): any seek
///   away from the current offset errors instead of silently dropping
///   events.
/// - **Custom** repositioning (the network source's resume handshake):
///   wrap `PartitionedVec` and override [`WrapsPartitioned::seek_parts`] /
///   [`WrapsPartitioned::ack_parts`], keeping the offset books straight
///   with [`PartitionedVec::set_offset`].
///
/// Every inner must declare the same stream list; the adapter exposes it
/// once for all partitions.
pub struct PartitionedVec<S: Source> {
    name: String,
    streams: Vec<String>,
    parts: Vec<S>,
    offsets: Vec<u64>,
}

impl<S: Source> PartitionedVec<S> {
    /// Adapt `parts` (one inner source per partition, all feeding the same
    /// streams) under the connector instance name `name`. Errors when
    /// `parts` is empty or the inners disagree on their stream lists.
    pub fn new(name: impl Into<String>, parts: Vec<S>) -> Result<PartitionedVec<S>> {
        let name = name.into();
        let Some(first) = parts.first() else {
            return Err(Error::plan(format!(
                "partitioned source '{name}' needs at least one partition"
            )));
        };
        let streams = first.streams().to_vec();
        for (p, part) in parts.iter().enumerate() {
            if part.streams() != streams.as_slice() {
                return Err(Error::plan(format!(
                    "partitioned source '{name}': partition {p} declares streams \
                     {:?}, partition 0 declares {streams:?}",
                    part.streams()
                )));
            }
        }
        Ok(PartitionedVec {
            name,
            streams,
            offsets: vec![0; parts.len()],
            parts,
        })
    }

    /// [`PartitionedVec::new`], except that a lone part keeps its own name
    /// ([`PartitionedVec::single`]): a connector that builds N ≥ 1 parts
    /// names its one-partition case as the plain source, not `name`.
    pub fn folded(name: impl Into<String>, mut parts: Vec<S>) -> Result<PartitionedVec<S>> {
        if parts.len() == 1 {
            return Ok(PartitionedVec::single(parts.remove(0)));
        }
        PartitionedVec::new(name, parts)
    }

    /// A plain source as a one-partition source under its own name.
    pub fn single(part: S) -> PartitionedVec<S> {
        PartitionedVec {
            name: part.name().to_string(),
            streams: part.streams().to_vec(),
            offsets: vec![0],
            parts: vec![part],
        }
    }

    /// Overwrite partition `p`'s recorded offset. Only for wrappers whose
    /// custom [`PartitionedSource::seek`] repositions the inner source by
    /// means the adapter cannot observe (e.g. a network resume handshake);
    /// the books must always equal the number of events the partition will
    /// have emitted before its next one.
    pub fn set_offset(&mut self, p: usize, offset: u64) {
        self.offsets[p] = offset;
    }

    /// A typed error — not an index panic — for a partition the source
    /// does not have.
    fn check_partition(&self, partition: usize) -> Result<()> {
        if partition < self.parts.len() {
            return Ok(());
        }
        Err(Error::exec(format!(
            "source '{}' has {} partition(s); partition {partition} does not exist",
            self.name,
            self.parts.len()
        )))
    }
}

impl<S: Source> PartitionedSource for PartitionedVec<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn partitions(&self) -> usize {
        self.parts.len()
    }

    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        self.check_partition(partition)?;
        let batch = self.parts[partition].poll_batch(max_events)?;
        self.offsets[partition] += batch.events.len() as u64;
        Ok(batch)
    }

    fn poll_partition_columns(
        &mut self,
        partition: usize,
        max_events: usize,
    ) -> Result<Option<ColumnarBatch>> {
        self.check_partition(partition)?;
        let batch = self.parts[partition].poll_columns(max_events)?;
        if let Some(batch) = &batch {
            self.offsets[partition] += batch.columns.len() as u64;
        }
        Ok(batch)
    }

    /// Events polled so far, by rows or by columns. `offset` cannot
    /// return an error, so a partition that does not exist panics — in
    /// release builds too — rather than answer for another one.
    fn offset(&self, partition: usize) -> u64 {
        self.offsets[partition]
    }

    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.check_partition(partition)?;
        if self.parts[partition].replayable() {
            return replay_seek(self, partition, offset);
        }
        if offset == self.offsets[partition] {
            return Ok(());
        }
        Err(Error::exec(format!(
            "{}: partition {partition} is not replayable (at offset {}, \
             asked for {offset}); resume requires a replayable source",
            self.name, self.offsets[partition]
        )))
    }
}

/// A connector type that *is* a [`PartitionedVec`] plus a constructor or
/// some side state (`PartitionedFileSource`, `PartitionedNetSource`, ...).
/// Exposing the inner adapter makes it a [`PartitionedSource`]: the one
/// blanket impl below forwards every method, so a wrapper cannot lose one
/// (the columnar poll, the ack) by hand-copying the list.
pub trait WrapsPartitioned {
    /// The wrapped adapter.
    fn parts(&self) -> &dyn PartitionedSource;

    /// The wrapped adapter, mutably.
    fn parts_mut(&mut self) -> &mut dyn PartitionedSource;

    /// What [`PartitionedSource::seek`] does; override for repositioning
    /// the adapter cannot perform itself (a network resume handshake).
    fn seek_parts(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.parts_mut().seek(partition, offset)
    }

    /// What [`PartitionedSource::ack`] does; override to forward the
    /// acknowledgement upstream.
    fn ack_parts(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.parts_mut().ack(partition, offset)
    }
}

impl<W: WrapsPartitioned> PartitionedSource for W {
    fn name(&self) -> &str {
        self.parts().name()
    }

    fn streams(&self) -> &[String] {
        self.parts().streams()
    }

    fn partitions(&self) -> usize {
        self.parts().partitions()
    }

    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        self.parts_mut().poll_partition(partition, max_events)
    }

    fn poll_partition_columns(
        &mut self,
        partition: usize,
        max_events: usize,
    ) -> Result<Option<ColumnarBatch>> {
        self.parts_mut()
            .poll_partition_columns(partition, max_events)
    }

    fn offset(&self, partition: usize) -> u64 {
        self.parts().offset(partition)
    }

    fn seek(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.seek_parts(partition, offset)
    }

    fn ack(&mut self, partition: usize, offset: u64) -> Result<()> {
        self.ack_parts(partition, offset)
    }
}

/// A pluggable output connector. Receives the query's output changelog as
/// [`StreamRow`]s: data columns plus `undo` / `ptime` / `ver` metadata.
pub trait Sink {
    /// Connector instance name (for metrics and errors).
    fn name(&self) -> &str;

    /// Called once at attach time with the query's output schema (e.g. to
    /// write a CSV header or learn JSON field names). Default: ignore.
    fn bind(&mut self, _schema: onesql_types::SchemaRef) -> Result<()> {
        Ok(())
    }

    /// Consume a slice of newly materialized output rows.
    fn write(&mut self, rows: &[StreamRow]) -> Result<()>;

    /// The query's output watermark advanced. Default: ignore.
    fn on_watermark(&mut self, _wm: Watermark) -> Result<()> {
        Ok(())
    }

    /// A checkpoint barrier passed: everything written so far belongs to
    /// `epoch`. Transactional sinks durably stage the association *now*
    /// (before the checkpoint itself is persisted), so a restore of
    /// `epoch` can later discard exactly the bytes written after it.
    /// Default: ignore — non-transactional sinks need no two-phase story.
    fn on_checkpoint(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// Checkpoint `epoch` is durable (the second phase, driven by
    /// `ack_checkpoint`): the sink may mark the staged rows committed and
    /// release resources held for older epochs. Default: ignore.
    fn commit_checkpoint(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// The pipeline is being restored from checkpoint `epoch` in a fresh
    /// process: discard any staged output written after that epoch (the
    /// replay will regenerate it), positioning the sink exactly where the
    /// uninterrupted run had it. Default: ignore.
    fn on_restore(&mut self, _epoch: u64) -> Result<()> {
        Ok(())
    }

    /// The pipeline finished; flush buffers. Default: nothing.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Bounds for adaptive batch sizing (backpressure beyond polling): the
/// driver shrinks its per-poll batches while its merge buffer backs up and
/// grows them while the merge keeps up, instead of buffering unboundedly
/// behind a fixed poll size.
///
/// The signal is the depth of the driver's merge buffer — worker output
/// the deterministic merge has not yet been able to release to sinks. It
/// measures real queued work in entries of real memory, unlike watermark
/// lag, which under barrier-per-round scheduling mostly encodes the
/// query's structural event-time offset (gates, `EMIT AFTER DELAY`). The
/// controller only modulates poll size within hard bounds; it never
/// affects results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Batches never shrink below this (progress is always possible).
    pub min_batch: usize,
    /// Batches never grow beyond this (bounds per-round latency).
    pub max_batch: usize,
}

impl Default for AdaptiveBatch {
    fn default() -> AdaptiveBatch {
        AdaptiveBatch {
            min_batch: 32,
            max_batch: 4096,
        }
    }
}

/// Pipeline tuning: the worker set and the polling knobs.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Events requested from a source per poll; the *initial* size when
    /// [`DriverConfig::adaptive`] is set.
    pub batch_size: usize,
    /// Give up after this many consecutive all-idle rounds in
    /// [`PipelineDriver::run`](crate::driver::PipelineDriver::run) (`None`:
    /// yield and keep spinning, for channel sources fed by other threads).
    pub max_idle_rounds: Option<u64>,
    /// Adaptive batch sizing from merge-buffer depth; `None` pins
    /// [`DriverConfig::batch_size`] for the whole run.
    pub adaptive: Option<AdaptiveBatch>,
    /// Feed consecutive same-stream events as columnar [`ChangeBatch`]es
    /// where each worker's query can take them so (the vectorized hot
    /// path). Results are byte-identical either way; disable to force the
    /// per-row oracle (e.g. for A/B benchmarking): polls stay rows and
    /// every worker's query feeds one change at a time.
    pub vectorize: bool,
    /// Number of workers (= operator state shards). One worker runs inline
    /// on the driver's thread; more run on a thread each.
    pub workers: usize,
    /// Which input column is the partition key, for every stream (the
    /// caller must pick a column consistent with the query's grouping /
    /// join keys — the partition-alignment property). Unused with one
    /// worker.
    pub partition_col: usize,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            batch_size: 256,
            max_idle_rounds: None,
            adaptive: Some(AdaptiveBatch::default()),
            vectorize: true,
            workers: 1,
            partition_col: 0,
        }
    }
}

/// The adaptive batch-size controller, isolated from the driver so its
/// policy is unit-testable: one [`BatchController::observe_load`] per
/// scheduling round with the merge buffer's depth.
///
/// Policy: multiplicative decrease when the depth reaches
/// [`HIGH_PENDING`] (halve, floored at `min_batch`), multiplicative
/// increase while it stays within [`LOW_PENDING`] (double, capped at
/// `max_batch`), hold in between. The configured initial size is honored
/// as-is; bounds apply to adjustments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchController {
    size: usize,
    policy: Option<AdaptiveBatch>,
}

impl BatchController {
    /// A controller starting from the config's batch size.
    pub fn new(config: &DriverConfig) -> BatchController {
        BatchController {
            size: config.batch_size.max(1),
            policy: config.adaptive,
        }
    }

    /// The batch size to use for the next poll.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Force the current size (used when restoring a checkpoint, so a
    /// resumed pipeline polls exactly as the uninterrupted run would).
    pub fn set_size(&mut self, size: usize) {
        self.size = size.max(1);
    }

    /// Feed one round's merge-buffer depth; returns the (possibly
    /// adjusted) size for the next round.
    ///
    /// The thresholds are **absolute** ([`HIGH_PENDING`] / [`LOW_PENDING`]
    /// entries), deliberately not ratios of the current batch size: the
    /// buffer's steady-state content — the clock-tie cohort the
    /// deterministic merge must hold back every round — itself grows with
    /// the batch size, so a relative threshold would cancel out and never
    /// move. Absolute bounds make the controller an AIMD loop on in-flight
    /// merge memory: grow while the buffer stays small, back off when it
    /// crosses the bound (deep hold-back, stalled clock), whatever the
    /// reason.
    pub fn observe_load(&mut self, pending: usize) -> usize {
        let Some(policy) = self.policy else {
            return self.size;
        };
        if pending >= HIGH_PENDING {
            self.size = (self.size / 2).max(policy.min_batch).max(1);
        } else if pending <= LOW_PENDING {
            self.size = (self.size * 2).min(policy.max_batch.max(1));
        }
        self.size
    }
}

/// Merge-buffer depth (entries) at or above which the batch size halves.
pub const HIGH_PENDING: usize = 32_768;
/// Merge-buffer depth at or below which the batch size doubles.
pub const LOW_PENDING: usize = 4_096;

/// Per-source accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMetrics {
    /// Connector instance name.
    pub name: String,
    /// Events fed into the query from this source.
    pub events: u64,
    /// Estimated payload bytes fed from this source (see
    /// [`change_bytes`]).
    pub bytes: u64,
    /// Polls that returned at least one event.
    pub non_empty_polls: u64,
    /// The source's current watermark assertion.
    pub watermark: Watermark,
    /// Whether the source has finished.
    pub finished: bool,
}

/// Estimated payload size of one change, in bytes: 8 per fixed-width value
/// (int, float, timestamp, interval), 1 per null/bool, string length for
/// strings. A stable, cheap estimator — not a wire format — so byte
/// counters mean the same thing on every connector and survive checkpoints
/// deterministically.
pub fn change_bytes(change: &Change) -> u64 {
    change
        .row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null | Value::Bool(_) => 1u64,
            Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 8,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Pipeline-wide accounting, readable at any time via
/// [`PipelineDriver::metrics`](crate::driver::PipelineDriver::metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Total events fed into the query.
    pub events_in: u64,
    /// Total output rows delivered to sinks.
    pub events_out: u64,
    /// Estimated payload bytes fed into the query (sum over sources).
    pub bytes_in: u64,
    /// Watermark deliveries into the query.
    pub watermarks_in: u64,
    /// Completed scheduling rounds.
    pub rounds: u64,
    /// Rounds in which no source produced anything.
    pub idle_rounds: u64,
    /// Rounds in which some worker fed at least one columnar batch (the
    /// vectorized path), as the workers report at the drain barrier.
    pub vectorized_rounds: u64,
    /// Rounds in which some worker's query took at least one run per row
    /// (the stream does not vectorize, or the run is a single event or of
    /// mixed arity; see `RunningQuery::vectorizes`). Events of a stream the
    /// plan does not read are no feed and count in neither.
    pub fallback_rounds: u64,
    /// Rows per batch handed to a worker.
    pub batch_rows: Histogram,
    /// The batch size the adaptive controller chose for the next poll.
    pub batch_size: usize,
    /// Depth of the deterministic-merge hold-back buffer after the round.
    pub pending_depth: u64,
    /// Wall-clock per scheduling round, in microseconds.
    pub round_micros: Histogram,
    /// Wall-clock spent polling sources per round, in microseconds.
    pub poll_micros: Histogram,
    /// Wall-clock spent in the drain barrier and deterministic merge of
    /// worker output per round, in microseconds.
    pub merge_micros: Histogram,
    /// Wall-clock per output render+deliver drain, in microseconds.
    pub emit_micros: Histogram,
    /// Durable checkpoints persisted by this incarnation.
    pub checkpoints: u64,
    /// Epoch of the most recent durable checkpoint (0 before any).
    pub checkpoint_epoch: u64,
    /// Wall-clock per durable checkpoint persist, in microseconds.
    pub checkpoint_persist_micros: Histogram,
    /// Times this incarnation was restored from a checkpoint (0 or 1).
    pub restores: u64,
    /// Per-source breakdown, in attach order.
    pub sources: Vec<SourceMetrics>,
    /// The min over all live sources' watermarks (what the slowest input
    /// asserts about event-time progress).
    pub input_watermark: Watermark,
    /// The query's output watermark.
    pub output_watermark: Watermark,
    /// Per-stream watermark provenance: which feeder holds each stream's
    /// minimum watermark and when it last produced (why the watermark is
    /// where it is). Refreshed with the watermark fields.
    pub watermark_provenance: Vec<WatermarkProvenance>,
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics {
            events_in: 0,
            events_out: 0,
            bytes_in: 0,
            watermarks_in: 0,
            rounds: 0,
            idle_rounds: 0,
            vectorized_rounds: 0,
            fallback_rounds: 0,
            batch_rows: Histogram::new(),
            batch_size: 0,
            pending_depth: 0,
            round_micros: Histogram::new(),
            poll_micros: Histogram::new(),
            merge_micros: Histogram::new(),
            emit_micros: Histogram::new(),
            checkpoints: 0,
            checkpoint_epoch: 0,
            checkpoint_persist_micros: Histogram::new(),
            restores: 0,
            sources: Vec::new(),
            input_watermark: Watermark::MIN,
            output_watermark: Watermark::MIN,
            watermark_provenance: Vec::new(),
        }
    }
}

impl PipelineMetrics {
    /// Event-time distance between the slowest input's watermark and the
    /// output watermark: how far materialization trails ingestion. `None`
    /// until both watermarks carry real timestamps.
    pub fn watermark_lag(&self) -> Option<onesql_types::Duration> {
        if self.input_watermark == Watermark::MIN || self.output_watermark == Watermark::MIN {
            return None;
        }
        Some(self.input_watermark.ts() - self.output_watermark.ts())
    }

    /// Render these metrics as stable `(name, kind, value)` rows — the one
    /// vocabulary shared by `SHOW PIPELINES`, `EXPLAIN ANALYZE`, and the
    /// `metrics` source connector, so the surfaces can never drift.
    ///
    /// Conventions: durations are microseconds; watermarks are epoch millis
    /// (`i64::MIN` while still [`Watermark::MIN`]); `watermark_lag_ms` is
    /// -1 until both watermarks carry real timestamps. Histograms render as
    /// four rows each: `<name>_count`, `<name>_p50`, `<name>_p99`,
    /// `<name>_max`. Per-source rows are `source.<name>.rows` / `.bytes`
    /// counters and `.watermark_ms` / `.finished` gauges, in attach order.
    pub fn render_rows(&self) -> Vec<MetricRow> {
        fn wm_millis(wm: Watermark) -> i64 {
            if wm == Watermark::MIN {
                i64::MIN
            } else {
                wm.ts().millis()
            }
        }
        fn histogram(rows: &mut Vec<MetricRow>, name: &str, h: &Histogram) {
            rows.push(MetricRow::counter(format!("{name}_count"), h.count()));
            rows.push(MetricRow::gauge(
                format!("{name}_p50"),
                h.p50().min(i64::MAX as u64) as i64,
            ));
            rows.push(MetricRow::gauge(
                format!("{name}_p99"),
                h.p99().min(i64::MAX as u64) as i64,
            ));
            rows.push(MetricRow::gauge(
                format!("{name}_max"),
                h.max().min(i64::MAX as u64) as i64,
            ));
        }

        let mut rows = vec![
            MetricRow::counter("events_in", self.events_in),
            MetricRow::counter("events_out", self.events_out),
            MetricRow::counter("bytes_in", self.bytes_in),
            MetricRow::counter("watermarks_in", self.watermarks_in),
            MetricRow::counter("rounds", self.rounds),
            MetricRow::counter("idle_rounds", self.idle_rounds),
            MetricRow::counter("vectorized_rounds", self.vectorized_rounds),
            MetricRow::counter("fallback_rounds", self.fallback_rounds),
            MetricRow::gauge("batch_size", self.batch_size.min(i64::MAX as usize) as i64),
            MetricRow::gauge(
                "pending_depth",
                self.pending_depth.min(i64::MAX as u64) as i64,
            ),
            MetricRow::gauge("input_watermark_ms", wm_millis(self.input_watermark)),
            MetricRow::gauge("output_watermark_ms", wm_millis(self.output_watermark)),
            MetricRow::gauge(
                "watermark_lag_ms",
                self.watermark_lag().map_or(-1, |d| d.millis()),
            ),
        ];
        histogram(&mut rows, "batch_rows", &self.batch_rows);
        histogram(&mut rows, "round_micros", &self.round_micros);
        histogram(&mut rows, "poll_micros", &self.poll_micros);
        histogram(&mut rows, "merge_micros", &self.merge_micros);
        histogram(&mut rows, "emit_micros", &self.emit_micros);
        rows.push(MetricRow::counter("checkpoints", self.checkpoints));
        rows.push(MetricRow::gauge(
            "checkpoint_epoch",
            self.checkpoint_epoch.min(i64::MAX as u64) as i64,
        ));
        histogram(
            &mut rows,
            "checkpoint_persist_micros",
            &self.checkpoint_persist_micros,
        );
        rows.push(MetricRow::counter("restores", self.restores));
        for src in &self.sources {
            rows.push(MetricRow::counter(
                format!("source.{}.rows", src.name),
                src.events,
            ));
            rows.push(MetricRow::counter(
                format!("source.{}.bytes", src.name),
                src.bytes,
            ));
            rows.push(MetricRow::gauge(
                format!("source.{}.watermark_ms", src.name),
                wm_millis(src.watermark),
            ));
            rows.push(MetricRow::gauge(
                format!("source.{}.finished", src.name),
                i64::from(src.finished),
            ));
        }
        for p in &self.watermark_provenance {
            rows.push(MetricRow::gauge(
                format!("wm.{}.holder.{}.watermark_ms", p.stream, p.holder),
                wm_millis(p.holder_watermark),
            ));
            rows.push(MetricRow::gauge(
                format!("wm.{}.holder.{}.last_event_ms", p.stream, p.holder),
                p.holder_last_event.map_or(i64::MIN, |t| t.millis()),
            ));
        }
        rows
    }
}

/// Why a stream's watermark is where it is: the feeder (a source, or one
/// source partition) currently holding the minimum, and when it last
/// produced an event — the answer to "why is my watermark stuck".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatermarkProvenance {
    /// Lowercased stream name.
    pub stream: String,
    /// The stream's combined (min over feeders) watermark.
    pub watermark: Watermark,
    /// Label of the feeder holding the minimum, e.g. `bids` or `bids[2]`
    /// (source name, with the partition index for partitioned sources).
    pub holder: String,
    /// The holding feeder's current watermark.
    pub holder_watermark: Watermark,
    /// Processing time of the last event the holder produced, or `None`
    /// if it has produced nothing yet.
    pub holder_last_event: Option<Ts>,
}

/// Combines per-feeder watermarks into per-stream deliveries, the way
/// [`WatermarkTracker`] combines operator ports: a stream's watermark is
/// the min over all feeders (sources, or source partitions) feeding it,
/// delivered only when it advances.
///
/// Beyond combining, the ledger keeps *provenance*: which feeder holds
/// each stream's minimum and when that feeder last produced an event
/// ([`WatermarkLedger::provenance`]).
pub(crate) struct WatermarkLedger {
    /// Current watermark per feeder; a finished feeder sits at MAX.
    feeders: Vec<Watermark>,
    /// Human-readable feeder labels, parallel to `feeders`.
    labels: Vec<String>,
    /// Processing time of each feeder's most recent event, if any.
    last_events: Vec<Option<Ts>>,
    /// Per (lowercased) stream: the min-combining tracker and the feeder
    /// index behind each of its ports.
    streams: BTreeMap<String, (WatermarkTracker, Vec<usize>)>,
}

impl WatermarkLedger {
    pub(crate) fn new() -> WatermarkLedger {
        WatermarkLedger {
            feeders: Vec::new(),
            labels: Vec::new(),
            last_events: Vec::new(),
            streams: BTreeMap::new(),
        }
    }

    /// Register a feeder labelled `label` for the given (lowercased)
    /// streams; returns its index. Must be called before any `observe`.
    pub(crate) fn add_feeder(&mut self, label: impl Into<String>, streams: &[String]) -> usize {
        let idx = self.feeders.len();
        self.feeders.push(Watermark::MIN);
        self.labels.push(label.into());
        self.last_events.push(None);
        for stream in streams {
            let (tracker, ports) = self
                .streams
                .entry(stream.clone())
                .or_insert_with(|| (WatermarkTracker::new(0), Vec::new()));
            ports.push(idx);
            *tracker = WatermarkTracker::new(ports.len());
        }
        idx
    }

    /// Record a watermark observation on `feeder`, appending any per-stream
    /// advancement to `advances` as `(stream, combined)` pairs the caller
    /// must deliver.
    pub(crate) fn observe(
        &mut self,
        feeder: usize,
        wm: Watermark,
        advances: &mut Vec<(String, Watermark)>,
    ) {
        if !self.feeders[feeder].advance_to(wm) {
            return;
        }
        let wm = self.feeders[feeder];
        for (stream, (tracker, ports)) in &mut self.streams {
            // A feeder may legally back several ports of one stream (e.g.
            // a source declaring case-variants of a name): update them all,
            // or the untouched port pins the combined watermark at MIN.
            for (port, _) in ports.iter().enumerate().filter(|(_, &f)| f == feeder) {
                if let Some(combined) = tracker.observe(port, wm) {
                    advances.push((stream.clone(), combined));
                }
            }
        }
    }

    /// The feeder's current watermark.
    pub(crate) fn feeder(&self, idx: usize) -> Watermark {
        self.feeders[idx]
    }

    /// All feeder watermarks, for checkpointing.
    pub(crate) fn feeder_watermarks(&self) -> &[Watermark] {
        &self.feeders
    }

    /// The min over all feeders: what the slowest input asserts. Finished
    /// feeders sit at MAX and stop constraining.
    pub(crate) fn input_watermark(&self) -> Watermark {
        self.feeders.iter().copied().min().unwrap_or(Watermark::MIN)
    }

    /// Record that `feeder` produced an event at processing time `ts`
    /// (kept as a running max).
    pub(crate) fn note_event(&mut self, feeder: usize, ts: Ts) {
        let last = &mut self.last_events[feeder];
        *last = Some(last.map_or(ts, |prev| prev.max(ts)));
    }

    /// Per-stream watermark provenance: for each stream, which feeder
    /// currently holds the minimum (first on ties, so the answer is
    /// deterministic) and when it last produced an event.
    pub(crate) fn provenance(&self) -> Vec<WatermarkProvenance> {
        self.streams
            .iter()
            .filter_map(|(stream, (_, ports))| {
                let holder = *ports.iter().min_by_key(|&&feeder| self.feeders[feeder])?;
                let watermark = ports
                    .iter()
                    .map(|&feeder| self.feeders[feeder])
                    .min()
                    .unwrap_or(Watermark::MIN);
                Some(WatermarkProvenance {
                    stream: stream.clone(),
                    watermark,
                    holder: self.labels[holder].clone(),
                    holder_watermark: self.feeders[holder],
                    holder_last_event: self.last_events[holder],
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(initial: usize, min: usize, max: usize) -> BatchController {
        BatchController::new(&DriverConfig {
            batch_size: initial,
            adaptive: Some(AdaptiveBatch {
                min_batch: min,
                max_batch: max,
            }),
            ..DriverConfig::default()
        })
    }

    #[test]
    fn controller_shrinks_on_backlog_and_grows_when_caught_up() {
        let mut c = controller(256, 32, 4096);
        assert_eq!(c.observe_load(0), 512, "empty buffer: grow");
        assert_eq!(c.observe_load(HIGH_PENDING), 256, "at high: halve");
        assert_eq!(c.observe_load(HIGH_PENDING - 1), 256, "between: hold");
        assert_eq!(c.observe_load(LOW_PENDING), 512, "at low: grow");
    }

    #[test]
    fn depth_bounds_walk_to_the_limits() {
        let mut c = controller(256, 32, 512);
        for _ in 0..10 {
            c.observe_load(100_000);
        }
        assert_eq!(c.size(), 32, "deep backlog floors at min_batch");
        for _ in 0..10 {
            c.observe_load(0);
        }
        assert_eq!(c.size(), 512, "empty buffer caps at max_batch");
    }

    #[test]
    fn controller_fixed_when_adaptive_disabled() {
        let mut c = BatchController::new(&DriverConfig {
            batch_size: 17,
            adaptive: None,
            ..DriverConfig::default()
        });
        assert_eq!(c.observe_load(1_000_000), 17);
        assert_eq!(c.observe_load(0), 17);
    }

    #[test]
    fn controller_initial_size_not_clamped_but_adjustments_are() {
        // An explicit size below min_batch is honored until the first
        // adjustment, which snaps into bounds.
        let mut c = controller(4, 32, 4096);
        assert_eq!(c.size(), 4);
        assert_eq!(c.observe_load(HIGH_PENDING), 32);
    }

    /// A tiny scripted source for adapter tests: emits `total` rows.
    struct Scripted {
        name: String,
        streams: Vec<String>,
        emitted: i64,
        total: i64,
        replayable: bool,
    }

    impl Scripted {
        fn new(total: i64) -> Scripted {
            Scripted {
                name: "scripted".to_string(),
                streams: vec!["s".to_string()],
                emitted: 0,
                total,
                replayable: true,
            }
        }
    }

    impl Source for Scripted {
        fn name(&self) -> &str {
            &self.name
        }
        fn streams(&self) -> &[String] {
            &self.streams
        }
        fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
            let take = (max_events as i64).min(self.total - self.emitted);
            let mut batch = SourceBatch::empty(SourceStatus::Ready);
            for i in self.emitted..self.emitted + take {
                batch.events.push(SourceEvent {
                    stream: 0,
                    ptime: Ts(i),
                    change: onesql_tvr::Change::insert(onesql_types::row!(i)),
                });
            }
            self.emitted += take;
            if self.emitted == self.total {
                batch.status = SourceStatus::Finished;
            }
            Ok(batch)
        }
        fn replayable(&self) -> bool {
            self.replayable
        }
    }

    #[test]
    fn partitioned_vec_tracks_offsets_and_replays() {
        let mut pv = PartitionedVec::new("pv", vec![Scripted::new(10), Scripted::new(4)]).unwrap();
        assert_eq!(pv.partitions(), 2);
        assert_eq!(pv.streams(), &["s".to_string()]);
        pv.poll_partition(0, 3).unwrap();
        assert_eq!(pv.offset(0), 3);
        assert_eq!(pv.offset(1), 0);
        // Replayable by default: forward seek polls-and-discards.
        pv.seek(0, 7).unwrap();
        assert_eq!(pv.offset(0), 7);
        assert!(pv.seek(0, 2).is_err(), "backwards");
        assert!(pv.seek(1, 100).is_err(), "exhausts at 4");
    }

    #[test]
    fn parts_that_cannot_replay_refuse_seeks() {
        let mut live = Scripted::new(8);
        live.replayable = false;
        // Boxed, as `PipelineDriver::attach_source` wraps a plain source: the
        // verdict must survive the `Box<dyn Source>` forwarding impl.
        let mut pv = PartitionedVec::single(Box::new(live) as Box<dyn Source>);
        assert_eq!((pv.name(), pv.partitions()), ("scripted", 1));
        pv.poll_partition(0, 2).unwrap();
        assert!(pv.seek(0, 2).is_ok(), "current offset is a no-op");
        let err = pv.seek(0, 5).unwrap_err().to_string();
        assert!(
            err.contains("scripted") && err.contains("not replayable"),
            "{err}"
        );
        assert_eq!(pv.offset(0), 2, "a refused seek polls nothing");
    }

    #[test]
    fn partitioned_vec_validates_shape() {
        assert!(PartitionedVec::<Scripted>::new("pv", vec![]).is_err());
        let mut odd = Scripted::new(1);
        odd.streams = vec!["other".to_string()];
        assert!(PartitionedVec::new("pv", vec![Scripted::new(1), odd]).is_err());
    }

    #[test]
    fn single_partition_refuses_partitions_it_does_not_have() {
        let mut sp = PartitionedVec::new("x", vec![Scripted::new(4)]).unwrap();
        let refused = [
            sp.poll_partition(7, 1).map(|_| ()),
            sp.poll_partition_columns(7, 1).map(|_| ()),
            sp.seek(7, 0),
        ];
        for result in refused {
            let err = result.unwrap_err().to_string();
            assert!(err.contains("partition 7 does not exist"), "{err}");
        }
        assert_eq!(sp.offset(0), 0, "a refused call polls nothing");
        sp.poll_partition(0, 3).unwrap();
        assert_eq!(sp.offset(0), 3);
    }

    #[test]
    fn ack_defaults_to_noop() {
        let mut pv = PartitionedVec::new("pv", vec![Scripted::new(2)]).unwrap();
        pv.ack(0, 1).unwrap();
    }

    #[test]
    fn ledger_combines_per_stream_minimum() {
        let mut ledger = WatermarkLedger::new();
        let a = ledger.add_feeder("a", &["s".to_string()]);
        let b = ledger.add_feeder("b", &["s".to_string(), "t".to_string()]);
        let mut advances = Vec::new();

        // Only one feeder of "s" advanced: nothing delivered on "s", but
        // "t" (fed by b alone) advances.
        ledger.observe(b, Watermark(Ts(100)), &mut advances);
        assert_eq!(advances, vec![("t".to_string(), Watermark(Ts(100)))]);
        advances.clear();

        ledger.observe(a, Watermark(Ts(50)), &mut advances);
        assert_eq!(advances, vec![("s".to_string(), Watermark(Ts(50)))]);
        advances.clear();

        // Regression is absorbed; re-observation delivers nothing.
        ledger.observe(a, Watermark(Ts(40)), &mut advances);
        assert!(advances.is_empty());
        assert_eq!(ledger.input_watermark(), Watermark(Ts(50)));
        assert_eq!(ledger.feeder(a), Watermark(Ts(50)));
    }

    #[test]
    fn ledger_finished_feeder_stops_constraining() {
        let mut ledger = WatermarkLedger::new();
        let a = ledger.add_feeder("a", &["s".to_string()]);
        let b = ledger.add_feeder("b", &["s".to_string()]);
        let mut advances = Vec::new();
        ledger.observe(a, Watermark(Ts(10)), &mut advances);
        advances.clear();
        ledger.observe(b, Watermark::MAX, &mut advances);
        assert_eq!(advances, vec![("s".to_string(), Watermark(Ts(10)))]);
        assert_eq!(ledger.input_watermark(), Watermark(Ts(10)));
    }
}
