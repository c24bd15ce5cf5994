//! The pipeline driver: the one scheduling loop every pipeline runs on.
//!
//! A pipeline is N sources pumped through W ≥ 1 query workers into M
//! sinks, the way the paper's engines do it (Appendix B). Every source is
//! a [`PartitionedSource`] (a plain [`Source`] is a one-part
//! [`PartitionedVec`]), and one [`PipelineDriver::step`] round is always
//! the same: poll every unfinished partition, hand the round's events to
//! the workers, then the round's per-stream watermark advances, then
//! barrier, merge and emit (the emit one step later when the input is
//! saturated, see below).
//! The only thing that varies is the **worker set**, chosen from the
//! worker count alone:
//!
//! - **W = 1** runs the [`RunningQuery`] inline on the calling thread: no
//!   routing hash, no channel, no thread hop. A source that polls straight
//!   into columns ([`PartitionedSource::poll_partition_columns`]) feeds
//!   the vectorized executor path without materializing rows.
//! - **W > 1** spawns one thread per worker. Each event routes by the
//!   stable hash of its partition key ([`partition_of`]), so rows that can
//!   ever combine (same group, same join key) always meet in the same
//!   worker — the partition-alignment property.
//!
//! Workers keep no output. Every round's drain barrier moves what each
//! worker produced into the driver's per-worker FIFO queue, and the merge
//! releases the queue fronts in `(ptime, worker, arrival)` order — each
//! queue already is in ptime order, so no sort — with entries at the
//! current clock held back until the clock passes them. Released entries
//! are rendered for the sinks and appended to the one merged
//! [`PipelineDriver::changelog`]: that log *is* the result TVR, the
//! history the sinks observed, and what [`PipelineDriver::table_at`]
//! snapshots. It is a pure function of the input and never depends on
//! thread scheduling. One worker follows the same rule: the
//! hold-back (and the clock nudge that releases it when ptimes stall) is
//! part of how the clock moves, and the clock — hence every `ptime` a sink
//! sees — must not depend on the worker count. Partitions combine their
//! watermarks per stream as the min, exactly as
//! [`onesql_time::WatermarkTracker`] combines operator ports, and
//! [`PipelineDriver::checkpoint`] barriers the workers and
//! captures operator state *plus* per-partition source offsets *plus* the
//! merge/render cursors in one [`PipelineCheckpoint`]. A fresh driver over
//! fresh (replayable) sources [`PipelineDriver::restore`]s it and
//! continues as if the crash never happened: the resumed sink output
//! concatenated onto the pre-crash output is byte-identical to an
//! uninterrupted run.
//!
//! The determinism argument for the merge: the driver's clock is monotone
//! and every changelog entry a worker produces is stamped with the clock
//! value of the command that caused it. Once the clock has advanced past
//! `t`, no worker can ever produce another entry with `ptime <= t`, so
//! entries strictly below the clock can be released in their final order;
//! ties at the clock wait (a slower worker may still produce a same-`ptime`
//! entry that goes between them).
//!
//! The same argument lets the emit leave the round's critical path. With
//! worker threads and saturated input the post-gather flush is deferred:
//! the round saves its clock as the **release bound**, and the next round
//! runs poll → dispatch → *emit previous* → gather, rendering and writing
//! round N−1 while the workers compute round N. What is below a gather's
//! clock is final whenever it is released, so a step later the same entries
//! leave in the same order; the saved bound (not the newer clock) is what
//! the late flush must use, because round N may still add entries *at* that
//! bound which merge in between.
//!
//! Saturated means every partition polled this round answered
//! [`SourceStatus::Ready`] with events, and the clock advanced. `Ready` is
//! a source's promise that its next poll returns more without waiting for
//! anyone, so the poll that stands between a deferred round and its sinks
//! never waits. A channel, a socket or a telemetry feed answers `Idle`
//! with the events that drained it: live input is written in the step that
//! polled it, whatever the worker count. An idle or finished poll, a round
//! that left the clock in place (the nudge must see what is held at the
//! clock), [`PipelineDriver::checkpoint`], [`PipelineDriver::finish`] and
//! the inline W = 1 set all flush at once. Every `ptime` and `ver`, every
//! sink callback in order, the sink bytes and the checkpoint bytes are
//! therefore those of a driver that never defers; only *when* a sink hears
//! of a round moves. Mid-run, [`PipelineDriver::changelog`] and
//! `events_out` are the released prefix, and the load signal counts only
//! entries held at or past the clock.
//!
//! # Example
//!
//! Any plain [`Source`] rides the driver as a one-part [`PartitionedVec`];
//! here three bids fan out over two hash-sharded workers and the merged
//! result table comes back deterministic:
//!
//! ```
//! use onesql_core::connect::{Source, SourceBatch, SourceEvent, SourceStatus};
//! use onesql_core::{DriverConfig, Engine, PipelineDriver, StreamBuilder};
//! use onesql_tvr::Change;
//! use onesql_types::{row, DataType, Result, Ts};
//!
//! struct Bids(Vec<(i64, i64)>, Vec<String>);
//!
//! impl Source for Bids {
//!     fn name(&self) -> &str {
//!         "bids"
//!     }
//!     fn streams(&self) -> &[String] {
//!         &self.1
//!     }
//!     fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
//!         let take = max_events.min(self.0.len());
//!         let mut batch = SourceBatch::empty(SourceStatus::Ready);
//!         for (i, (auction, price)) in self.0.drain(..take).enumerate() {
//!             let ptime = Ts(i as i64);
//!             batch.events.push(SourceEvent {
//!                 stream: 0,
//!                 ptime,
//!                 change: Change::insert(row!(auction, price, ptime)),
//!             });
//!         }
//!         if self.0.is_empty() {
//!             batch.status = SourceStatus::Finished;
//!         }
//!         Ok(batch)
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.register_stream(
//!     "Bid",
//!     StreamBuilder::new()
//!         .column("auction", DataType::Int)
//!         .column("price", DataType::Int)
//!         .event_time_column("bidtime"),
//! );
//! let script = Bids(vec![(1, 3), (2, 11), (1, 7)], vec!["Bid".to_string()]);
//! let sql = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";
//! let config = DriverConfig {
//!     workers: 2,
//!     ..DriverConfig::default()
//! };
//! let mut driver = PipelineDriver::new(&engine, sql, config).unwrap();
//! driver.attach_source(Box::new(script)).unwrap();
//! driver.run().unwrap();
//! assert_eq!(
//!     driver.table().unwrap(),
//!     vec![row!(1i64, 2i64, 10i64), row!(2i64, 1i64, 11i64)],
//! );
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};

use onesql_exec::{StreamRenderer, StreamRow};
use onesql_plan::{BoundQuery, Catalog, MemoryCatalog, TableKind};
use onesql_time::Watermark;
use onesql_tvr::{Change, ChangeBatch, Changelog, TimedChange};
use onesql_types::{Error, Result, Row, SchemaRef, Ts};

use crate::connect::{
    change_bytes, BatchController, ColumnarBatch, DriverConfig, PartitionedSource, PartitionedVec,
    PipelineMetrics, Sink, Source, SourceBatch, SourceMetrics, SourceStatus, WatermarkLedger,
    WatermarkProvenance,
};
use crate::engine::Engine;
use crate::hash::partition_of;
use crate::observe::{self, Stopwatch};
use crate::query::{apply_presentation, Fed, RunningQuery};

/// A consistent snapshot of an entire pipeline: per-worker
/// operator state, per-partition source offsets, and the driver's merge /
/// render / watermark cursors. Everything needed to resume exactly-once.
///
/// Restore requires a *fresh* driver with the same SQL, worker count, and
/// source shapes, over **replayable** sources (see
/// [`PartitionedSource::seek`]).
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// Per-worker operator state, from [`RunningQuery::checkpoint`].
    pub workers: Vec<onesql_state::Checkpoint>,
    /// Per-source, per-partition replay offsets (events consumed).
    pub offsets: Vec<Vec<u64>>,
    /// Per-source, per-partition finished flags.
    pub finished: Vec<Vec<bool>>,
    /// Per-feeder (source partition) watermarks, in feeder order.
    pub feeders: Vec<Watermark>,
    /// The driver's monotone processing-time clock.
    pub clock: Ts,
    /// The adaptive controller's batch size, so a resumed pipeline polls
    /// exactly as the uninterrupted run would.
    pub batch_size: usize,
    /// Changelog entries drained from workers but still held back by the
    /// deterministic merge (ptime == clock ties), per worker in arrival
    /// order.
    pub pending: Vec<Vec<TimedChange>>,
    /// `EMIT STREAM` per-grouping version counters at the flush cursor.
    pub renderer_versions: Vec<(Row, u64)>,
    /// Output watermark already reported to sinks.
    pub sink_watermark: Watermark,
    /// Combined worker output watermark at the checkpoint barrier.
    pub output_watermark: Watermark,
    /// Rows delivered to sinks so far (metrics continuity).
    pub events_out: u64,
    /// Watermark deliveries into the workers so far (metrics continuity).
    pub watermarks_in: u64,
    /// Per-source, per-partition ingested payload bytes (same shape as
    /// `offsets`; metrics continuity — `bytes_in` and the per-source byte
    /// counters resume monotonically across incarnations).
    pub source_bytes: Vec<Vec<u64>>,
    /// Checkpoint epoch: 1 for the pipeline's first checkpoint, counting
    /// up. Transactional sinks stage output per epoch and a restore tells
    /// them which epoch's staging boundary to truncate back to.
    pub epoch: u64,
}

/// What a worker reports at a drain barrier.
struct DrainReply {
    /// Everything the worker produced since the previous drain, moved out
    /// of it.
    entries: Changelog,
    /// The worker's current output watermark.
    watermark: Watermark,
    /// Whether it fed a columnar batch since the previous drain.
    fed_batch: bool,
    /// Whether it fed any event per-row since the previous drain.
    fed_rows: bool,
}

/// One worker: a running query plus the bookkeeping that lets the driver
/// talk to it the same way inline and across a thread.
struct Shard {
    query: RunningQuery,
    /// The driver's stream table — routed events reference streams by
    /// index — with whether the plan reads each stream (the query's tree
    /// shape cannot change under the driver, so it is decided once).
    streams: Vec<(String, bool)>,
    fed_batch: bool,
    fed_rows: bool,
    /// The first failure wins; later data commands are skipped and every
    /// subsequent barrier reports it, so the driver hears about it at the
    /// next drain instead of deadlocking or panicking.
    failure: Option<Error>,
}

impl Shard {
    fn new(query: RunningQuery) -> Shard {
        Shard {
            query,
            streams: Vec::new(),
            fed_batch: false,
            fed_rows: false,
            failure: None,
        }
    }

    fn declare(&mut self, stream: String) {
        let read = !self.query.ignores(&stream);
        self.streams.push((stream, read));
    }

    fn note(&mut self, fed: Fed) {
        match fed {
            Fed::Columns => self.fed_batch = true,
            Fed::Rows => self.fed_rows = true,
        }
    }

    fn healthy(&self) -> Result<()> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// Run one data command unless an earlier one already failed.
    fn apply(&mut self, command: impl FnOnce(&mut Shard) -> Result<()>) {
        if self.failure.is_none() {
            self.failure = command(self).err();
        }
    }

    /// Feed a routed batch of `(stream index, ptime, change)` events as
    /// maximal runs of one stream's events, each of which the query takes
    /// in as columns or as rows ([`RunningQuery::vectorizes`]). Ptimes
    /// within a routed batch are monotone (the driver stamps its clamped
    /// clock), so a run satisfies [`ChangeBatch`]'s ordering. An event of a
    /// stream the plan does not read ends no run: it is checked where it
    /// stands and the run goes on past it. `trace_parent` is the driver
    /// round's span (0 = tracing off or unsampled, so an unrecorded round
    /// spawns no orphan worker tree).
    fn feed(&mut self, events: Vec<(usize, Ts, Change)>, trace_parent: u64) {
        let _span = (trace_parent != 0)
            .then(|| observe::TraceSpan::with_parent("worker.process", trace_parent));
        self.apply(|shard| {
            let mut events = events.into_iter().peekable();
            while let Some((stream, ptime, change)) = events.next() {
                let (name, read) = &shard.streams[stream];
                if !read {
                    shard.query.validate(name, &change.row)?;
                    shard.query.advance_to(ptime)?;
                    continue;
                }
                let mut run = vec![(ptime, change)];
                // What the unread events inside the run come to: the clock
                // the last valid one asks for, and the error of the first
                // invalid one, which ends it.
                let mut passed = ptime;
                let mut unread = Ok(());
                let in_run = |next: usize| next == stream || !shard.streams[next].1;
                while let Some((next, p, c)) = events.next_if(|(next, ..)| in_run(*next)) {
                    if next == stream {
                        run.push((p, c));
                        continue;
                    }
                    unread = shard.query.validate(&shard.streams[next].0, &c.row);
                    if unread.is_err() {
                        break;
                    }
                    passed = p;
                }
                let fed = shard.query.feed_run(name, run)?;
                shard.note(fed);
                // An unread event after the run's last row left the clock
                // at its ptime.
                shard.query.advance_to(passed.max(shard.query.now()))?;
                unread?;
            }
            Ok(())
        });
    }

    /// Feed a batch a source produced already columnar.
    fn feed_columns(&mut self, stream: usize, columns: &ChangeBatch, trace_parent: u64) {
        let _span = (trace_parent != 0)
            .then(|| observe::TraceSpan::with_parent("worker.process", trace_parent));
        self.apply(|shard| {
            let (name, read) = &shard.streams[stream];
            let fed = shard.query.feed_batch(name, columns)?;
            // A stream the plan does not read is no feed.
            if *read {
                shard.note(fed);
            }
            Ok(())
        });
    }

    fn watermark(&mut self, stream: usize, ptime: Ts, wm: Ts) {
        self.apply(|shard| shard.query.watermark(&shard.streams[stream].0, ptime, wm));
    }

    fn finish(&mut self, at: Ts) {
        self.apply(|shard| shard.query.finish(at));
    }

    fn drain(&mut self) -> Result<DrainReply> {
        self.healthy()?;
        Ok(DrainReply {
            entries: self.query.take_changelog(),
            watermark: self.query.output_watermark(),
            fed_batch: std::mem::take(&mut self.fed_batch),
            fed_rows: std::mem::take(&mut self.fed_rows),
        })
    }

    fn checkpoint(&self) -> Result<onesql_state::Checkpoint> {
        self.healthy()?;
        self.query.checkpoint()
    }
}

/// A command for a threaded worker: any of [`Shard`]'s methods, boxed.
type Job = Box<dyn FnOnce(&mut Shard) + Send>;

struct Worker {
    tx: Sender<Job>,
    handle: std::thread::JoinHandle<Shard>,
}

fn worker_loop(worker: usize, mut shard: Shard, rx: Receiver<Job>) -> Shard {
    observe::set_thread_worker(worker.min(i32::MAX as usize) as i32);
    while let Ok(job) = rx.recv() {
        job(&mut shard);
    }
    shard
}

fn terminated<E>(_: E) -> Error {
    Error::exec("pipeline worker terminated")
}

/// Where the workers run — the one thing the worker count decides.
enum WorkerSet {
    /// On the driver's own thread: the single worker of a W = 1 pipeline,
    /// or every worker once `finish` joined their threads.
    Inline(Vec<Shard>),
    /// W > 1: one thread per worker behind a bounded command channel.
    Threads(Vec<Worker>),
}

impl WorkerSet {
    fn start(queries: Vec<RunningQuery>) -> WorkerSet {
        let shards: Vec<Shard> = queries.into_iter().map(Shard::new).collect();
        if shards.len() == 1 {
            return WorkerSet::Inline(shards);
        }
        WorkerSet::Threads(
            shards
                .into_iter()
                .enumerate()
                .map(|(w, shard)| {
                    let (tx, rx) = bounded::<Job>(64);
                    let handle = std::thread::spawn(move || worker_loop(w, shard, rx));
                    Worker { tx, handle }
                })
                .collect(),
        )
    }

    fn len(&self) -> usize {
        match self {
            WorkerSet::Inline(shards) => shards.len(),
            WorkerSet::Threads(workers) => workers.len(),
        }
    }

    /// Hand worker `w` a data command. Inline it runs before returning;
    /// a thread runs it in order with everything else it was sent.
    fn send(&mut self, w: usize, job: impl FnOnce(&mut Shard) + Send + 'static) -> Result<()> {
        match self {
            WorkerSet::Inline(shards) => {
                job(&mut shards[w]);
                Ok(())
            }
            WorkerSet::Threads(workers) => workers[w].tx.send(Box::new(job)).map_err(terminated),
        }
    }

    fn broadcast(&mut self, job: impl Fn(&mut Shard) + Clone + Send + 'static) -> Result<()> {
        (0..self.len()).try_for_each(|w| self.send(w, job.clone()))
    }

    /// Barrier: ask every worker, gather the answers in worker order. On
    /// return every command sent so far has been fully processed. Sending
    /// to all threads before receiving from any is what makes the barrier
    /// run in parallel across them.
    fn gather<T: Send + 'static>(
        &mut self,
        ask: impl Fn(usize, &mut Shard) -> Result<T> + Clone + Send + 'static,
    ) -> Result<Vec<T>> {
        match self {
            WorkerSet::Inline(shards) => shards
                .iter_mut()
                .enumerate()
                .map(|(w, shard)| ask(w, shard))
                .collect(),
            WorkerSet::Threads(workers) => {
                let mut replies = Vec::with_capacity(workers.len());
                for (w, worker) in workers.iter().enumerate() {
                    let (tx, rx) = bounded(1);
                    let ask = ask.clone();
                    let job: Job = Box::new(move |shard| {
                        let _ = tx.send(ask(w, shard));
                    });
                    worker.tx.send(job).map_err(terminated)?;
                    replies.push(rx);
                }
                replies
                    .into_iter()
                    .map(|rx| rx.recv().map_err(terminated)?)
                    .collect()
            }
        }
    }

    /// Stop the worker threads (if any) and bring their shards home. Every
    /// thread is reaped even when one of them panicked.
    fn join(&mut self) -> Result<()> {
        let WorkerSet::Threads(workers) = self else {
            return Ok(());
        };
        let expected = workers.len();
        let mut shards = Vec::with_capacity(expected);
        for worker in std::mem::take(workers) {
            drop(worker.tx);
            shards.extend(worker.handle.join());
        }
        let reaped = shards.len();
        *self = WorkerSet::Inline(shards);
        if reaped < expected {
            return Err(Error::exec("pipeline worker panicked"));
        }
        Ok(())
    }
}

/// One partition's driver-side state.
struct PartState {
    /// Index into the watermark ledger.
    feeder: usize,
    finished: bool,
    events: u64,
    bytes: u64,
}

struct SourceSlot {
    source: Box<dyn PartitionedSource>,
    /// Lowercased stream names, resolved to global indices at attach.
    stream_ids: Vec<usize>,
    parts: Vec<PartState>,
    non_empty_polls: u64,
}

/// Pumps partitioned sources through W query workers into sinks, with
/// deterministic output order and whole-pipeline checkpoint/restore. See
/// the module docs for the architecture.
pub struct PipelineDriver {
    workers: WorkerSet,
    sources: Vec<SourceSlot>,
    sinks: Vec<Box<dyn Sink>>,
    config: DriverConfig,
    /// The engine's relations as of construction: what a source's declared
    /// streams are checked against at attach time.
    catalog: MemoryCatalog,
    controller: BatchController,
    metrics: PipelineMetrics,
    ledger: WatermarkLedger,
    advances: Vec<(String, Watermark)>,
    /// Global stream table: lowercased names, indices shared with workers.
    streams: Vec<String>,
    /// Monotone processing-time clock across all partitions.
    clock: Ts,
    /// Held-back changelog entries per worker, in arrival order (which is
    /// ptime order by construction).
    pending: Vec<VecDeque<TimedChange>>,
    /// The release bound (the clock at its gather) of a round whose flush
    /// is still owed: a saturated round on worker threads leaves its
    /// output in `pending` and the next `step` emits it while the workers
    /// compute. `None` whenever nothing releasable is held.
    deferred: Option<Ts>,
    /// Every entry the merge released, in the order the sinks saw it: the
    /// result TVR. The pipeline's only retained output.
    changelog: Changelog,
    /// The planned query, for the table view's `ORDER BY` / `LIMIT`.
    query: BoundQuery,
    renderer: StreamRenderer,
    schema: SchemaRef,
    /// Combined (min) worker output watermark as of the last drain.
    output_watermark: Watermark,
    /// Output watermark already reported to sinks.
    sink_watermark: Watermark,
    finished: bool,
    /// Checkpoints taken so far; the next checkpoint gets epoch
    /// `self.epoch + 1`. Restoring adopts the checkpoint's epoch so the
    /// numbering continues where the crashed incarnation left off.
    epoch: u64,
    /// Set when a step failed after source offsets had already advanced:
    /// polled events may never have reached a worker, so continuing — and
    /// above all checkpointing — would silently violate exactly-once.
    poisoned: bool,
    /// Set by [`PipelineDriver::restore`]: the watermark ledger and
    /// cursors now mirror a checkpoint, so the source/sink set is sealed
    /// even though no round has run yet.
    restored: bool,
    /// When set, the driver publishes a metrics snapshot to the global
    /// [`observe::hub`] under this name after every round.
    label: Option<String>,
}

/// Take the merge's next entry: the front with the smallest ptime among
/// the queue fronts below `below` (among all fronts when `None`), the
/// lowest worker winning ties (`min_by_key` keeps the first minimum). Each
/// queue is in ptime order, so that front is the smallest held entry
/// overall, and taking one front at a time keeps a worker's equal-ptime
/// entries in arrival order — `(ptime, worker, arrival)` without a sort.
/// With one worker this is "the prefix below the clock".
fn pop_ready(pending: &mut [VecDeque<TimedChange>], below: Option<Ts>) -> Option<TimedChange> {
    let ready = |entry: &TimedChange| below.is_none_or(|clock| entry.ptime < clock);
    pending
        .iter_mut()
        .filter(|queue| queue.front().is_some_and(ready))
        .min_by_key(|queue| queue.front().map(|entry| entry.ptime))
        .and_then(VecDeque::pop_front)
}

const POISONED: &str = "pipeline is poisoned by an earlier failure; \
                        restore the last checkpoint into a fresh driver";

impl PipelineDriver {
    /// [`Engine::plan`] `sql`, then [`PipelineDriver::with_query`].
    pub fn new(engine: &Engine, sql: &str, config: DriverConfig) -> Result<PipelineDriver> {
        PipelineDriver::with_query(engine, engine.plan(sql)?, config)
    }

    /// The one way a pipeline comes to exist: run the planned `query` once
    /// per worker and start the worker set (`config.workers` = 1 runs
    /// inline, more spawn a thread each). Attach sources and sinks, then
    /// [`PipelineDriver::run`] (or [`PipelineDriver::restore`] a
    /// checkpoint first). The engine is only borrowed.
    pub fn with_query(
        engine: &Engine,
        query: BoundQuery,
        config: DriverConfig,
    ) -> Result<PipelineDriver> {
        let queries = (0..config.workers)
            .map(|_| {
                let mut worker = engine.run(query.clone())?;
                worker.set_vectorize(config.vectorize);
                Ok(worker)
            })
            .collect::<Result<Vec<RunningQuery>>>()?;
        let Some(first) = queries.first() else {
            return Err(Error::exec("need at least one worker"));
        };
        let schema = first.schema();
        let ver_cols = onesql_exec::compile::version_columns(&query);
        let clock = first.now();
        Ok(PipelineDriver {
            workers: WorkerSet::start(queries),
            sources: Vec::new(),
            sinks: Vec::new(),
            config,
            catalog: engine.catalog().clone(),
            controller: BatchController::new(&config),
            metrics: PipelineMetrics::default(),
            ledger: WatermarkLedger::new(),
            advances: Vec::new(),
            streams: Vec::new(),
            clock,
            pending: (0..config.workers).map(|_| VecDeque::new()).collect(),
            deferred: None,
            changelog: Changelog::new(),
            query,
            renderer: StreamRenderer::new(ver_cols),
            schema,
            output_watermark: Watermark::MIN,
            sink_watermark: Watermark::MIN,
            finished: false,
            epoch: 0,
            poisoned: false,
            restored: false,
            label: None,
        })
    }

    /// Name this pipeline on the global [`observe::hub`]: every subsequent
    /// round publishes a [`crate::PipelineSnapshot`] under `label`, which
    /// is what the `metrics` source connector and `SHOW PIPELINES` read.
    /// Unlabelled drivers never touch the hub.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = Some(label.into());
    }

    /// The hub label, if one was set.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    fn publish_snapshot(&mut self) {
        if self.label.is_none() {
            return;
        }
        self.refresh_metrics();
        let label = self.label.as_deref().unwrap_or_default();
        observe::hub().publish(label, self.clock, self.finished, self.metrics.clone());
    }

    /// Record that a durable checkpoint at `epoch` was persisted in
    /// `micros` microseconds (called by the session layer after the store
    /// write completes, so the persist cost lands in this pipeline's
    /// metrics and not just the global trace).
    pub fn note_checkpoint_persisted(&mut self, epoch: u64, micros: u64) {
        self.metrics.checkpoints += 1;
        self.metrics.checkpoint_epoch = epoch;
        self.metrics.checkpoint_persist_micros.record(micros);
        self.publish_snapshot();
    }

    /// Attach a partitioned source. Every stream it declares must be a
    /// registered stream, wide enough to hold the partition column when
    /// several workers share the rows. Fails once the pipeline has started
    /// or restored a checkpoint (the per-stream watermark trackers are
    /// sized at attach time; growing them afterwards would wipe observed
    /// watermark state).
    pub fn attach_partitioned_source(&mut self, source: Box<dyn PartitionedSource>) -> Result<()> {
        if self.metrics.rounds > 0 || self.restored || self.poisoned {
            return Err(Error::plan(
                "attach sources before stepping or restoring the pipeline",
            ));
        }
        if source.streams().is_empty() {
            return Err(Error::plan(format!(
                "source '{}' declares no streams",
                source.name()
            )));
        }
        if source.partitions() == 0 {
            return Err(Error::plan(format!(
                "source '{}' declares no partitions",
                source.name()
            )));
        }
        let name = source.name();
        for stream in source.streams() {
            let schema = match self.catalog.resolve(stream) {
                Ok((schema, TableKind::Stream)) => schema,
                Ok((_, TableKind::Table)) => {
                    return Err(Error::plan(format!(
                        "source '{name}' targets '{stream}', which is a table, \
                         not a stream"
                    )))
                }
                Err(_) => {
                    return Err(Error::catalog(format!(
                        "source '{name}' targets unregistered stream '{stream}'"
                    )))
                }
            };
            let col = self.config.partition_col;
            if self.workers.len() > 1 && col >= schema.arity() {
                return Err(Error::plan(format!(
                    "source '{name}': stream '{stream}' has {} columns, so rows \
                     cannot be routed to {} workers by partition column {col}",
                    schema.arity(),
                    self.workers.len()
                )));
            }
        }
        let mut stream_ids = Vec::with_capacity(source.streams().len());
        for stream in source.streams() {
            let stream = stream.to_ascii_lowercase();
            let id = match self.streams.iter().position(|s| *s == stream) {
                Some(id) => id,
                None => {
                    self.streams.push(stream.clone());
                    self.workers
                        .broadcast(move |shard| shard.declare(stream.clone()))?;
                    self.streams.len() - 1
                }
            };
            stream_ids.push(id);
        }
        let streams_lc: Vec<String> = stream_ids
            .iter()
            .map(|&i| self.streams[i].clone())
            .collect();
        // One partition is the whole source: label it by the bare name.
        let single = source.partitions() == 1;
        let parts = (0..source.partitions())
            .map(|part| {
                let label = if single {
                    source.name().to_string()
                } else {
                    format!("{}[{part}]", source.name())
                };
                PartState {
                    feeder: self.ledger.add_feeder(label, &streams_lc),
                    finished: false,
                    events: 0,
                    bytes: 0,
                }
            })
            .collect();
        self.sources.push(SourceSlot {
            source,
            stream_ids,
            parts,
            non_empty_polls: 0,
        });
        Ok(())
    }

    /// Attach a plain source as a one-part [`PartitionedVec`].
    pub fn attach_source(&mut self, source: Box<dyn Source>) -> Result<()> {
        self.attach_partitioned_source(Box::new(PartitionedVec::single(source)))
    }

    /// Attach a sink; it is immediately bound to the query's output
    /// schema.
    pub fn attach_sink(&mut self, mut sink: Box<dyn Sink>) -> Result<()> {
        sink.bind(self.schema.clone())?;
        self.sinks.push(sink);
        Ok(())
    }

    /// Number of workers (= operator state shards).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The batch size the adaptive controller will use for the next poll.
    pub fn current_batch_size(&self) -> usize {
        self.controller.size()
    }

    /// True once every source partition finished and the workers flushed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Current accounting. Watermark fields refresh on access.
    pub fn metrics(&mut self) -> &PipelineMetrics {
        self.refresh_metrics();
        &self.metrics
    }

    /// Events ingested so far. Maintained incrementally — cheap enough
    /// for per-step loop conditions, unlike [`PipelineDriver::metrics`]
    /// which rebuilds derived fields.
    pub fn events_in(&self) -> u64 {
        self.metrics.events_in
    }

    fn refresh_metrics(&mut self) {
        self.metrics.sources = self
            .sources
            .iter()
            .map(|s| SourceMetrics {
                name: s.source.name().to_string(),
                events: s.parts.iter().map(|p| p.events).sum(),
                bytes: s.parts.iter().map(|p| p.bytes).sum(),
                non_empty_polls: s.non_empty_polls,
                watermark: s
                    .parts
                    .iter()
                    .map(|p| self.ledger.feeder(p.feeder))
                    .min()
                    .unwrap_or(Watermark::MIN),
                finished: s.parts.iter().all(|p| p.finished),
            })
            .collect();
        self.metrics.input_watermark = self.ledger.input_watermark();
        self.metrics.output_watermark = self.output_watermark;
        self.metrics.watermark_provenance = self.ledger.provenance();
    }

    /// Per-stream watermark provenance: which source partition holds each
    /// stream's minimum watermark and when it last produced an event.
    pub fn watermark_provenance(&self) -> Vec<WatermarkProvenance> {
        self.ledger.provenance()
    }

    /// One scheduling round: poll every unfinished partition once, hand
    /// the round's events to the workers (routed by partition key when
    /// there are several), then the round's watermark advances, then
    /// barrier and flush the deterministic merge. Returns events ingested;
    /// `Ok(0)` with unfinished sources means everything was idle.
    ///
    /// A step that errors after sources were polled poisons the driver:
    /// the polled events may never have reached a worker while the source
    /// offsets already advanced, so further stepping or checkpointing
    /// would silently lose them. A poisoned pipeline only reports its
    /// error; recovery is restoring the last good checkpoint into a fresh
    /// driver.
    pub fn step(&mut self) -> Result<usize> {
        if self.poisoned {
            return Err(Error::exec(POISONED));
        }
        if self.sources.is_empty() {
            return Err(Error::plan("pipeline has no sources"));
        }
        if self.finished {
            return Ok(0);
        }
        let stepped = self.step_inner();
        self.poisoned = stepped.is_err();
        stepped
    }

    fn step_inner(&mut self) -> Result<usize> {
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _round = observe::TraceSpan::root("driver.round");
        let round = Stopwatch::start();
        let round_clock = self.clock;
        let batch_size = self.controller.size();
        let worker_count = self.workers.len();
        // A lone inline worker can take a source's columns as they are;
        // routing across several needs rows.
        let columnar = worker_count == 1 && self.config.vectorize;
        let mut routed: Vec<Vec<(usize, Ts, Change)>> =
            (0..worker_count).map(|_| Vec::new()).collect();
        let mut ingested = 0usize;
        let mut poll_micros = 0u64;
        // Saturated input: every partition polled answered `Ready` with
        // events, each one's promise that its next poll will not wait.
        let mut saturated = true;
        for slot in 0..self.sources.len() {
            for part in 0..self.sources[slot].parts.len() {
                if self.sources[slot].parts[part].finished {
                    continue;
                }
                let poll = Stopwatch::start();
                let source = &mut self.sources[slot].source;
                let columns = if columnar {
                    source.poll_partition_columns(part, batch_size)?
                } else {
                    None
                };
                // A columnar poll replaces the row poll; its progress half
                // is handled exactly as a row batch's.
                let mut batch = match &columns {
                    Some(cb) => SourceBatch {
                        watermark: cb.watermark,
                        ..SourceBatch::empty(cb.status)
                    },
                    None => source.poll_partition(part, batch_size)?,
                };
                poll_micros = poll_micros.saturating_add(poll.micros());
                let polled = columns
                    .as_ref()
                    .map_or(batch.events.len(), |cb| cb.columns.len());
                if polled > 0 {
                    self.sources[slot].non_empty_polls += 1;
                }
                saturated &= polled > 0 && batch.status == SourceStatus::Ready;
                // The ingest span parents under the wire-carried producer
                // span when the partition supplied one, else this round.
                let _ingest = (polled > 0 || batch.watermark.is_some()).then(|| {
                    observe::TraceSpan::with_parent(
                        "driver.ingest",
                        batch.trace_parent.unwrap_or(0),
                    )
                    .partition(part.min(i32::MAX as usize) as i32)
                });
                let mut bytes = 0u64;
                if let Some(cb) = columns.filter(|cb| !cb.columns.is_empty()) {
                    // Rows polled earlier this round come first.
                    self.dispatch(&mut routed)?;
                    bytes = self.feed_columns(slot, cb)?;
                }
                for event in std::mem::take(&mut batch.events) {
                    let stream_id = self.stream_id(slot, event.stream)?;
                    // Processing time is monotone across every partition;
                    // a partition whose clock lags is dragged forward.
                    self.clock = self.clock.max(event.ptime);
                    let worker = self.worker_for(stream_id, &event.change)?;
                    bytes += change_bytes(&event.change);
                    routed[worker].push((stream_id, self.clock, event.change));
                }
                let state = &mut self.sources[slot].parts[part];
                state.events += polled as u64;
                state.bytes += bytes;
                self.metrics.events_in += polled as u64;
                self.metrics.bytes_in += bytes;
                ingested += polled;
                let feeder = state.feeder;
                if polled > 0 {
                    self.ledger.note_event(feeder, self.clock);
                }
                if let Some(wm) = batch.watermark {
                    self.ledger
                        .observe(feeder, Watermark(wm), &mut self.advances);
                }
                if batch.status == SourceStatus::Finished {
                    self.sources[slot].parts[part].finished = true;
                    // A finished partition asserts completeness: it stops
                    // constraining its streams' watermarks.
                    self.ledger
                        .observe(feeder, Watermark::MAX, &mut self.advances);
                }
            }
        }
        // Events first (they were polled before the watermark assertions),
        // then the per-stream advances, broadcast to every worker because
        // watermarks are assertions about whole streams.
        self.dispatch(&mut routed)?;
        let mut advances = std::mem::take(&mut self.advances);
        for (stream, combined) in advances.drain(..) {
            let stream_id = self
                .streams
                .iter()
                .position(|s| *s == stream)
                .ok_or_else(|| {
                    Error::exec(format!("watermark for unregistered stream '{stream}'"))
                })?;
            let (ptime, wm) = (self.clock, combined.ts());
            self.workers
                .broadcast(move |shard| shard.watermark(stream_id, ptime, wm))?;
            self.metrics.watermarks_in += 1;
        }
        self.advances = advances;

        let merge = Stopwatch::start();
        // The workers are computing this round: emit the previous one.
        self.flush_deferred()?;
        {
            let _gather = observe::TraceSpan::child("driver.gather");
            self.drain_workers()?;
        }
        // Everything below the clock is final and could go to the sinks
        // now. With saturated input on worker threads it waits instead
        // for the next step to emit it beside the workers, under the bound
        // it has here; a round that left the clock in place flushes now,
        // so that the nudge below sees exactly what is held at the clock.
        let threads = matches!(self.workers, WorkerSet::Threads(_));
        if threads && saturated && self.clock > round_clock {
            self.deferred = Some(self.clock);
        } else {
            self.flush(Some(self.clock))?;
        }
        self.metrics.merge_micros.record(merge.micros());
        self.metrics.rounds += 1;
        if ingested == 0 {
            self.metrics.idle_rounds += 1;
        }
        // A round that left the clock where it found it — idle, or a live
        // source whose ptimes stall — would otherwise withhold the
        // entries at ptime == clock (and let `pending` grow) until some
        // future event advances it. Nudge the clock 1ms and re-flush:
        // future events are clamped monotone anyway, so merge order is
        // preserved, and the nudge is a deterministic function of the
        // replayed rounds, so checkpointed resumes still reproduce it.
        if self.clock == round_clock && self.held_back() > 0 {
            self.clock += onesql_types::Duration(1);
            self.flush(Some(self.clock))?;
        }
        if self
            .sources
            .iter()
            .all(|s| s.parts.iter().all(|p| p.finished))
        {
            self.finish()?;
        } else {
            // Backpressure: the entries held at or past the clock are
            // worker output the deterministic merge cannot yet release to
            // sinks; that depth drives the batch controller (see
            // `BatchController::observe_load`). A deferred round's
            // releasable entries are not in it, or batch sizes — and
            // through the clamped clock every `ptime` — would depend on
            // the worker count.
            let depth = self.held_back();
            self.metrics.pending_depth = depth as u64;
            self.metrics.batch_size = self.controller.observe_load(depth);
        }
        self.metrics.poll_micros.record(poll_micros);
        self.metrics.round_micros.record(round.micros());
        self.publish_snapshot();
        Ok(ingested)
    }

    /// The global stream id behind a source's local stream index.
    fn stream_id(&self, slot: usize, stream: usize) -> Result<usize> {
        let source = &self.sources[slot];
        source.stream_ids.get(stream).copied().ok_or_else(|| {
            Error::exec(format!(
                "source '{}' produced an event for stream index {stream} \
                 but declares only {} streams",
                source.source.name(),
                source.stream_ids.len()
            ))
        })
    }

    /// The worker that owns `change`'s partition key — worker 0 when it is
    /// the only one, whatever the row holds.
    fn worker_for(&self, stream_id: usize, change: &Change) -> Result<usize> {
        let workers = self.workers.len();
        if workers == 1 {
            return Ok(0);
        }
        let key = change.row.value(self.config.partition_col).map_err(|_| {
            Error::exec(format!(
                "stream '{}' row has no partition column {}",
                self.streams[stream_id], self.config.partition_col
            ))
        })?;
        Ok(partition_of(key, workers))
    }

    /// Hand a (non-empty) columnar poll to the lone inline worker as it
    /// is, under the same monotone-clock clamp the row path applies per
    /// event. Returns its payload bytes.
    fn feed_columns(&mut self, slot: usize, cb: ColumnarBatch) -> Result<u64> {
        let stream_id = self.stream_id(slot, cb.stream)?;
        let rows = cb.columns.len();
        let columns = cb.columns.clamp_ptimes(self.clock);
        self.clock = self.clock.max(columns.ptime(rows - 1));
        self.metrics.batch_rows.record(rows as u64);
        let bytes = (0..rows).map(|i| columns.row_bytes(i)).sum();
        let span = observe::current_span();
        self.workers.send(0, move |shard| {
            shard.feed_columns(stream_id, &columns, span)
        })?;
        Ok(bytes)
    }

    /// Send each worker the events routed to it so far this round.
    fn dispatch(&mut self, routed: &mut [Vec<(usize, Ts, Change)>]) -> Result<()> {
        for (worker, batch) in routed.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let batch = std::mem::take(batch);
            self.metrics.batch_rows.record(batch.len() as u64);
            let span = observe::current_span();
            self.workers
                .send(worker, move |shard| shard.feed(batch, span))?;
        }
        Ok(())
    }

    /// Barrier: every worker reports its new changelog entries (into the
    /// per-worker pending buffers), its output watermark, and how it fed
    /// this round's events. On return, every command sent so far has been
    /// fully processed.
    fn drain_workers(&mut self) -> Result<()> {
        let replies = self.workers.gather(|_, shard| shard.drain())?;
        let mut combined = Watermark::MAX;
        let (mut fed_batch, mut fed_rows) = (false, false);
        for (w, reply) in replies.into_iter().enumerate() {
            self.pending[w].extend(reply.entries);
            combined = combined.min(reply.watermark);
            fed_batch |= reply.fed_batch;
            fed_rows |= reply.fed_rows;
        }
        self.output_watermark = combined;
        self.metrics.vectorized_rounds += u64::from(fed_batch);
        self.metrics.fallback_rounds += u64::from(fed_rows);
        Ok(())
    }

    /// Entries the merge must hold whatever happens: those stamped at or
    /// past the clock (each queue is in ptime order, so a suffix of it).
    fn held_back(&self) -> usize {
        let held = |queue: &VecDeque<TimedChange>| {
            queue.len() - queue.partition_point(|entry| entry.ptime < self.clock)
        };
        self.pending.iter().map(held).sum()
    }

    /// Emit the round a saturated step left in `pending`, under the bound
    /// saved at its gather: later rounds may still add entries at that
    /// bound, which must merge in before anything at it is released.
    fn flush_deferred(&mut self) -> Result<()> {
        match self.deferred.take() {
            Some(bound) => self.flush(Some(bound)),
            None => Ok(()),
        }
    }

    /// Flush the deterministic merge: release every held entry with
    /// `ptime < below` (all of them at finish, `None`) in `(ptime, worker,
    /// arrival)` order, rendered with `EMIT STREAM` version numbering
    /// shared across all workers, and append it to the merged changelog.
    fn flush(&mut self, below: Option<Ts>) -> Result<()> {
        let held = self.pending.iter().map(VecDeque::len).sum();
        let mut released = std::iter::from_fn(|| pop_ready(&mut self.pending, below)).peekable();
        if released.peek().is_some() {
            // Current span while sinks write: a `NetSink` attaches it to
            // outgoing BATCH frames as the consumer side's trace parent.
            let _emit_span = observe::TraceSpan::child("driver.emit");
            let emit = Stopwatch::start();
            let mut rows: Vec<StreamRow> = Vec::with_capacity(held);
            for entry in released {
                self.renderer.render_into(&entry, &mut rows)?;
                self.changelog.push(entry.ptime, entry.change);
            }
            self.metrics.events_out += rows.len() as u64;
            for sink in &mut self.sinks {
                sink.write(&rows)?;
            }
            self.metrics.emit_micros.record(emit.micros());
        }
        self.notify_sink_watermark()
    }

    /// Report the combined output watermark to sinks — but only while no
    /// entries are held back, so a sink never hears "complete up to W"
    /// before the rows W released.
    fn notify_sink_watermark(&mut self) -> Result<()> {
        if !self.pending.iter().all(|p| p.is_empty()) {
            return Ok(());
        }
        if self.output_watermark > self.sink_watermark {
            self.sink_watermark = self.output_watermark;
            for sink in &mut self.sinks {
                sink.on_watermark(self.sink_watermark)?;
            }
        }
        Ok(())
    }

    /// Declare the pipeline complete: workers flush all gated
    /// materialization, the merge drains entirely, sinks flush, and any
    /// worker threads join. Idempotent on success, and called
    /// automatically when every partition reports
    /// [`SourceStatus::Finished`]; a failed finish poisons the driver (it
    /// does NOT report finished), so callers can't mistake a half-flushed
    /// pipeline for a completed one.
    pub fn finish(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        if self.poisoned {
            return Err(Error::exec(POISONED));
        }
        match self.finish_inner() {
            Ok(()) => {
                self.finished = true;
                self.metrics.pending_depth = 0;
                self.publish_snapshot();
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn finish_inner(&mut self) -> Result<()> {
        if observe::enabled() {
            observe::set_thread_pipeline(self.label.as_deref().unwrap_or(""));
        }
        let _finish_span = observe::TraceSpan::root("driver.finish");
        self.flush_deferred()?;
        let clock = self.clock;
        self.workers.broadcast(move |shard| shard.finish(clock))?;
        self.drain_workers()?;
        self.flush(None)?;
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        // Every event is materialized in the sinks: acknowledge the final
        // offsets so upstream processes holding a replay spool for this
        // pipeline know they can drain and exit.
        for slot in &mut self.sources {
            for part in 0..slot.parts.len() {
                let offset = slot.source.offset(part);
                slot.source.ack(part, offset)?;
            }
        }
        self.workers.join()?;
        self.refresh_metrics();
        Ok(())
    }

    /// Run until every partition finishes. All-idle rounds yield the
    /// thread (sources may be fed by other threads); `max_idle_rounds`
    /// bounds the wait, erroring on exhaustion so a stuck pipeline is loud.
    pub fn run(&mut self) -> Result<&PipelineMetrics> {
        let mut idle_streak = 0u64;
        while !self.finished {
            let ingested = self.step()?;
            if self.finished {
                break;
            }
            if ingested == 0 {
                idle_streak += 1;
                if let Some(limit) = self.config.max_idle_rounds {
                    if idle_streak > limit {
                        return Err(Error::exec(format!(
                            "pipeline made no progress for {idle_streak} rounds \
                             (sources idle, none finished)"
                        )));
                    }
                }
                std::thread::yield_now();
            } else {
                idle_streak = 0;
            }
        }
        self.refresh_metrics();
        Ok(&self.metrics)
    }

    /// The result TVR in its stream encoding: every changelog entry the
    /// merge has released, in the order the sinks observed it. Entries
    /// still held back at the clock are not in it yet, nor — between two
    /// steps of worker threads over saturated input — is the last gathered
    /// round. This is the pipeline's only retained output — the workers
    /// keep none.
    pub fn changelog(&self) -> &Changelog {
        &self.changelog
    }

    /// The result table over everything processed so far:
    /// [`PipelineDriver::table_at`] the end of time.
    pub fn table(&self) -> Result<Vec<Row>> {
        self.table_at(Ts::MAX)
    }

    /// The table view **as of** processing time `at` (a temporal `AS OF`
    /// probe): the snapshot of [`PipelineDriver::changelog`] at `at` —
    /// plus the entries up to `at` the driver still holds (those at the
    /// clock, and a round whose flush is deferred) — with the query's
    /// `ORDER BY` / `LIMIT` applied once, over the whole result. It reads
    /// the driver's own log and asks nothing of the workers; every
    /// [`PipelineDriver::step`] ends with a drain, so mid-run it reflects
    /// every event ingested so far. A probe
    /// at `at` strictly below the current [`PipelineDriver::clock`] is
    /// *stable*: future events are stamped at or above the clock, so
    /// re-reading the same `at` later returns identical rows.
    ///
    /// The log starts empty in a restored driver, so after a restore the
    /// probe only covers changes since the restore point — probes are
    /// meaningful within one incarnation.
    pub fn table_at(&self, at: Ts) -> Result<Vec<Row>> {
        if self.poisoned {
            return Err(Error::exec(POISONED));
        }
        let mut table = self.changelog.snapshot_at(at);
        let held = self.pending.iter().flatten();
        let held = held.filter(|entry| entry.ptime <= at);
        table.apply(held.map(|entry| entry.change.clone()));
        let mut rows = table.to_rows();
        apply_presentation(&self.query, &mut rows)?;
        Ok(rows)
    }

    /// The driver's monotone processing-time clock: the max ptime stamped
    /// onto any ingested event so far. Changelog entries strictly below the
    /// clock are final (see the module docs' determinism argument), which
    /// is what makes [`PipelineDriver::table_at`] probes below it
    /// stable.
    pub fn clock(&self) -> Ts {
        self.clock
    }

    /// Take a consistent whole-pipeline snapshot: barrier the workers,
    /// capture their operator state, and record source offsets plus the
    /// driver's merge cursors. The pipeline keeps running afterwards.
    ///
    /// The snapshot is only in memory; once the caller has persisted it,
    /// [`PipelineDriver::ack_checkpoint`] tells the sources (and
    /// any remote producers behind them) that everything below it may be
    /// garbage-collected.
    pub fn checkpoint(&mut self) -> Result<PipelineCheckpoint> {
        if self.finished {
            return Err(Error::exec("cannot checkpoint a finished pipeline"));
        }
        if self.poisoned {
            // The recorded source offsets would include events that never
            // reached a worker: such a checkpoint replays with gaps.
            return Err(Error::exec(
                "cannot checkpoint a poisoned pipeline (a step failed after \
                 its sources were polled)",
            ));
        }
        // Barrier first: all in-flight commands processed, pending buffers
        // current, so the captured cursors and state agree.
        self.drain_workers()?;
        // A deferred round is output of the epoch being staged: release it
        // first, so the sinks' staged lengths and `pending` below are what
        // they would be had nothing been deferred. Entries already popped
        // when a sink fails cannot be put back, hence the poisoning.
        self.flush_deferred()
            .inspect_err(|_| self.poisoned = true)?;
        let worker_states = self.workers.gather(|_, shard| shard.checkpoint())?;
        // Stage the sinks under the new epoch *before* handing the
        // checkpoint to the caller: a transactional sink durably records
        // "everything written so far is epoch E" now, so whether or not
        // the caller ever persists E, a restore of any persisted epoch
        // finds its staging boundary on disk.
        self.epoch += 1;
        for sink in &mut self.sinks {
            sink.on_checkpoint(self.epoch)?;
        }
        let checkpoint = PipelineCheckpoint {
            workers: worker_states,
            offsets: self
                .sources
                .iter()
                .map(|s| (0..s.parts.len()).map(|p| s.source.offset(p)).collect())
                .collect(),
            finished: self
                .sources
                .iter()
                .map(|s| s.parts.iter().map(|p| p.finished).collect())
                .collect(),
            feeders: self.ledger.feeder_watermarks().to_vec(),
            clock: self.clock,
            batch_size: self.controller.size(),
            pending: self
                .pending
                .iter()
                .map(|p| p.iter().cloned().collect())
                .collect(),
            renderer_versions: self.renderer.versions(),
            sink_watermark: self.sink_watermark,
            output_watermark: self.output_watermark,
            events_out: self.metrics.events_out,
            watermarks_in: self.metrics.watermarks_in,
            source_bytes: self
                .sources
                .iter()
                .map(|s| s.parts.iter().map(|p| p.bytes).collect())
                .collect(),
            epoch: self.epoch,
        };
        Ok(checkpoint)
    }

    /// Acknowledge a checkpoint the caller has made **durable**: forward
    /// its per-partition offsets to every source's
    /// [`PartitionedSource::ack`] hook, declaring them the new resume
    /// floor — no future restore will ever ask for earlier events, so
    /// sources (and, through them, remote producers holding a replay
    /// spool) may release replay resources below it.
    ///
    /// Deliberately separate from [`PipelineDriver::checkpoint`]:
    /// taking a checkpoint only builds an in-memory struct, and acking it
    /// before it is persisted would let the upstream trim away the only
    /// data that could rebuild it — a crash in that window would leave
    /// every surviving (older) checkpoint unrestorable. Call this after
    /// the checkpoint is safely stored; skipping it entirely is always
    /// correct, just less memory-frugal upstream.
    pub fn ack_checkpoint(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        if checkpoint.offsets.len() != self.sources.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} sources, driver has {}",
                checkpoint.offsets.len(),
                self.sources.len()
            )));
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            if offsets.len() != self.sources[slot].parts.len() {
                return Err(Error::exec(format!(
                    "checkpoint source {slot} has {} partitions, driver has {}",
                    offsets.len(),
                    self.sources[slot].parts.len()
                )));
            }
            for (part, &offset) in offsets.iter().enumerate() {
                self.sources[slot].source.ack(part, offset)?;
            }
        }
        // Second phase for two-phase sinks: the epoch is durable, staged
        // rows below it are committed.
        for sink in &mut self.sinks {
            sink.commit_checkpoint(checkpoint.epoch)?;
        }
        Ok(())
    }

    /// Resume from a [`PipelineCheckpoint`]: restore every worker's
    /// operator state, seek every source partition to its recorded offset,
    /// and reload the merge/render/watermark cursors. Requires a fresh
    /// driver (same SQL, worker count, and source shapes, attached in the
    /// same order) that has not yet stepped.
    pub fn restore(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        if self.metrics.rounds > 0 || self.metrics.events_in > 0 || self.restored {
            return Err(Error::exec("restore requires a fresh pipeline driver"));
        }
        if checkpoint.workers.len() != self.workers.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} workers, driver has {}",
                checkpoint.workers.len(),
                self.workers.len()
            )));
        }
        if checkpoint.offsets.len() != self.sources.len() {
            return Err(Error::exec(format!(
                "checkpoint has {} sources, driver has {}",
                checkpoint.offsets.len(),
                self.sources.len()
            )));
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            if offsets.len() != self.sources[slot].parts.len() {
                return Err(Error::exec(format!(
                    "checkpoint source {slot} has {} partitions, driver has {}",
                    offsets.len(),
                    self.sources[slot].parts.len()
                )));
            }
        }
        // The fields are public (checkpoints may round-trip through
        // external storage), so validate every vec we will index rather
        // than panicking on a truncated one.
        if checkpoint.finished.len() != checkpoint.offsets.len()
            || checkpoint
                .finished
                .iter()
                .zip(&checkpoint.offsets)
                .any(|(f, o)| f.len() != o.len())
        {
            return Err(Error::exec(
                "checkpoint finished-flags do not match its offsets shape",
            ));
        }
        if checkpoint.source_bytes.len() != checkpoint.offsets.len()
            || checkpoint
                .source_bytes
                .iter()
                .zip(&checkpoint.offsets)
                .any(|(b, o)| b.len() != o.len())
        {
            return Err(Error::exec(
                "checkpoint byte counters do not match its offsets shape",
            ));
        }
        if checkpoint.pending.len() != self.workers.len() {
            return Err(Error::exec(format!(
                "checkpoint pending covers {} workers, driver has {}",
                checkpoint.pending.len(),
                self.workers.len()
            )));
        }
        let feeder_count = self.ledger.feeder_watermarks().len();
        if checkpoint.feeders.len() != feeder_count {
            return Err(Error::exec(format!(
                "checkpoint has {} feeders, driver has {feeder_count}",
                checkpoint.feeders.len()
            )));
        }

        // Validation is done; from here on state mutates, and a partial
        // failure (e.g. one partition's seek) would leave workers holding
        // checkpoint state over half-reset cursors — poison rather than
        // let a caller step a Frankenstein pipeline.
        match self.restore_inner(checkpoint) {
            Ok(()) => {
                self.restored = true;
                self.refresh_metrics();
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn restore_inner(&mut self, checkpoint: &PipelineCheckpoint) -> Result<()> {
        // Workers first (operator state), then sources (replay position).
        let states: Arc<[onesql_state::Checkpoint]> = checkpoint.workers.clone().into();
        self.workers
            .gather(move |w, shard| shard.query.restore(&states[w]))?;
        // Sinks next: a transactional sink truncates everything staged
        // after this epoch, so the replayed rows append exactly where the
        // uninterrupted run had them.
        for sink in &mut self.sinks {
            sink.on_restore(checkpoint.epoch)?;
        }
        for (slot, offsets) in checkpoint.offsets.iter().enumerate() {
            for (part, &offset) in offsets.iter().enumerate() {
                // Seek unconditionally — even to offset 0. For local
                // replayable sources that is a no-op, but a source whose
                // upstream is another process uses the seek to learn the
                // resume position it must announce in its handshake, and
                // "resume from the beginning" is as real a position as any.
                self.sources[slot].source.seek(part, offset)?;
                let state = &mut self.sources[slot].parts[part];
                state.events = offset;
                state.bytes = checkpoint.source_bytes[slot][part];
                state.finished = checkpoint.finished[slot][part];
            }
        }
        // Re-observe the feeder watermarks; the advances this generates
        // are discarded — the workers' restored state already reflects
        // every watermark that was delivered before the checkpoint.
        let mut discard = Vec::new();
        for (feeder, wm) in checkpoint.feeders.iter().enumerate() {
            self.ledger.observe(feeder, *wm, &mut discard);
        }
        self.clock = checkpoint.clock;
        self.controller.set_size(checkpoint.batch_size);
        self.pending = checkpoint
            .pending
            .iter()
            .map(|p| p.iter().cloned().collect())
            .collect();
        self.renderer
            .set_versions(checkpoint.renderer_versions.clone());
        self.sink_watermark = checkpoint.sink_watermark;
        self.output_watermark = checkpoint.output_watermark;
        self.epoch = checkpoint.epoch;
        self.metrics.events_in = checkpoint.offsets.iter().flatten().sum();
        self.metrics.events_out = checkpoint.events_out;
        self.metrics.watermarks_in = checkpoint.watermarks_in;
        self.metrics.bytes_in = checkpoint.source_bytes.iter().flatten().sum();
        self.metrics.checkpoint_epoch = checkpoint.epoch;
        self.metrics.restores += 1;
        Ok(())
    }
}

impl Drop for PipelineDriver {
    fn drop(&mut self) {
        // Disconnect the command channels so worker threads exit their
        // recv loops, then reap them; leaking threads from an abandoned
        // (e.g. crashed-and-dropped) pipeline would accumulate in tests.
        let _ = self.workers.join();
    }
}

impl std::fmt::Debug for PipelineDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineDriver")
            .field("workers", &self.workers.len())
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .field("events_in", &self.metrics.events_in)
            .field("events_out", &self.metrics.events_out)
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::{
        AdaptiveBatch, ConnectorRegistry, Exports, OptionBag, SinkConnector, SinkSpec, SourceBatch,
        SourceConnector, SourceEvent, SourceSpec, LOW_PENDING,
    };
    use crate::engine::StreamBuilder;
    use crate::session::Session;
    use onesql_types::{row, DataType};

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_stream(
            "Bid",
            StreamBuilder::new()
                .column("auction", DataType::Int)
                .column("price", DataType::Int)
                .event_time_column("ts"),
        );
        e
    }

    /// One replayable partition: emits its scripted events in order,
    /// asserting a watermark at its max event time.
    struct Script(Vec<(Ts, Row)>, Vec<String>);

    impl Source for Script {
        fn name(&self) -> &str {
            "script"
        }
        fn streams(&self) -> &[String] {
            &self.1
        }
        fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
            let mut batch = SourceBatch::empty(SourceStatus::Ready);
            for (ptime, row) in self.0.drain(..max_events.min(self.0.len())) {
                batch.watermark = Some(batch.watermark.map_or(ptime, |w: Ts| w.max(ptime)));
                batch.events.push(SourceEvent {
                    stream: 0,
                    ptime,
                    change: Change::insert(row),
                });
            }
            if self.0.is_empty() {
                batch.status = SourceStatus::Finished;
            }
            Ok(batch)
        }
    }

    fn script(parts: Vec<Vec<(Ts, Row)>>) -> Box<PartitionedVec<Script>> {
        let part = |events| Script(events, vec!["Bid".to_string()]);
        let parts = parts.into_iter().map(part).collect();
        Box::new(PartitionedVec::new("script", parts).unwrap())
    }

    fn bids(n: i64, salt: i64) -> Vec<(Ts, Row)> {
        (0..n)
            .map(|i| (Ts(i * 10 + salt), row!(i % 5, i + salt, Ts(i * 10 + salt))))
            .collect()
    }

    const AGG: &str = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";

    fn sharded(workers: usize) -> DriverConfig {
        DriverConfig {
            workers,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn sharded_matches_unsharded_table() {
        let e = engine();
        let parts = vec![bids(40, 0), bids(40, 3), bids(40, 7)];
        let mut tables = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut driver = PipelineDriver::new(&e, AGG, sharded(workers)).unwrap();
            driver
                .attach_partitioned_source(script(parts.clone()))
                .unwrap();
            driver.run().unwrap();
            tables.push(driver.table().unwrap());
        }
        assert_eq!(tables[0], tables[1], "2 workers diverged");
        assert_eq!(tables[0], tables[2], "4 workers diverged");
    }

    #[test]
    fn zero_workers_rejected() {
        let e = engine();
        assert!(PipelineDriver::new(&e, AGG, sharded(0)).is_err());
    }

    #[test]
    fn table_reads_mid_run_and_after_finish() {
        let e = engine();
        for workers in [1usize, 2] {
            let config = DriverConfig {
                batch_size: 2,
                adaptive: None,
                ..sharded(workers)
            };
            let mut driver = PipelineDriver::new(&e, AGG, config).unwrap();
            driver
                .attach_partitioned_source(script(vec![bids(5, 0)]))
                .unwrap();
            driver.step().unwrap();
            let counted = |rows: Vec<Row>| -> i64 {
                rows.iter()
                    .map(|r| r.value(1).unwrap().as_int().unwrap())
                    .sum()
            };
            assert_eq!(counted(driver.table().unwrap()), 2, "{workers} workers");
            driver.run().unwrap();
            assert_eq!(counted(driver.table().unwrap()), 5, "{workers} workers");
        }
    }

    #[test]
    fn restore_validates_shapes() {
        let e = engine();
        // Small fixed batches so one step leaves the source mid-stream.
        let config = DriverConfig {
            batch_size: 4,
            adaptive: None,
            ..sharded(2)
        };
        let mut driver = PipelineDriver::new(&e, AGG, config).unwrap();
        driver
            .attach_partitioned_source(script(vec![bids(20, 0)]))
            .unwrap();
        driver.step().unwrap();
        let cp = driver.checkpoint().unwrap();

        // Wrong worker count.
        let mut other = PipelineDriver::new(&e, AGG, sharded(3)).unwrap();
        other
            .attach_partitioned_source(script(vec![bids(20, 0)]))
            .unwrap();
        assert!(other.restore(&cp).is_err());

        // Wrong partition count.
        let mut other = PipelineDriver::new(&e, AGG, sharded(2)).unwrap();
        other
            .attach_partitioned_source(script(vec![bids(10, 0), bids(10, 1)]))
            .unwrap();
        assert!(other.restore(&cp).is_err());

        // A driver that already ran refuses restore.
        let mut other = PipelineDriver::new(&e, AGG, config).unwrap();
        other
            .attach_partitioned_source(script(vec![bids(20, 0)]))
            .unwrap();
        other.step().unwrap();
        assert!(other.restore(&cp).is_err());

        // A restored driver seals its source set and refuses a second
        // restore: attaching would rebuild the watermark trackers and wipe
        // the state the restore just loaded.
        let mut other = PipelineDriver::new(&e, AGG, config).unwrap();
        other
            .attach_partitioned_source(script(vec![bids(20, 0)]))
            .unwrap();
        other.restore(&cp).unwrap();
        assert!(other
            .attach_partitioned_source(script(vec![bids(20, 0)]))
            .is_err());
        assert!(other.restore(&cp).is_err());
        // But it still runs to completion normally.
        other.run().unwrap();
        assert!(other.is_finished());
    }

    /// Collects every row the driver writes.
    struct Collect(Arc<std::sync::Mutex<Vec<StreamRow>>>);

    impl Sink for Collect {
        fn name(&self) -> &str {
            "collect"
        }
        fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
            self.0.lock().unwrap().extend_from_slice(rows);
            Ok(())
        }
    }

    /// `script` / `Collect` as SQL connectors, so a [`Session`]
    /// can assemble the pipeline the tests build by hand.
    struct ScriptConnector(Vec<Vec<(Ts, Row)>>);

    impl SourceConnector for ScriptConnector {
        fn declare(
            &self,
            spec: &SourceSpec,
            _: &mut OptionBag,
        ) -> Result<Vec<(String, SchemaRef)>> {
            Ok(vec![(spec.name.to_string(), spec.schema.clone().unwrap())])
        }
        fn build(
            &self,
            _: &SourceSpec,
            _: &mut OptionBag,
            _: &mut Exports,
        ) -> Result<Box<dyn PartitionedSource>> {
            Ok(script(self.0.clone()))
        }
    }

    struct CollectConnector;

    impl SinkConnector for CollectConnector {
        fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> Result<()> {
            Ok(())
        }
        fn build(
            &self,
            _: &SinkSpec,
            _: &mut OptionBag,
            out: &mut Exports,
        ) -> Result<Box<dyn Sink>> {
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            out.put(seen.clone());
            Ok(Box::new(Collect(seen)))
        }
    }

    #[test]
    fn sink_rows_do_not_depend_on_the_worker_count() {
        const SQL: &str = "SELECT auction, price FROM Bid EMIT STREAM";
        let e = engine();
        // Partition 1 repeats one ptime, so rounds that poll only it leave
        // the clock where they found it and the hold-back has to be
        // released by the 1 ms nudge — on one inline worker exactly as on
        // three threads, or the `ptime` column would differ.
        let stalled: Vec<(Ts, Row)> = (0..30i64)
            .map(|i| (Ts(40), row!(i % 5, i, Ts(40))))
            .collect();
        let parts = vec![bids(6, 0), stalled];
        let mut outputs = Vec::new();
        for workers in [1usize, 3] {
            let config = DriverConfig {
                batch_size: 3,
                adaptive: None,
                ..sharded(workers)
            };
            let mut driver = PipelineDriver::new(&e, SQL, config).unwrap();
            driver
                .attach_partitioned_source(script(parts.clone()))
                .unwrap();
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            driver.attach_sink(Box::new(Collect(seen.clone()))).unwrap();
            driver.run().unwrap();

            // Nor on who assembled the pipeline: a `Session` hands the
            // same constructor the query it bound, and its sink sees the
            // same rows in the same order.
            let mut registry = ConnectorRegistry::new();
            registry.register_source("script", ScriptConnector(parts.clone()));
            registry.register_sink("collect", CollectConnector);
            let mut session = Session::new(registry);
            session.set_driver_config(config);
            let mut pipeline = session
                .execute_script(&format!(
                    "CREATE PARTITIONED SOURCE Bid (auction INT, price INT, ts TIMESTAMP, \
                     WATERMARK FOR ts) WITH (connector = 'script');
                     CREATE SINK out WITH (connector = 'collect');
                     INSERT INTO out {SQL};"
                ))
                .unwrap()
                .into_pipeline()
                .unwrap();
            assert_eq!(pipeline.workers(), workers);
            pipeline.run().unwrap();
            let via_sql: Arc<std::sync::Mutex<Vec<StreamRow>>> =
                session.take_handle("out").unwrap();
            assert_eq!(*via_sql.lock().unwrap(), *seen.lock().unwrap());

            let mut rows: Vec<(Ts, Row, bool)> = seen
                .lock()
                .unwrap()
                .iter()
                .map(|r: &StreamRow| (r.ptime, r.row.clone(), r.undo))
                .collect();
            // Equal-ptime rows interleave by worker; compare as a multiset.
            rows.sort();
            assert!(
                rows.iter().any(|(ptime, ..)| *ptime > Ts(50)),
                "no source ptime exceeds 50: later stamps come from the nudge"
            );
            outputs.push(rows);
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn the_merged_changelog_is_the_only_retained_output() {
        let e = engine();
        let ver_cols = onesql_exec::compile::version_columns(&e.plan(AGG).unwrap());
        let mut mid_run = Vec::new();
        for workers in [1usize, 2] {
            let config = DriverConfig {
                batch_size: 4,
                adaptive: None,
                ..sharded(workers)
            };
            let mut driver = PipelineDriver::new(&e, AGG, config).unwrap();
            driver
                .attach_partitioned_source(script(vec![bids(20, 0), bids(20, 3)]))
                .unwrap();
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            driver.attach_sink(Box::new(Collect(seen.clone()))).unwrap();

            // Mid-run the log is the released prefix — what the sinks
            // hold — while a probe below the clock also sees the entries
            // the driver still holds, a deferred round's included.
            for _ in 0..3 {
                driver.step().unwrap();
            }
            let rendered = onesql_exec::render_stream(driver.changelog(), &ver_cols).unwrap();
            assert_eq!(rendered, *seen.lock().unwrap(), "{workers} workers");
            let at = driver.clock() - onesql_types::Duration(1);
            let probe = driver.table_at(at).unwrap();
            assert!(!probe.is_empty(), "{workers} workers");
            if workers == 1 {
                assert_eq!(probe, driver.changelog().snapshot_at(at).to_rows());
            }
            mid_run.push((at, probe, driver.changelog().len()));

            driver.run().unwrap();
            let WorkerSet::Inline(shards) = &driver.workers else {
                panic!("finish joins the worker threads");
            };
            assert_eq!(shards.len(), workers);
            assert!(shards.iter().all(|s| s.query.changelog().is_empty()));

            // The log is what the sinks saw: rendering it again from
            // scratch reproduces their rows, `ver` numbers included.
            let rendered = onesql_exec::render_stream(driver.changelog(), &ver_cols).unwrap();
            assert!(!rendered.is_empty());
            assert_eq!(rendered, *seen.lock().unwrap(), "{workers} workers");
        }
        // One inline worker defers nothing, so below the clock its log
        // alone answers the probe; two threads over a source that is never
        // idle still owe the sinks their last round, and answer the same.
        let [(at, inline, released), (at2, threads, released2)] = &mid_run[..] else {
            panic!("one probe per worker count");
        };
        assert_eq!((at, inline), (at2, threads));
        assert!(released2 < released, "{released2} vs {released}");
    }

    #[test]
    fn load_signal_and_clock_do_not_depend_on_the_worker_count() {
        const SQL: &str = "SELECT auction, price FROM Bid EMIT STREAM";
        let e = engine();
        // Never idle: two threads defer every round of the first stretch.
        // The second partition outlasts the first and then repeats one
        // ptime, so its rounds leave the clock in place and are released
        // by the nudge. Rounds grow past LOW_PENDING output rows: a load
        // signal that counted a deferred round's releasable entries would
        // stop the two-worker batch sizes doubling there.
        let stalled = (0..20_000i64).map(|i| (Ts(50), row!(i % 5, i, Ts(50))));
        let parts = vec![
            bids(30_000, 0),
            bids(30_000, 3).into_iter().chain(stalled).collect(),
        ];
        let mut outcomes = Vec::new();
        for workers in [1usize, 2] {
            let config = DriverConfig {
                adaptive: Some(AdaptiveBatch {
                    min_batch: 32,
                    max_batch: 16_384,
                }),
                ..sharded(workers)
            };
            let mut driver = PipelineDriver::new(&e, SQL, config).unwrap();
            driver
                .attach_partitioned_source(script(parts.clone()))
                .unwrap();
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            driver.attach_sink(Box::new(Collect(seen.clone()))).unwrap();
            let mut sizes = Vec::new();
            while !driver.is_finished() {
                driver.step().unwrap();
                sizes.push((driver.current_batch_size(), driver.metrics().pending_depth));
            }
            let rounds = driver.metrics().rounds;
            let mut rows: Vec<(Ts, Row, bool)> = seen
                .lock()
                .unwrap()
                .iter()
                .map(|r: &StreamRow| (r.ptime, r.row.clone(), r.undo))
                .collect();
            // Equal-ptime rows interleave by worker; compare as a multiset.
            rows.sort();
            outcomes.push((sizes, rounds, rows));
        }
        let (sizes, _, rows) = &outcomes[0];
        assert!(sizes.iter().any(|&(size, _)| size > LOW_PENDING));
        assert!(
            rows.iter().any(|(ptime, ..)| *ptime > Ts(299_993)),
            "nudged"
        );
        assert!(outcomes[0] == outcomes[1], "one worker vs two");
    }

    /// `inner`, answering every other poll `Idle` and empty.
    struct EveryOtherPollIdle(Script, bool);

    impl Source for EveryOtherPollIdle {
        fn name(&self) -> &str {
            "halting"
        }
        fn streams(&self) -> &[String] {
            self.0.streams()
        }
        fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
            self.1 = !self.1;
            if self.1 {
                self.0.poll_batch(max_events)
            } else {
                Ok(SourceBatch::empty(SourceStatus::Idle))
            }
        }
    }

    #[test]
    fn nothing_is_deferred_across_a_poll_that_saw_idle() {
        const SQL: &str = "SELECT auction, price FROM Bid EMIT STREAM";
        let e = engine();
        let config = DriverConfig {
            batch_size: 4,
            adaptive: None,
            ..sharded(2)
        };
        let mut driver = PipelineDriver::new(&e, SQL, config).unwrap();
        let steady = Script(bids(40, 0), vec!["Bid".to_string()]);
        let halting = EveryOtherPollIdle(Script(bids(40, 3), vec!["Bid".to_string()]), false);
        driver.attach_source(Box::new(steady)).unwrap();
        driver.attach_source(Box::new(halting)).unwrap();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        driver.attach_sink(Box::new(Collect(seen.clone()))).unwrap();
        for step in 0..8 {
            driver.step().unwrap();
            let owed = driver
                .pending
                .iter()
                .flatten()
                .filter(|entry| entry.ptime < driver.clock)
                .count();
            if step % 2 == 0 {
                // Both sources answered `Ready` with events: the round's
                // output waits for the next step.
                assert!(driver.deferred.is_some() && owed > 0, "step {step}");
            } else {
                // One answered `Idle` — the next poll may wait for input —
                // so the sink already holds every entry below the clock.
                assert!(driver.deferred.is_none() && owed == 0, "step {step}");
                assert_eq!(seen.lock().unwrap().len(), driver.changelog().len());
                // Four rows a step from one source, four every other step
                // from the other: all out but those at the clock.
                let ingested = (step + 1) * 6;
                assert_eq!(driver.changelog().len(), ingested - driver.held_back());
            }
        }
    }

    /// Accepts `budget` writes, then fails every one.
    struct FailingSink(usize);

    impl Sink for FailingSink {
        fn name(&self) -> &str {
            "failing"
        }
        fn write(&mut self, _: &[StreamRow]) -> Result<()> {
            self.0 = self.0.checked_sub(1).ok_or(Error::exec("sink is full"))?;
            Ok(())
        }
    }

    #[test]
    fn a_sink_failing_in_a_deferred_flush_poisons_the_pipeline() {
        const SQL: &str = "SELECT auction, price FROM Bid EMIT STREAM";
        let e = engine();
        let config = DriverConfig {
            batch_size: 4,
            adaptive: None,
            ..sharded(2)
        };
        let deferring = |budget| {
            let mut driver = PipelineDriver::new(&e, SQL, config).unwrap();
            driver
                .attach_partitioned_source(script(vec![bids(40, 0)]))
                .unwrap();
            driver.attach_sink(Box::new(FailingSink(budget))).unwrap();
            // A saturated round: gathered, nothing written yet.
            driver.step().unwrap();
            assert!(driver.deferred.is_some());
            driver
        };
        // The next step emits it, and fails there, not a round later.
        let mut driver = deferring(0);
        let err = driver.step().unwrap_err().to_string();
        assert!(err.contains("sink is full"), "{err}");
        let err = driver.checkpoint().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "{err}");
        // So does a checkpoint: the entries it popped cannot be put back.
        let mut driver = deferring(0);
        let err = driver.checkpoint().unwrap_err().to_string();
        assert!(err.contains("sink is full"), "{err}");
        let err = driver.step().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "{err}");
        // A healthy sink sees the round at the checkpoint, which then
        // holds back only what the clock does.
        let mut driver = deferring(usize::MAX);
        let checkpoint = driver.checkpoint().unwrap();
        assert!(driver.deferred.is_none());
        let held = checkpoint.pending.iter().flatten();
        assert!(held
            .into_iter()
            .all(|entry| entry.ptime >= checkpoint.clock));
        assert_eq!(checkpoint.events_out, driver.changelog().len() as u64);
        assert!(checkpoint.events_out > 0);
    }

    #[test]
    fn merge_releases_fronts_by_ptime_then_worker_then_arrival() {
        let e = engine();
        let mut driver =
            PipelineDriver::new(&e, "SELECT auction, price FROM Bid", sharded(3)).unwrap();
        // `(worker, arrival)` rows: every worker holds entries at ptime 5.
        let queue = |worker: i64, ptimes: &[i64]| -> VecDeque<TimedChange> {
            let entry = |(arrival, &ptime): (usize, &i64)| TimedChange {
                ptime: Ts(ptime),
                change: Change::insert(row!(worker, arrival as i64)),
            };
            ptimes.iter().enumerate().map(entry).collect()
        };
        driver.pending = vec![
            queue(0, &[5, 5, 7]),
            queue(1, &[5, 6]),
            queue(2, &[4, 5, 5]),
        ];
        driver.clock = Ts(7);
        driver.flush(Some(Ts(7))).unwrap();
        let released = |driver: &PipelineDriver| -> Vec<(i64, Row)> {
            let entries = driver.changelog().entries().iter();
            entries
                .map(|entry| (entry.ptime.millis(), entry.change.row.clone()))
                .collect()
        };
        let mut expected = vec![
            (4, row!(2i64, 0i64)),
            (5, row!(0i64, 0i64)),
            (5, row!(0i64, 1i64)),
            (5, row!(1i64, 0i64)),
            (5, row!(2i64, 1i64)),
            (5, row!(2i64, 2i64)),
            (6, row!(1i64, 1i64)),
        ];
        assert_eq!(released(&driver), expected);
        // The entry at the clock waits for the clock to pass it.
        assert_eq!(driver.pending[0].len(), 1);
        driver.flush(None).unwrap();
        expected.push((7, row!(0i64, 2i64)));
        assert_eq!(released(&driver), expected);
    }

    /// Bid as in [`engine`], beside the two streams of a seller join.
    fn auction_engine() -> Engine {
        let mut e = engine();
        e.register_stream(
            "Person",
            StreamBuilder::new()
                .column("id", DataType::Int)
                .column("name", DataType::String),
        );
        e.register_stream(
            "Auction",
            StreamBuilder::new()
                .column("id", DataType::Int)
                .column("seller", DataType::Int),
        );
        e
    }

    /// A worker over `sql` with Bid, Person and Auction declared as streams
    /// 0, 1 and 2, and the same query to feed one change at a time.
    fn shard_and_oracle(sql: &str) -> (Shard, RunningQuery) {
        let e = auction_engine();
        let mut shard = Shard::new(e.execute(sql).unwrap());
        for stream in ["bid", "person", "auction"] {
            shard.declare(stream.to_string());
        }
        (shard, e.execute(sql).unwrap())
    }

    fn reads(shard: &Shard) -> Vec<bool> {
        shard.streams.iter().map(|(_, read)| *read).collect()
    }

    /// Feed `events` to the worker as one routed batch and to the oracle per
    /// row, up to its first error; both end in the same state.
    fn assert_feeds_like_the_oracle(
        shard: &mut Shard,
        oracle: &mut RunningQuery,
        events: Vec<(usize, Ts, Row)>,
    ) {
        let oracle_err = events.iter().find_map(|(stream, ptime, row)| {
            let name = ["bid", "person", "auction"][*stream];
            oracle.insert(name, *ptime, row.clone()).err()
        });
        let routed = |(stream, ptime, row)| (stream, ptime, Change::insert(row));
        shard.feed(events.into_iter().map(routed).collect(), 0);
        assert_eq!(
            shard.failure.as_ref().map(Error::to_string),
            oracle_err.as_ref().map(Error::to_string)
        );
        assert_eq!(shard.query.changelog(), oracle.changelog());
        assert_eq!(shard.query.now(), oracle.now());
    }

    #[test]
    fn an_unread_stream_ends_no_run_and_moves_the_clock() {
        let (mut shard, mut oracle) = shard_and_oracle(AGG);
        assert_eq!(reads(&shard), [true, false, false]);
        let bid = |i: i64| (0, Ts(i * 10), row!(i % 2, i, Ts(i * 10)));
        let person = |i: i64| (1, Ts(i * 10), row!(i, "p"));
        let events = vec![person(0), bid(1), bid(2), person(3), bid(4), person(5)];
        assert_feeds_like_the_oracle(&mut shard, &mut oracle, events);
        // One run of three Bids, no event fed per row, and the trailing
        // Person left the clock at its ptime.
        assert!(shard.fed_batch && !shard.fed_rows);
        assert_eq!(shard.query.now(), Ts(50));
        assert_eq!(shard.query.changelog().len(), 4);
    }

    #[test]
    fn an_invalid_unread_event_fails_where_it_stands() {
        let (mut shard, mut oracle) = shard_and_oracle(AGG);
        let bid = |i: i64| (0, Ts(i * 10), row!(0i64, i, Ts(i * 10)));
        let events = vec![
            bid(1),
            (1, Ts(15), row!(7i64, "valid")),
            bid(2),
            (1, Ts(25), row!(8i64)),
            bid(3),
        ];
        assert_feeds_like_the_oracle(&mut shard, &mut oracle, events);
        let failure = shard.failure.as_ref().map(Error::to_string);
        assert_eq!(
            failure.as_deref(),
            Some("execution error: row arity 1 does not match schema arity 2")
        );
        // Exactly the two Bids before it were fed, as one run: insert,
        // retract, insert.
        assert!(shard.fed_batch && !shard.fed_rows);
        assert_eq!(shard.query.changelog().len(), 3);
        assert_eq!(shard.query.now(), Ts(20));
    }

    #[test]
    fn streams_the_plan_joins_still_end_each_others_runs() {
        let sql = "SELECT P.name, A.id FROM Auction A JOIN Person P ON A.seller = P.id";
        let (mut shard, mut oracle) = shard_and_oracle(sql);
        assert_eq!(reads(&shard), [false, true, true]);
        // The auction arrives between its seller's two registrations; had
        // the Person run gone on past it, both matches would carry the
        // auction's ptime instead of one the second registration's.
        let events = vec![
            (1, Ts(10), row!(1i64, "early")),
            (1, Ts(20), row!(2i64, "other")),
            (0, Ts(25), row!(0i64, 1i64, Ts(25))),
            (2, Ts(30), row!(100i64, 1i64)),
            (1, Ts(40), row!(1i64, "late")),
            (1, Ts(50), row!(3i64, "last")),
        ];
        assert_feeds_like_the_oracle(&mut shard, &mut oracle, events);
        // Two Person runs went in as columns, the lone auction per row.
        assert!(shard.fed_batch && shard.fed_rows);
        let ptimes: Vec<Ts> = shard
            .query
            .changelog()
            .entries()
            .iter()
            .map(|e| e.ptime)
            .collect();
        assert_eq!(ptimes, [Ts(30), Ts(40)]);
    }

    #[test]
    fn failed_step_poisons_the_pipeline() {
        let e = engine();
        // A row too short to hold the partition column: the first step
        // fails after the source was polled, so the driver must refuse to
        // continue or checkpoint (the polled events never reached a
        // worker).
        let mut driver = PipelineDriver::new(&e, AGG, sharded(2)).unwrap();
        driver
            .attach_partitioned_source(script(vec![vec![(Ts(0), Row::new(vec![]))]]))
            .unwrap();
        assert!(driver.step().is_err());
        let err = driver.step().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "{err}");
        let err = driver.checkpoint().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "{err}");
    }

    #[test]
    fn attach_refuses_a_partition_column_the_stream_does_not_have() {
        let e = engine();
        let off_the_end = |workers| DriverConfig {
            partition_col: 3,
            ..sharded(workers)
        };
        let source = || script(vec![bids(5, 0)]);
        let mut driver = PipelineDriver::new(&e, AGG, off_the_end(2)).unwrap();
        let err = driver
            .attach_partitioned_source(source())
            .unwrap_err()
            .to_string();
        assert!(err.contains("partition column 3"), "{err}");
        // One worker routes nothing, so the column is never read.
        let mut driver = PipelineDriver::new(&e, AGG, off_the_end(1)).unwrap();
        driver.attach_partitioned_source(source()).unwrap();
        driver.run().unwrap();
    }
}
