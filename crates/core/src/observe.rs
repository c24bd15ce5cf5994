//! Structured tracing and metrics for the streaming runtime.
//!
//! The paper's thesis — one SQL dialect for every layer — extends to the
//! runtime's own health: watermark lag, backpressure, checkpoint cost and
//! wire traffic should be observable *as a stream*, queryable with the same
//! windowed SQL users write against their own data. This module supplies the
//! three pieces that make that possible without any crates.io dependency:
//!
//! * **causal tracing** ([`TraceSpan`], [`TraceSink`], [`install`]): hot
//!   paths open RAII spans whose closed [`TraceRecord`]s go to the installed
//!   sink — normally the process-wide [`FlightRecorder`]. When no sink is
//!   installed a span site costs a single relaxed atomic load.
//! * a log-bucketed latency [`Histogram`] with fixed power-of-two bucket
//!   boundaries, so recorded artifacts (bench JSON, checkpoint summaries)
//!   stay comparable across PRs and merges are order-independent.
//! * a process-wide [`MetricsHub`] where labelled pipeline drivers publish
//!   [`PipelineSnapshot`]s — versioned, event-timed copies of their
//!   [`PipelineMetrics`] — which the
//!   `metrics` source connector turns back into rows with event-time.
//!
//! See `docs/OBSERVABILITY.md` for the span and metric vocabulary.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use onesql_types::Ts;

use crate::connect::PipelineMetrics;

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

/// A consumer of closed [`TraceRecord`]s.
///
/// Implementations must be cheap and non-blocking: spans close inside
/// driver hot loops. The runtime never records while holding its own
/// locks.
pub trait TraceSink: Send + Sync {
    /// Receive one closed span. `record.seq` is 0 until a recorder
    /// assigns one.
    fn record(&self, record: &TraceRecord);
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);

fn trace_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install a global trace sink; spans closed from now on are delivered to
/// it.
///
/// Replaces any previously installed sink. Tracing stays enabled until
/// [`uninstall`] is called.
pub fn install(sink: Arc<dyn TraceSink>) {
    *trace_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(sink);
    TRACE_ON.store(true, Ordering::Release);
}

/// Remove the global trace sink, returning span sites to their
/// single-atomic-load fast path.
pub fn uninstall() {
    TRACE_ON.store(false, Ordering::Release);
    *trace_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Whether a trace sink is currently installed. Racing an [`uninstall`]
/// is benign: a span that closes after it finds no sink.
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Deliver one closed span to the installed sink, if any.
#[cold]
fn emit(record: &TraceRecord) {
    // Clone the Arc out of the slot so the sink runs without the lock held
    // (a sink may itself wrap another sink).
    let sink = trace_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.record(record);
    }
}

/// A plain wall-clock stopwatch for code that records durations into a
/// [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Elapsed microseconds, saturated to `u64`.
    pub fn micros(&self) -> u64 {
        self.0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

// ---------------------------------------------------------------------------
// Causal spans and the flight recorder
// ---------------------------------------------------------------------------

/// A completed causal span: what a [`TraceSink`] receives and the flight
/// recorder's unit of storage.
///
/// Span IDs are process-unique and never 0; `parent == 0` marks a root.
/// IDs embed a per-process epoch in their high 32 bits, so records from a
/// producer process and a consumer process never collide and a parent ID
/// carried across the OSQW wire stays meaningful on the other side.
/// Timestamps are microseconds since the UNIX epoch (anchored once per
/// process, then monotone), so traces from cooperating processes line up
/// on one Chrome-trace timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Recorder-assigned insertion sequence (strictly increasing per
    /// recorder; 0 on a record that has not been recorded yet).
    pub seq: u64,
    /// This span's process-unique ID (never 0).
    pub span: u64,
    /// Parent span ID, or 0 for a root span. The parent may live in
    /// another thread or another process (wire-carried context).
    pub parent: u64,
    /// Stable dot-separated span name, e.g. `driver.round`.
    pub name: &'static str,
    /// Pipeline label in effect when the span opened ("" when unlabelled).
    pub pipeline: String,
    /// Worker index, or -1 outside any worker thread.
    pub worker: i32,
    /// Source partition, or -1 when the span is not partition-scoped.
    pub partition: i32,
    /// Microseconds since the UNIX epoch when the span opened.
    pub start_micros: u64,
    /// Microseconds since the UNIX epoch when the span closed.
    pub end_micros: u64,
}

/// Wall-anchored monotone clock: micros since the UNIX epoch, anchored at
/// first use and advanced by `Instant` so it never regresses.
struct TraceClock {
    base_micros: u64,
    started: Instant,
}

fn trace_clock() -> &'static TraceClock {
    static CLOCK: OnceLock<TraceClock> = OnceLock::new();
    CLOCK.get_or_init(|| TraceClock {
        base_micros: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0),
        started: Instant::now(),
    })
}

/// Microseconds since the UNIX epoch on the process trace clock.
pub fn trace_now_micros() -> u64 {
    let clock = trace_clock();
    clock
        .base_micros
        .saturating_add(clock.started.elapsed().as_micros().min(u64::MAX as u128) as u64)
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// The per-process span-ID epoch: a 32-bit value derived from wall time
/// and the PID, shifted into the high half. Never 0, so no span ID is 0.
fn span_epoch() -> u64 {
    static EPOCH: OnceLock<u64> = OnceLock::new();
    *EPOCH.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = u64::from(std::process::id());
        let mixed = (nanos ^ pid.wrapping_mul(0x9e37_79b9_7f4a_7c15)) & 0xffff_ffff;
        mixed.max(1) << 32
    })
}

fn next_span_id() -> u64 {
    span_epoch() | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
}

/// Sampling divisor for root spans: 1 records every trace, N records one
/// root (and its whole tree) out of every N. Children inherit the root's
/// decision, so sampled traces are always complete.
static TRACE_SAMPLE: AtomicU64 = AtomicU64::new(1);
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Set the root-span sampling divisor (`SET trace = 'sample=N'`); 0 is
/// treated as 1 (record everything).
pub fn set_sample(divisor: u64) {
    TRACE_SAMPLE.store(divisor.max(1), Ordering::Relaxed);
}

/// The current root-span sampling divisor.
pub fn sample_divisor() -> u64 {
    TRACE_SAMPLE.load(Ordering::Relaxed).max(1)
}

fn sample_this_root() -> bool {
    let n = TRACE_SAMPLE.load(Ordering::Relaxed);
    n <= 1 || ROOT_SEQ.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
}

struct ThreadCtx {
    /// Innermost open span on this thread (0 = none).
    current: u64,
    /// Whether the current trace tree is being recorded.
    sampled: bool,
    /// Pipeline label stamped onto records opened on this thread.
    pipeline: Arc<str>,
    /// Worker index stamped onto records opened on this thread.
    worker: i32,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        current: 0,
        sampled: false,
        pipeline: Arc::from(""),
        worker: -1,
    });
}

/// Stamp `label` onto spans subsequently opened on this thread.
pub fn set_thread_pipeline(label: &str) {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if &*ctx.pipeline != label {
            ctx.pipeline = Arc::from(label);
        }
    });
}

/// Stamp `worker` onto spans subsequently opened on this thread (-1 =
/// not a worker thread).
pub fn set_thread_worker(worker: i32) {
    CTX.with(|ctx| ctx.borrow_mut().worker = worker);
}

/// The ID of this thread's innermost open *sampled* span, or 0. This is
/// the value to propagate to another thread or across the wire as a
/// parent: 0 means "don't stitch" (tracing off, or this tree unsampled).
pub fn current_span() -> u64 {
    CTX.with(|ctx| {
        let ctx = ctx.borrow();
        if ctx.sampled {
            ctx.current
        } else {
            0
        }
    })
}

/// RAII causal span: allocates a process-unique ID at open, becomes the
/// thread's current span, and on drop hands its [`TraceRecord`] to the
/// installed [`TraceSink`] (when tracing is enabled and the tree is
/// sampled). When tracing is disabled at open the span is inert: one
/// relaxed atomic load, nothing else.
pub struct TraceSpan {
    span: u64,
    parent: u64,
    sampled: bool,
    name: &'static str,
    pipeline: Option<Arc<str>>,
    worker: i32,
    partition: i32,
    start_micros: u64,
    prev_current: u64,
    prev_sampled: bool,
}

impl TraceSpan {
    fn inert(name: &'static str) -> TraceSpan {
        TraceSpan {
            span: 0,
            parent: 0,
            sampled: false,
            name,
            pipeline: None,
            worker: -1,
            partition: -1,
            start_micros: 0,
            prev_current: 0,
            prev_sampled: false,
        }
    }

    fn open(name: &'static str, explicit_parent: Option<u64>) -> TraceSpan {
        if !enabled() {
            return TraceSpan::inert(name);
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let (parent, sampled) = match explicit_parent {
                Some(p) if p != 0 => (p, true),
                _ if ctx.current != 0 => (ctx.current, ctx.sampled),
                _ => (0, sample_this_root()),
            };
            let span = next_span_id();
            let prev_current = ctx.current;
            let prev_sampled = ctx.sampled;
            ctx.current = span;
            ctx.sampled = sampled;
            TraceSpan {
                span,
                parent,
                sampled,
                name,
                pipeline: Some(ctx.pipeline.clone()),
                worker: ctx.worker,
                partition: -1,
                start_micros: trace_now_micros(),
                prev_current,
                prev_sampled,
            }
        })
    }

    /// Open a root span: a fresh trace tree (subject to the sampling
    /// divisor) unless a span is already open on this thread, in which
    /// case it nests like [`TraceSpan::child`].
    pub fn root(name: &'static str) -> TraceSpan {
        TraceSpan::open(name, None)
    }

    /// Open a child of this thread's current span (root if none).
    pub fn child(name: &'static str) -> TraceSpan {
        TraceSpan::open(name, None)
    }

    /// Open a span under an explicit parent ID — typically one carried
    /// from another thread ([`current_span`]) or across the wire. A
    /// parent of 0 falls back to [`TraceSpan::child`] semantics.
    pub fn with_parent(name: &'static str, parent: u64) -> TraceSpan {
        TraceSpan::open(name, Some(parent))
    }

    /// Stamp a source partition onto the record (builder style).
    pub fn partition(mut self, partition: i32) -> TraceSpan {
        self.partition = partition;
        self
    }

    /// This span's ID if it will be recorded, else 0. Propagate this —
    /// not the raw ID — so unsampled trees don't create orphan children.
    pub fn id(&self) -> u64 {
        if self.sampled {
            self.span
        } else {
            0
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.span == 0 {
            return;
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.current = self.prev_current;
            ctx.sampled = self.prev_sampled;
        });
        if self.sampled && enabled() {
            let record = TraceRecord {
                seq: 0,
                span: self.span,
                parent: self.parent,
                name: self.name,
                pipeline: self
                    .pipeline
                    .take()
                    .map(|p| p.to_string())
                    .unwrap_or_default(),
                worker: self.worker,
                partition: self.partition,
                start_micros: self.start_micros,
                end_micros: trace_now_micros(),
            };
            emit(&record);
        }
    }
}

/// Default ring capacity of the process-wide [`recorder`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

#[derive(Default)]
struct RecorderInner {
    last_seq: u64,
    ring: VecDeque<TraceRecord>,
}

/// A bounded, lock-light ring buffer of [`TraceRecord`]s.
///
/// "Lock-light" means one brief O(1) critical section per record: assign
/// a sequence number, evict the oldest record if full, push. Eviction is
/// strictly oldest-first, and because spans are recorded at *close* (a
/// child closes before its parent on any one thread), a retained child's
/// recorded parent is either still in the ring or was evicted as older —
/// never silently missing while newer records survive. That invariant is
/// what makes partial rings stitchable.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append `record`, assigning and returning its sequence number.
    /// Evicts the oldest record when full.
    pub fn push(&self, mut record: TraceRecord) -> u64 {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.last_seq += 1;
        let seq = inner.last_seq;
        record.seq = seq;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(record);
        seq
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Retained records with a sequence number strictly greater than
    /// `seq`, oldest first (the `trace` connector's cursor read).
    pub fn since(&self, seq: u64) -> Vec<TraceRecord> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .iter()
            .filter(|r| r.seq > seq)
            .cloned()
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained records (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .clear();
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, record: &TraceRecord) {
        self.push(record.clone());
    }
}

/// The process-wide flight recorder. `SET trace = 'on'` installs it as
/// the trace sink; `SHOW TRACE`, the `trace` connector, and
/// `TRACE PIPELINE ... TO` all read it.
pub fn recorder() -> &'static Arc<FlightRecorder> {
    static REC: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    REC.get_or_init(|| Arc::new(FlightRecorder::new(DEFAULT_TRACE_CAPACITY)))
}

/// The stitching closure for one pipeline: records whose pipeline label
/// matches (case-insensitively), plus — transitively — every record
/// linked to those through span/parent IDs. Wire-carried parents pull a
/// producer process's spans into a consumer pipeline's trace and vice
/// versa; that closure is what `TRACE PIPELINE ... TO` exports.
pub fn stitched(records: &[TraceRecord], pipeline: &str) -> Vec<TraceRecord> {
    let mut ids: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.pipeline.eq_ignore_ascii_case(pipeline))
        .flat_map(|r| [r.span, r.parent])
        .filter(|&id| id != 0)
        .collect();
    loop {
        let before = ids.len();
        for r in records {
            if ids.contains(&r.span) || (r.parent != 0 && ids.contains(&r.parent)) {
                ids.insert(r.span);
                if r.parent != 0 {
                    ids.insert(r.parent);
                }
            }
        }
        if ids.len() == before {
            break;
        }
    }
    records
        .iter()
        .filter(|r| r.pipeline.eq_ignore_ascii_case(pipeline) || ids.contains(&r.span))
        .cloned()
        .collect()
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render records as Chrome trace-event JSON (the array form), loadable
/// in `chrome://tracing` or Perfetto.
///
/// Each record becomes one complete (`"ph":"X"`) event: `ts` is the span
/// start, `dur` its length, both in microseconds. Processes on the
/// timeline are pipeline labels (`pid` by order of first appearance, with
/// `process_name` metadata); `tid` is worker + 1 (so non-worker spans are
/// thread 0). Span and parent IDs render as hex strings in `args` — JSON
/// numbers cannot carry 64-bit IDs exactly. Concatenating the record
/// arrays of two processes before rendering yields one merged trace.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut pipelines: Vec<&str> = Vec::new();
    for r in records {
        if !pipelines.contains(&r.pipeline.as_str()) {
            pipelines.push(&r.pipeline);
        }
    }
    let mut out = String::from("[");
    let mut first = true;
    for (idx, label) in pipelines.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"",
            idx + 1
        ));
        json_escape(
            if label.is_empty() {
                "(unlabelled)"
            } else {
                label
            },
            &mut out,
        );
        out.push_str("\"}}");
    }
    for r in records {
        if !first {
            out.push(',');
        }
        first = false;
        let pid = pipelines
            .iter()
            .position(|p| *p == r.pipeline.as_str())
            .unwrap_or(0)
            + 1;
        let tid = i64::from(r.worker) + 1;
        out.push_str("\n{\"name\":\"");
        json_escape(r.name, &mut out);
        out.push_str(&format!(
            "\",\"cat\":\"onesql\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"span\":\"{:#x}\",\"parent\":\"{:#x}\",\"pipeline\":\"",
            r.start_micros,
            r.end_micros.saturating_sub(r.start_micros),
            r.span,
            r.parent,
        ));
        json_escape(&r.pipeline, &mut out);
        out.push_str(&format!(
            "\",\"partition\":{},\"seq\":{}}}}}",
            r.partition, r.seq
        ));
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Number of buckets: one for zero plus one per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-boundary, log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds exactly the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. The boundaries are *fixed forever* (pinned by a
/// golden test) so that histograms recorded in different processes, rounds,
/// or PRs can be merged and compared. All arithmetic saturates; `record`
/// never panics for any `u64` input and merging is commutative and
/// associative (order-independent) as long as no saturation occurs — and
/// saturation itself is absorbing, so any merge order still agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `[low, high]` range of values bucket `idx` covers.
    ///
    /// # Panics
    /// If `idx >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < HISTOGRAM_BUCKETS, "bucket index out of range");
        if idx == 0 {
            (0, 0)
        } else if idx == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (idx - 1), (1u64 << idx) - 1)
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] = self.counts[Self::bucket_of(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (integer division), or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts, indexed by [`Histogram::bucket_of`].
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`): the upper boundary
    /// of the bucket containing the `ceil(q * count)`-th observation, clamped
    /// to the recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Self::bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Convenience: the p50 upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience: the p99 upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Metric rows — the shared (name, kind, value) vocabulary
// ---------------------------------------------------------------------------

/// The kind of a rendered metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone within one pipeline incarnation chain (survives restore).
    Counter,
    /// Point-in-time level; may move in either direction.
    Gauge,
}

impl MetricKind {
    /// Stable lowercase spelling used in result rows.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One rendered metric: the common currency of `SHOW PIPELINES`, the
/// `metrics` source connector, and `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Dot-separated metric name, e.g. `source.Bid.rows`.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The value. Durations are microseconds; watermarks are epoch millis
    /// (`i64::MIN` when still `Watermark::MIN`); unknown lag renders as -1.
    pub value: i64,
}

impl MetricRow {
    /// Build a counter row.
    pub fn counter(name: impl Into<String>, value: u64) -> MetricRow {
        MetricRow {
            name: name.into(),
            kind: MetricKind::Counter,
            value: value.min(i64::MAX as u64) as i64,
        }
    }

    /// Build a gauge row.
    pub fn gauge(name: impl Into<String>, value: i64) -> MetricRow {
        MetricRow {
            name: name.into(),
            kind: MetricKind::Gauge,
            value,
        }
    }
}

// ---------------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------------

/// A versioned, event-timed copy of one pipeline's metrics.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Pipeline label (the `INSERT INTO` sink name under `Session` custody).
    pub pipeline: String,
    /// Event time of the snapshot: the driver's monotone processing clock.
    pub at: Ts,
    /// Process-wide publication sequence number; strictly increasing, so
    /// consumers can skip snapshots they have already rendered.
    pub seq: u64,
    /// Whether the pipeline has finished (entries are kept after finish so
    /// observers never race removal).
    pub finished: bool,
    /// The metrics at publication time.
    pub metrics: PipelineMetrics,
}

#[derive(Default)]
struct HubInner {
    last_seq: u64,
    pipelines: BTreeMap<String, PipelineSnapshot>,
}

/// Process-wide registry of the latest metrics snapshot per labelled
/// pipeline. Drivers publish after every round; the `metrics` source
/// connector and `SHOW PIPELINES` read.
pub struct MetricsHub {
    inner: Mutex<HubInner>,
}

impl MetricsHub {
    fn new() -> MetricsHub {
        MetricsHub {
            inner: Mutex::new(HubInner::default()),
        }
    }

    /// Publish (replace) the snapshot for `pipeline`.
    pub fn publish(&self, pipeline: &str, at: Ts, finished: bool, metrics: PipelineMetrics) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.last_seq += 1;
        let seq = inner.last_seq;
        inner.pipelines.insert(
            pipeline.to_string(),
            PipelineSnapshot {
                pipeline: pipeline.to_string(),
                at,
                seq,
                finished,
                metrics,
            },
        );
    }

    /// The latest snapshot for `pipeline`, if it has ever published.
    pub fn latest(&self, pipeline: &str) -> Option<PipelineSnapshot> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pipelines
            .get(pipeline)
            .cloned()
    }

    /// All current snapshots, ordered by pipeline name.
    pub fn snapshots(&self) -> Vec<PipelineSnapshot> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pipelines
            .values()
            .cloned()
            .collect()
    }

    /// Remove the entry for `pipeline` (used when a pipeline is dropped).
    pub fn clear(&self, pipeline: &str) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pipelines
            .remove(pipeline);
    }
}

/// The process-wide hub.
pub fn hub() -> &'static MetricsHub {
    static HUB: OnceLock<MetricsHub> = OnceLock::new();
    HUB.get_or_init(MetricsHub::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that install a global sink serialize on this lock so they
    /// don't clobber each other's sink mid-flight.
    fn install_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);

        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 158);
        // p50 = 4th of 7 observations -> value 3, bucket [2,3] -> bound 3.
        assert_eq!(h.p50(), 3);
        // p99 lands in the last occupied bucket, clamped to max.
        assert_eq!(h.p99(), 1000);
    }

    #[test]
    fn histogram_extremes_never_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturated
        let mut other = h.clone();
        other.merge(&h);
        assert_eq!(other.count(), 6);
    }

    /// Golden test: the bucket boundaries are part of the public contract.
    /// If this test fails you have changed the histogram geometry, which
    /// breaks comparability of recorded artifacts across PRs — don't.
    #[test]
    fn histogram_bucket_boundaries_are_pinned() {
        assert_eq!(HISTOGRAM_BUCKETS, 65);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        assert_eq!(Histogram::bucket_bounds(4), (8, 15));
        assert_eq!(Histogram::bucket_bounds(10), (512, 1023));
        assert_eq!(Histogram::bucket_bounds(20), (524_288, 1_048_575));
        assert_eq!(Histogram::bucket_bounds(63), (1u64 << 62, (1u64 << 63) - 1));
        assert_eq!(Histogram::bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Buckets tile the whole u64 range with no gaps or overlaps.
        for idx in 1..HISTOGRAM_BUCKETS {
            let (lo, _) = Histogram::bucket_bounds(idx);
            let (_, prev_hi) = Histogram::bucket_bounds(idx - 1);
            assert_eq!(lo, prev_hi + 1, "gap at bucket {idx}");
        }
        // bucket_of agrees with the bounds at every edge.
        for idx in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(Histogram::bucket_of(lo), idx);
            assert_eq!(Histogram::bucket_of(hi), idx);
        }
    }

    #[test]
    fn hub_publishes_versioned_snapshots() {
        let hub = MetricsHub::new();
        let mut m = PipelineMetrics {
            events_in: 5,
            ..PipelineMetrics::default()
        };
        hub.publish("p1", Ts::from_millis(10), false, m.clone());
        m.events_in = 9;
        hub.publish("p1", Ts::from_millis(20), true, m);
        hub.publish("p2", Ts::from_millis(5), false, PipelineMetrics::default());

        let p1 = hub.latest("p1").unwrap();
        assert_eq!(p1.metrics.events_in, 9);
        assert_eq!(p1.at, Ts::from_millis(20));
        assert!(p1.finished);
        let all = hub.snapshots();
        assert_eq!(all.len(), 2);
        assert!(all[0].seq != all[1].seq);
        assert!(hub.latest("p2").unwrap().seq > 0);
        hub.clear("p2");
        assert!(hub.latest("p2").is_none());
    }

    #[test]
    fn metric_row_constructors() {
        let c = MetricRow::counter("events_in", u64::MAX);
        assert_eq!(c.kind, MetricKind::Counter);
        assert_eq!(c.value, i64::MAX); // clamped, not wrapped
        let g = MetricRow::gauge("lag", -1);
        assert_eq!(g.kind.as_str(), "gauge");
        assert_eq!(g.value, -1);
    }

    #[test]
    fn trace_spans_record_causality_and_scope() {
        let _guard = install_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let rec = Arc::new(FlightRecorder::new(1024));
        install(rec.clone());
        set_sample(1);
        set_thread_pipeline("unit_p");
        set_thread_worker(3);

        // Disabled-span path: an inert span neither records nor leaks ctx.
        let wire_parent;
        {
            let round = TraceSpan::root("driver.round");
            assert_ne!(round.id(), 0);
            assert_eq!(current_span(), round.id());
            {
                let ingest = TraceSpan::child("driver.ingest").partition(2);
                assert_eq!(current_span(), ingest.id());
                assert_ne!(ingest.id(), round.id());
            }
            wire_parent = current_span();
        }
        assert_eq!(current_span(), 0);
        // A consumer-side span stitched under a wire-carried parent.
        {
            let _remote = TraceSpan::with_parent("consumer.ingest", wire_parent);
        }
        uninstall();
        set_thread_pipeline("");
        set_thread_worker(-1);

        let records = rec.records();
        assert_eq!(records.len(), 3);
        // Children close before parents: ingest precedes round.
        assert_eq!(records[0].name, "driver.ingest");
        assert_eq!(records[1].name, "driver.round");
        assert_eq!(records[2].name, "consumer.ingest");
        assert_eq!(records[0].parent, records[1].span);
        assert_eq!(records[2].parent, records[1].span);
        assert_eq!(records[0].partition, 2);
        assert_eq!(records[1].partition, -1);
        for r in &records {
            assert_eq!(r.pipeline, "unit_p");
            assert_eq!(r.worker, 3);
            assert_ne!(r.span, 0);
            assert!(r.span >> 32 >= 1, "epoch in high bits");
            assert!(r.end_micros >= r.start_micros);
        }
        assert!(records[0].seq < records[1].seq && records[1].seq < records[2].seq);
        // IDs are unique.
        let mut ids: Vec<u64> = records.iter().map(|r| r.span).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn sampling_keeps_trees_complete() {
        let _guard = install_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let rec = Arc::new(FlightRecorder::new(1024));
        install(rec.clone());
        set_sample(5);
        for _ in 0..10 {
            let _root = TraceSpan::root("sampled.root");
            let _child = TraceSpan::child("sampled.child");
        }
        set_sample(1);
        uninstall();
        let records = rec.records();
        // Exactly 2 of 10 roots sampled, each with its child.
        assert_eq!(records.len(), 4);
        for r in records.iter().filter(|r| r.parent != 0) {
            assert!(
                records.iter().any(|p| p.span == r.parent),
                "child's parent must be recorded with it"
            );
        }
    }

    #[test]
    fn flight_recorder_evicts_oldest_first() {
        let rec = FlightRecorder::new(3);
        assert_eq!(rec.capacity(), 3);
        let mk = |span: u64| TraceRecord {
            seq: 0,
            span,
            parent: 0,
            name: "evict.test",
            pipeline: String::new(),
            worker: -1,
            partition: -1,
            start_micros: 0,
            end_micros: 0,
        };
        for span in 1..=5 {
            rec.push(mk(span));
        }
        let records = rec.records();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.span).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(rec.since(4).len(), 1);
        assert_eq!(rec.len(), 3);
        rec.clear();
        assert!(rec.is_empty());
        // Sequence numbers keep counting after a clear.
        assert_eq!(rec.push(mk(6)), 6);
    }

    #[test]
    fn stitching_follows_wire_links_across_pipelines() {
        let mk = |span: u64, parent: u64, pipeline: &str| TraceRecord {
            seq: 0,
            span,
            parent,
            name: "stitch.test",
            pipeline: pipeline.to_string(),
            worker: -1,
            partition: -1,
            start_micros: 0,
            end_micros: 0,
        };
        let records = vec![
            mk(1, 0, "producer"),  // producer round
            mk(2, 1, "producer"),  // producer emit (id carried on the wire)
            mk(3, 2, "consumer"),  // consumer ingest under the wire parent
            mk(4, 0, "consumer"),  // consumer round
            mk(9, 0, "bystander"), // unrelated pipeline
        ];
        let consumer = stitched(&records, "consumer");
        let spans: Vec<u64> = consumer.iter().map(|r| r.span).collect();
        assert_eq!(spans, vec![1, 2, 3, 4]);
        // And from the producer side the closure pulls the consumer in too.
        let producer = stitched(&records, "PRODUCER");
        let spans: Vec<u64> = producer.iter().map(|r| r.span).collect();
        assert_eq!(spans, vec![1, 2, 3]);
        assert!(stitched(&records, "bystander").iter().all(|r| r.span == 9));
    }

    /// Golden test: the Chrome trace-event JSON for a small fixed trace is
    /// pinned byte-for-byte. Changing it breaks recorded artifacts and
    /// external tooling that parses exports — don't.
    #[test]
    fn chrome_trace_json_is_pinned() {
        let records = vec![
            TraceRecord {
                seq: 1,
                span: 0x1_0000_0002,
                parent: 0x1_0000_0001,
                name: "driver.ingest",
                pipeline: "q7_out".to_string(),
                worker: 0,
                partition: 1,
                start_micros: 1_000_010,
                end_micros: 1_000_050,
            },
            TraceRecord {
                seq: 2,
                span: 0x1_0000_0001,
                parent: 0,
                name: "driver.round",
                pipeline: "q7_out".to_string(),
                worker: -1,
                partition: -1,
                start_micros: 1_000_000,
                end_micros: 1_000_100,
            },
        ];
        let json = chrome_trace_json(&records);
        let expected = concat!(
            "[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"q7_out\"}},\n",
            "{\"name\":\"driver.ingest\",\"cat\":\"onesql\",\"ph\":\"X\",\"ts\":1000010,\"dur\":40,\"pid\":1,\"tid\":1,",
            "\"args\":{\"span\":\"0x100000002\",\"parent\":\"0x100000001\",\"pipeline\":\"q7_out\",\"partition\":1,\"seq\":1}},\n",
            "{\"name\":\"driver.round\",\"cat\":\"onesql\",\"ph\":\"X\",\"ts\":1000000,\"dur\":100,\"pid\":1,\"tid\":0,",
            "\"args\":{\"span\":\"0x100000001\",\"parent\":\"0x0\",\"pipeline\":\"q7_out\",\"partition\":-1,\"seq\":2}}\n",
            "]\n",
        );
        assert_eq!(json, expected);
        // Empty input is a valid (empty) trace.
        assert_eq!(chrome_trace_json(&[]), "[\n]\n");
    }
}
