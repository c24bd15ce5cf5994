//! Allocation guard for the output path: no `Row` is built between the
//! operator that produces an output change and a sink that encodes
//! columns. Workers record their output as columnar segments, the driver
//! moves those segments through the merge into its retained log, and the
//! sinks read them as a `StreamBatch`; none of it costs an allocation per
//! output row, on any thread.
//!
//! A counting global allocator tallies allocations and deallocations per
//! thread. Q1's shape runs on two workers over the same number of rounds
//! with four times the rows a round: no thread's counts may grow with the
//! rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use onesql_core::connect::replay::Replay;
use onesql_core::{
    ConnectorRegistry, Exports, OptionBag, Session, Sink, SinkConnector, SinkSpec, StreamBatch,
    StreamBuilder, StreamRow,
};
use onesql_types::{row, DataType, Result, Ts};

struct Counting;

/// Threads that have allocated get a slot each, in order; past the last
/// they share it.
const SLOTS: usize = 64;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static DEALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's slot.
fn slot() -> usize {
    SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            let next = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(next.min(SLOTS - 1));
        }
        slot.get()
    })
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are atomic
// counters and a const-initialised thread-local without a destructor,
// none of which allocates, so nothing re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS[slot()].fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS[slot()].fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS[slot()].fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every slot's `(allocations, deallocations)`.
fn counts() -> Vec<(u64, u64)> {
    let read = |i: usize| {
        let allocations = ALLOCATIONS[i].load(Ordering::Relaxed);
        (allocations, DEALLOCATIONS[i].load(Ordering::Relaxed))
    };
    (0..SLOTS).map(read).collect()
}

/// What each thread that ran during `f` allocated and freed: the calling
/// thread's counts, and the other threads' summed.
fn per_thread<T>(f: impl FnOnce() -> T) -> ((u64, u64), (u64, u64), T) {
    let caller = slot();
    let before = counts();
    let out = f();
    let after = counts();
    let delta = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
    let others = (0..SLOTS).filter(|&i| i != caller).map(delta);
    let others = others.fold((0, 0), |sum, (a, d)| (sum.0 + a, sum.1 + d));
    (delta(caller), others, out)
}

/// A sink that counts the rows it is handed, reading the columnar batch
/// as it comes and keeping none of it.
#[derive(Clone, Default)]
struct Tally(Arc<AtomicU64>);

impl Sink for Tally {
    fn name(&self) -> &str {
        "tally"
    }
    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        self.0.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn write_batch(&mut self, batch: &StreamBatch<'_>) -> Result<()> {
        self.0.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

impl SinkConnector for Tally {
    fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> Result<()> {
        Ok(())
    }
    fn build(&self, _: &SinkSpec, _: &mut OptionBag, _: &mut Exports) -> Result<Box<dyn Sink>> {
        Ok(Box::new(self.clone()))
    }
}

const ROUNDS: i64 = 16;

/// One run's counts: the control thread's, the workers' (summed), and
/// the rows the sink was handed.
struct Run {
    control: (u64, u64),
    workers: (u64, u64),
    rows: u64,
}

/// NEXMark Q1 on two workers over `ROUNDS` instants of `per_round` bids
/// each (the replay polls one instant per round).
fn q1(per_round: i64) -> Run {
    let bid = StreamBuilder::new()
        .column("auction", DataType::Int)
        .column("bidder", DataType::Int)
        .column("price", DataType::Int)
        .event_time_column("dateTime");
    let mut bids = Replay::new([("Bid", bid.build())]);
    for round in 0..ROUNDS {
        for i in 0..per_round {
            let n = round * per_round + i;
            bids.insert(Ts(round), "Bid", row!(n % 1_000, n % 97, n, Ts(n)));
        }
    }
    let tally = Tally::default();
    let mut registry = ConnectorRegistry::new();
    registry.register_source("replay", bids);
    registry.register_sink("tally", tally.clone());
    let mut pipeline = Session::new(registry)
        .execute_script(&format!(
            "SET workers = 2;
             SET batch_size = {per_round};
             SET max_batch = {per_round};
             CREATE SOURCE feed WITH (connector = 'replay');
             CREATE SINK out WITH (connector = 'tally');
             INSERT INTO out
               SELECT auction, bidder, price * 89 / 100 AS price_eur, dateTime FROM Bid;"
        ))
        .unwrap()
        .into_pipeline()
        .unwrap();
    assert_eq!(pipeline.workers(), 2);
    let (control, workers, retained) = per_thread(|| pipeline.run().unwrap().retained_rows);
    assert_eq!(retained, (ROUNDS * per_round) as u64);
    Run {
        control,
        workers,
        rows: tally.0.load(Ordering::Relaxed),
    }
}

#[test]
fn no_row_between_operator_and_sink() {
    let small = q1(1_024);
    let large = q1(4_096);
    assert_eq!(small.rows, 16_384);
    assert_eq!(large.rows, 65_536);
    // Four times the rows over the same rounds: a row built per output
    // change anywhere on the path would add 49 152 on some thread.
    let bound = (large.rows - small.rows) / 16;
    for (thread, small, large) in [
        ("control", small.control, large.control),
        ("workers", small.workers, large.workers),
    ] {
        let report = format!("{thread}: {small:?} for 16 384 rows, {large:?} for 65 536");
        assert!(
            large.0.saturating_sub(small.0) < bound,
            "allocations, {report}"
        );
        assert!(
            large.1.saturating_sub(small.1) < bound,
            "deallocations, {report}"
        );
    }
}
