//! Allocation guard for the input path: no `Row` is built between a
//! columnar source and the operator that reads it. The nexmark source
//! generates straight into typed lanes (its constant strings built once
//! per source), the driver hashes each batch's route-key column into
//! selection vectors and sends each worker views of the poll, and the
//! workers feed the views as batches; none of it costs an allocation per
//! input event, on any thread.
//!
//! A counting global allocator tallies allocations and deallocations per
//! thread. NEXMark Q1 runs on two workers over a 4-partition source for
//! the same number of rounds with four times the events a round: no
//! thread's counts may grow by more than 0.1 per added event. (A person's
//! email is the one string generated per event: 1 in 50 events.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use onesql_connect::{default_registry, AdaptiveBatch, DriverConfig};
use onesql_core::{
    Exports, OptionBag, Session, Sink, SinkConnector, SinkSpec, StreamBatch, StreamRow,
};
use onesql_nexmark::queries;
use onesql_types::Result;

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

const ROUNDS: u64 = 16;
const PARTITIONS: u64 = 4;

/// One run's counts: the control thread's, the workers' (summed), the
/// events ingested and the rows the sink was handed.
struct Run {
    control: (u64, u64),
    workers: (u64, u64),
    events: u64,
    rows: u64,
}

/// NEXMark Q1 on two workers over a 4-partition source that `ROUNDS`
/// rounds of `per_poll` events a partition drain.
fn q1(per_poll: u64) -> Run {
    let events = ROUNDS * PARTITIONS * per_poll;
    let tally = Tally::default();
    let mut registry = default_registry();
    registry.register_sink("tally", tally.clone());
    let mut session = Session::new(registry);
    let batch = per_poll as usize;
    session.set_driver_config(DriverConfig {
        workers: 2,
        batch_size: batch,
        adaptive: AdaptiveBatch {
            min_batch: batch,
            max_batch: batch,
        },
        ..DriverConfig::default()
    });
    let script = format!(
        "CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {events}, partitions = {PARTITIONS});
         CREATE SINK out WITH (connector = 'tally');
         INSERT INTO out {};",
        queries::Q1
    );
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    assert_eq!(pipeline.workers(), 2);
    let (control, workers, metrics) = per_thread(|| pipeline.run().unwrap());
    assert_eq!(metrics.rounds, ROUNDS);
    Run {
        control,
        workers,
        events: metrics.events_in,
        rows: tally.0.load(Ordering::Relaxed),
    }
}

#[test]
fn no_row_between_source_and_operator() {
    // One-time setup (lazy statics, thread-locals) lands here, not in
    // either measured run.
    q1(16);
    let small = q1(512);
    let large = q1(2_048);
    assert_eq!(small.events, 32_768);
    assert_eq!(large.events, 131_072);
    // Q1 passes every Bid through: 46 of every 50 events.
    assert!(small.rows > small.events * 9 / 10, "{} rows", small.rows);
    assert!(large.rows > large.events * 9 / 10, "{} rows", large.rows);
    // Four times the events over the same rounds: a row (or a string)
    // built per event anywhere on the input path would add ~98 000 on some
    // thread.
    let added = large.events - small.events;
    let bound = added / 10;
    for (thread, small, large) in [
        ("control", small.control, large.control),
        ("workers", small.workers, large.workers),
    ] {
        let report = format!(
            "{thread}: {small:?} for {} events, {large:?} for {} (bound {bound} more)",
            32_768, 131_072
        );
        println!("{report}");
        assert!(
            large.0.saturating_sub(small.0) <= bound,
            "allocations, {report}"
        );
        assert!(
            large.1.saturating_sub(small.1) <= bound,
            "deallocations, {report}"
        );
    }
}
