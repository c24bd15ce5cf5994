//! Allocation guard for the merge's retained output: a row a worker
//! thread built is freed on that worker, which copies its values into its
//! part of the changelog, not on the control thread that merged and
//! rendered it. Freeing it on the control thread costs several times what
//! keeping it does, and the control thread is the bottleneck of a cheap
//! query.
//!
//! A counting global allocator tallies deallocations per thread: the
//! control thread's must grow with the rounds it runs, not with the rows
//! its workers produce.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use onesql_core::connect::replay::Replay;
use onesql_core::{
    ConnectorRegistry, Exports, OptionBag, Session, Sink, SinkConnector, SinkSpec, StreamBuilder,
    StreamRow,
};
use onesql_types::{row, DataType, Result, Ts};

struct Counting;

thread_local! {
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised thread-local without a destructor, which allocates
// nothing and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Deallocations this thread makes while `f` runs.
fn deallocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = DEALLOCATIONS.with(Cell::get);
    let out = f();
    (DEALLOCATIONS.with(Cell::get) - before, out)
}

/// A sink that counts the rows it is handed and keeps none of them.
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

/// NEXMark Q1 on two workers over `ROUNDS` instants of `per_round` bids
/// each (the replay polls one instant per round). Returns the control
/// thread's deallocations while the pipeline runs, and the rows the sink
/// was handed.
fn q1_deallocations(per_round: i64) -> (u64, u64) {
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
    let (deallocations, metrics) = deallocations_in(|| pipeline.run().unwrap());
    assert_eq!(metrics.retained_rows, (ROUNDS * per_round) as u64);
    (deallocations, tally.0.load(Ordering::Relaxed))
}

#[test]
fn the_control_thread_frees_per_round_not_per_row() {
    let (small, small_rows) = q1_deallocations(1_024);
    let (large, large_rows) = q1_deallocations(4_096);
    assert_eq!(small_rows, 16_384);
    assert_eq!(large_rows, 65_536);
    // Four times the rows over the same rounds: had the control thread
    // freed the rows, it would free 49 152 more.
    let more = large.saturating_sub(small);
    assert!(
        more < (large_rows - small_rows) / 16,
        "{small} deallocations for {small_rows} rows, {large} for {large_rows}"
    );
}
