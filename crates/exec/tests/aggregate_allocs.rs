//! Allocation guard for the keyed aggregate's batch path: folding a batch
//! over groups already in state, and recording its output in the
//! changelog, costs a number of heap allocations bounded per *batch*. The
//! changelog takes the output batch's columns as they are, so recording
//! builds no row.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests of this binary can run in parallel without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onesql_exec::aggregate::Aggregate;
use onesql_exec::executor::{OpNode, SourceInfo};
use onesql_exec::simple::{Project, Source};
use onesql_exec::window::Window;
use onesql_exec::Executor;
use onesql_plan::{AggCall, AggFunc, ScalarExpr, WindowKind};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{row, DataType, Duration, Field, Schema, Ts};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised thread-local without a destructor, which allocates
// nothing and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROWS: i64 = 4_096;

/// Q5's shape: `SELECT auction, wend, COUNT(*), SUM(price)` grouped by
/// `(auction, wend)` over a hopping window of `Bid(auction, price, ts)`,
/// under the identity projection the binder puts above an aggregate.
fn hop_aggregate_project() -> Executor {
    let bid = SourceInfo {
        id: 0,
        table: "bid".into(),
        as_of: None,
    };
    let hop = WindowKind::Hop {
        dur: Duration::from_minutes(2),
        hopsize: Duration::from_minutes(1),
        offset: Duration::ZERO,
    };
    // The window appends `wstart` and `wend` as columns 3 and 4.
    let aggregate = Aggregate::new(
        vec![ScalarExpr::col(0), ScalarExpr::col(4)],
        vec![
            AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            },
        ],
        Some(1),
        Duration::ZERO,
        true,
    );
    let identity = Project::new((0..4).map(ScalarExpr::col).collect());
    let tree = OpNode::unary(
        Box::new(identity),
        OpNode::unary(
            Box::new(aggregate),
            OpNode::unary(
                Box::new(Window::new(hop, 2)),
                OpNode::leaf(Box::new(Source), Some(bid)),
            ),
        ),
    );
    let schema = Schema::new(vec![
        Field::new("auction", DataType::Int),
        Field::event_time("wend"),
        Field::new("bids", DataType::Int),
        Field::new("total", DataType::Int),
    ]);
    Executor::new(tree, Arc::new(schema))
}

/// `ROWS` bids over 97 auctions and a few minutes of event time, fed from
/// processing time `from` on.
fn bids(from: i64) -> ChangeBatch {
    let changes: Vec<(Ts, Change)> = (0..ROWS)
        .map(|i| {
            let bid = row!(i % 97, 100 + i % 13, Ts(i * 53));
            (Ts(from + i), Change::insert(bid))
        })
        .collect();
    ChangeBatch::from_changes(&changes).unwrap()
}

#[test]
fn a_batch_over_seen_groups_allocates_per_batch_not_per_row() {
    let mut executor = hop_aggregate_project();
    assert!(executor.supports_batches("bid"));
    // The first batch makes every group: a key row and accumulators each.
    executor.feed_batch("bid", &bids(0)).unwrap();
    let seen = executor.changelog().len();
    let groups = executor.state_metrics().keys;
    assert!(groups > 97, "{groups} groups");

    let second = bids(ROWS);
    let allocations = allocations_in(|| executor.feed_batch("bid", &second).unwrap());
    assert_eq!(executor.state_metrics().keys, groups, "no group is new");
    // Two windows per bid, a retraction and an insert per window.
    let recorded = (executor.changelog().len() - seen) as u64;
    assert_eq!(recorded, 4 * ROWS as u64);
    // Nothing the operators or the changelog allocate grows with the
    // batch.
    assert!(
        allocations < 64,
        "{allocations} allocations for {ROWS} rows in, {recorded} recorded"
    );
}
