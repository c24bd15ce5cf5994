//! Allocation guard for the wire: no `Row` is built between the producer's
//! operator and the consumer's operator. The `net` sink writes the
//! operator's columns into the open frame's lanes, a closed frame is
//! encoded once into the replay spool, the consumer's reader thread
//! decodes each frame into one dense batch per (stream, arity), and the
//! consumer's driver feeds those batches as they are; none of it costs an
//! allocation per event, on any thread.
//!
//! A counting global allocator tallies allocations and deallocations per
//! thread. NEXMark → Q0 → `net` sink runs into a `net` source → filter,
//! for the same number of rounds and frames with four times the events in
//! each: the producer's control thread, the consumer's control thread and
//! the other threads together (the connection's reader thread, the
//! acceptor, the ack reader, the workers) may each grow by at most 0.1 per
//! added event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use onesql_connect::{default_registry, session, AdaptiveBatch, DriverConfig, NetAddr};
use onesql_core::{
    Exports, OptionBag, Session, Sink, SinkConnector, SinkSpec, StreamBatch, StreamRow,
};
use onesql_nexmark::queries;
use onesql_types::Result;

struct Counting;

/// Threads that have allocated get a slot each, in order; past the last
/// they share it.
const SLOTS: usize = 256;

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

/// A sink that counts the rows it is handed, keeping none of them.
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

fn fixed(batch: usize) -> DriverConfig {
    DriverConfig {
        batch_size: batch,
        adaptive: AdaptiveBatch {
            min_batch: batch,
            max_batch: batch,
        },
        ..DriverConfig::default()
    }
}

/// One run's counts per thread, and the events the consumer ingested.
struct Run {
    producer: (u64, u64),
    consumer: (u64, u64),
    others: (u64, u64),
    events: u64,
    rows: u64,
}

/// NEXMark Q0 over the wire: `ROUNDS` producer polls of `per_poll` events,
/// frames of `per_poll` events, consumer polls of `per_poll`.
fn q0_over_the_wire(per_poll: u64) -> Run {
    let batch = per_poll as usize;
    let tally = Tally::default();
    let mut registry = default_registry();
    registry.register_sink("tally", tally.clone());
    let mut consumer_session = Session::new(registry);
    consumer_session.set_driver_config(fixed(batch));
    let mut consumer = consumer_session
        .execute_script(
            "CREATE SOURCE feed (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                                 WATERMARK FOR dateTime)
               WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
             CREATE SINK out WITH (connector = 'tally');
             INSERT INTO out SELECT auction, price FROM feed WHERE auction % 123 = 0;",
        )
        .unwrap()
        .into_pipeline()
        .unwrap();
    let addr = consumer_session
        .take_handle::<NetAddr>("feed")
        .expect("net source exports its bound address");
    let events = ROUNDS * per_poll;
    let producer_script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {events});
         CREATE SINK wire WITH (connector = 'net', addr = '{addr}', stream = 'feed',
                                batch_events = {per_poll});
         INSERT INTO wire {} EMIT STREAM;",
        queries::Q0
    );
    let (slot_tx, slot_rx) = mpsc::channel();
    let (done, done_rx) = mpsc::channel::<()>();
    let before = counts();
    let producer = std::thread::spawn(move || {
        slot_tx.send(slot()).unwrap();
        let mut session = session();
        session.set_driver_config(fixed(batch));
        let mut pipeline = session
            .execute_script(&producer_script)
            .unwrap()
            .into_pipeline()
            .unwrap();
        pipeline.run().unwrap();
        // The socket stays open until the consumer has read it all.
        let _ = done_rx.recv();
    });
    let metrics = consumer.run().unwrap();
    done.send(()).unwrap();
    producer.join().unwrap();
    let after = counts();
    let producer_slot = slot_rx.recv().unwrap();
    let consumer_slot = slot();
    let delta = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
    let others = (0..SLOTS)
        .filter(|&i| i != producer_slot && i != consumer_slot)
        .map(delta)
        .fold((0, 0), |sum, (a, d)| (sum.0 + a, sum.1 + d));
    Run {
        producer: delta(producer_slot),
        consumer: delta(consumer_slot),
        others,
        events: metrics.events_in,
        rows: tally.0.load(Ordering::Relaxed),
    }
}

#[test]
fn no_row_across_the_wire() {
    // One-time setup (lazy statics, thread-locals) lands here, not in
    // either measured run.
    q0_over_the_wire(16);
    let small = q0_over_the_wire(512);
    let large = q0_over_the_wire(2_048);
    // Q0 ships every Bid: 46 of every 50 events.
    assert!(
        small.events > ROUNDS * 512 * 9 / 10,
        "{} events",
        small.events
    );
    assert!(
        large.events > ROUNDS * 2_048 * 9 / 10,
        "{} events",
        large.events
    );
    assert!(small.rows > 0 && large.rows > small.rows);
    // Four times the events over the same rounds and frames: a row (or a
    // value) built per event anywhere on the way would add ~90 000 on
    // some thread.
    let added = large.events - small.events;
    let bound = added / 10;
    for (thread, small, large) in [
        ("producer control", small.producer, large.producer),
        ("consumer control", small.consumer, large.consumer),
        ("reader and others", small.others, large.others),
    ] {
        let report = format!("{thread}: {small:?}, then {large:?} for {added} more events");
        println!("{report}");
        assert!(
            large.0.saturating_sub(small.0) <= bound,
            "allocations, {report} (bound {bound})"
        );
        assert!(
            large.1.saturating_sub(small.1) <= bound,
            "deallocations, {report} (bound {bound})"
        );
    }
}
