//! Columns in, the same bytes out.
//!
//! - The nexmark source's columnar poll holds exactly the events of its
//!   row poll for the same `max_events`: the same `(stream, ptime, row)`
//!   sequence, watermark, status and offset, over seeds, partition counts,
//!   poll sizes (1, and sizes that cut a stream's run) and seek offsets.
//! - A two-stream `replay` source (row polls, through the rows-to-columns
//!   adaptor) writes the same sink bytes with the row operators
//!   (`vectorize: false`) as with the batch path, at W ∈ {1, 2, 4}, and
//!   the same table at every W.
//! - Pinned digests: the sink bytes (and `events_in` / `bytes_in`) of a
//!   fixed family of replay schedules and of the NEXMark joins Q3 and Q8,
//!   at W ∈ {1, 2, 4}, are those of the row router the columnar one
//!   replaced. A change that moves any byte, any `ptime` or any `ver`
//!   fails here.

use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use onesql_connect::{
    default_registry, AdaptiveBatch, DriverConfig, PartitionedNexmarkSource, PartitionedSource,
    SourceStatus,
};
use onesql_core::connect::replay::Replay;
use onesql_core::{Session, StableHasher};
use onesql_nexmark::queries;
use onesql_types::{row, DataType, Field, Row, Schema, Ts};
use proptest::prelude::*;

/// A fresh file path: the tests of this file run in parallel.
fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("onesql_columnar_source_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.csv", NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn config(workers: usize, batch: Option<usize>, vectorize: bool) -> DriverConfig {
    let mut config = DriverConfig {
        workers,
        vectorize,
        ..DriverConfig::default()
    };
    if let Some(batch) = batch {
        config.batch_size = batch;
        config.adaptive = AdaptiveBatch {
            min_batch: batch,
            max_batch: batch,
        };
    }
    config
}

/// A seeded schedule over `Bid (auction, price, dateTime)` and
/// `Person (id, name)`: inserts, retractions of earlier bids, watermarks
/// and clock advances, with ptimes that repeat and event times that lag.
fn schedule(seed: u64) -> Replay {
    let bid = Schema::new(vec![
        Field::new("auction", DataType::Int),
        Field::new("price", DataType::Int),
        Field::event_time("dateTime"),
    ]);
    let person = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::String),
    ]);
    let mut replay = Replay::new([("Bid", bid), ("Person", person)]);
    let mut state = seed
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as i64
    };
    let mut second = 0i64;
    let mut bids: Vec<Row> = Vec::new();
    for _ in 0..400 {
        second += next() % 3;
        let at = Ts(second * 1000);
        match next() % 20 {
            0..=10 => {
                let lag = next() % 5;
                let bid = row!(next() % 7, next() % 50, Ts((second - lag) * 1000));
                bids.push(bid.clone());
                replay.insert(at, "Bid", bid);
            }
            11..=13 if !bids.is_empty() => {
                let i = next() as usize % bids.len();
                replay.retract(at, "Bid", bids.swap_remove(i));
            }
            11..=16 => {
                let person = row!(next() % 7, format!("p{}", next() % 4));
                replay.insert(at, "Person", person);
            }
            17 | 18 => {
                replay.watermark(at, Ts((second - 6) * 1000));
            }
            _ => {
                replay.advance(at);
            }
        }
    }
    replay
}

/// One join of the two streams, one aggregate that leaves `Person`
/// unread, one that fires processing-time timers.
const REPLAY_SQL: [&str; 3] = [
    "SELECT P.name, B.price FROM Bid B JOIN Person P ON B.auction = P.id EMIT STREAM",
    "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction EMIT STREAM",
    "SELECT auction, COUNT(*) FROM Bid GROUP BY auction \
     EMIT STREAM AFTER DELAY INTERVAL '3' SECONDS",
];

/// Run `sql` over `schedule(seed)` into a CSV file: the file's bytes, the
/// events and bytes ingested, and the table.
fn run_replay(seed: u64, sql: &str, config: DriverConfig) -> (Vec<u8>, u64, u64, Vec<Row>) {
    let sink = scratch();
    let mut registry = default_registry();
    registry.register_source("replay", schedule(seed));
    let mut session = Session::new(registry);
    session.set_driver_config(config);
    let script = format!(
        "CREATE SOURCE feed WITH (connector = 'replay');
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out {sql};",
        sink.display()
    );
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let metrics = pipeline.run().unwrap();
    let bytes = std::fs::read(&sink).unwrap();
    std::fs::remove_file(&sink).unwrap();
    let table = pipeline.table().unwrap();
    (bytes, metrics.events_in, metrics.bytes_in, table)
}

/// Run nexmark `sql` (4 partitions) into a CSV file: the file's bytes and
/// the events and bytes ingested.
fn run_nexmark(seed: u64, sql: &str, config: DriverConfig) -> (Vec<u8>, u64, u64) {
    let sink = scratch();
    let mut session = onesql_connect::session();
    session.set_driver_config(config);
    let script = format!(
        "CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = {seed}, events = 3000, partitions = 4);
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out {sql} EMIT STREAM;",
        sink.display()
    );
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let metrics = pipeline.run().unwrap();
    let bytes = std::fs::read(&sink).unwrap();
    std::fs::remove_file(&sink).unwrap();
    (bytes, metrics.events_in, metrics.bytes_in)
}

/// What a run is pinned by: its sink bytes and its ingest counters.
fn fold(digest: &mut StableHasher, bytes: &[u8], events: u64, payload: u64) {
    digest.write(bytes);
    digest.write_u64(events);
    digest.write_u64(payload);
}

/// Per worker count: the replay family's digest, Q3's and Q8's.
fn digests(workers: usize) -> [u64; 3] {
    let mut replay = StableHasher::seeded(0);
    for seed in 0..8 {
        for sql in REPLAY_SQL {
            for batch in [None, Some(1), Some(5)] {
                let (bytes, events, payload, _) =
                    run_replay(seed, sql, config(workers, batch, true));
                fold(&mut replay, &bytes, events, payload);
            }
        }
    }
    let mut joins = [StableHasher::seeded(0), StableHasher::seeded(0)];
    for (digest, sql) in joins.iter_mut().zip([queries::Q3, queries::Q8]) {
        for seed in [1, 2] {
            for batch in [None, Some(7)] {
                let (bytes, events, payload) = run_nexmark(seed, sql, config(workers, batch, true));
                fold(digest, &bytes, events, payload);
            }
        }
    }
    [replay.finish(), joins[0].finish(), joins[1].finish()]
}

/// The digests the row router wrote, per W ∈ {1, 2, 4}: replay, Q3, Q8.
const PINNED: [(usize, [u64; 3]); 3] = [
    (
        1,
        [
            11732134410012712358,
            12026639470834529102,
            18338735887187222729,
        ],
    ),
    (
        2,
        [
            13887320285275308023,
            13396075361079583208,
            4046660673496688763,
        ],
    ),
    (
        4,
        [
            12924219132259583500,
            1374766285673834568,
            17449199560765011625,
        ],
    ),
];

#[test]
fn sink_bytes_are_the_row_routers() {
    let got = PINNED.map(|(workers, _)| (workers, digests(workers)));
    println!("{got:?}");
    assert_eq!(got, PINNED, "per W: replay, Q3, Q8");
}

/// Poll partition `p` of both sources with `max_events`, one by rows and
/// one by columns: the same events, progress and offset.
fn assert_same_poll(
    rows: &mut PartitionedNexmarkSource,
    cols: &mut PartitionedNexmarkSource,
    p: usize,
    max_events: usize,
) -> SourceStatus {
    let by_rows = rows.poll_partition(p, max_events).unwrap();
    let by_cols = cols.poll_partition_columns(p, max_events).unwrap();
    assert_eq!(by_cols.columns.events(), by_rows.events);
    assert_eq!(by_cols.watermark, by_rows.watermark);
    assert_eq!(by_cols.status, by_rows.status);
    assert_eq!(cols.offset(p), rows.offset(p));
    by_rows.status
}

proptest! {
    #[test]
    fn nexmark_columnar_polls_are_its_row_polls(
        seed in 0u64..1_000,
        partitions in 1usize..5,
        events in 0u64..2_000,
        sizes in prop::collection::vec(
            prop_oneof![Just(1usize), Just(3), Just(46), Just(49), Just(50), 2usize..300],
            1..6,
        ),
        seek in 0u64..600,
    ) {
        let mut rows = PartitionedNexmarkSource::seeded(seed, events, partitions);
        let mut cols = PartitionedNexmarkSource::seeded(seed, events, partitions);
        let per_part = events / partitions as u64;
        for p in 0..partitions {
            let at = seek.min(per_part);
            rows.seek(p, at).unwrap();
            cols.seek(p, at).unwrap();
            prop_assert_eq!(cols.offset(p), at);
        }
        let mut live = vec![true; partitions];
        let mut polls = sizes.iter().cycle();
        while live.iter().any(|&l| l) {
            for (p, alive) in live.iter_mut().enumerate() {
                if *alive {
                    let size = *polls.next().unwrap();
                    *alive = assert_same_poll(&mut rows, &mut cols, p, size)
                        != SourceStatus::Finished;
                }
            }
        }
    }

    #[test]
    fn a_replayed_two_stream_source_writes_the_row_operators_bytes(
        seed in 0u64..10_000,
        sql in 0usize..3,
        batch in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4)), Just(Some(64))],
    ) {
        let mut tables = Vec::new();
        for workers in [1, 2, 4] {
            let columns = run_replay(seed, REPLAY_SQL[sql], config(workers, batch, true));
            let rows = run_replay(seed, REPLAY_SQL[sql], config(workers, batch, false));
            prop_assert_eq!(&columns.0, &rows.0, "W = {}", workers);
            prop_assert_eq!((columns.1, columns.2), (rows.1, rows.2));
            tables.push(columns.3);
        }
        prop_assert_eq!(&tables[0], &tables[1]);
        prop_assert_eq!(&tables[0], &tables[2]);
    }
}
