//! Durable-checkpoint latency: what a periodic `CHECKPOINT PIPELINE`
//! costs a running pipeline.
//!
//! `checkpoint_roundtrip` measures the full cycle on a mid-stream sharded
//! NEXMark pipeline — barrier + snapshot (`checkpoint()`), serialize +
//! persist (`CheckpointStore::save`, atomic tmp-rename with CRC), and
//! restore in a "fresh process" (`open` + `load_latest`) — plus the
//! serialize-only and persist-only components, so regressions point at a
//! layer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use onesql_connect::{register_nexmark_streams, PartitionedNexmarkSource};
use onesql_core::durable::CheckpointStore;
use onesql_core::{Engine, PipelineDriver, ShardedConfig};
use onesql_state::Codec;

const EVENTS: u64 = 20_000;
const PARTS: usize = 4;
const WORKERS: usize = 2;

const SQL: &str = "SELECT auction, COUNT(*), SUM(price), MAX(price) \
     FROM Bid GROUP BY auction EMIT STREAM";

/// A sharded NEXMark pipeline stepped to roughly half-stream, where
/// operator state is warm and a checkpoint is representative.
fn mid_stream_driver() -> PipelineDriver {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    engine
        .attach_partitioned_source(Box::new(PartitionedNexmarkSource::seeded(
            42, EVENTS, PARTS,
        )))
        .expect("streams registered");
    let mut driver = engine
        .run_sharded_pipeline(SQL, ShardedConfig::new(WORKERS))
        .expect("pipeline plans");
    while driver.events_in() < EVENTS / 2 {
        driver.step().expect("step");
    }
    driver
}

fn bench_checkpoint(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("onesql_ckpt_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut driver = mid_stream_driver();
    let sample = driver.checkpoint().expect("checkpoint");
    let encoded = sample.to_bytes();

    let mut group = c.benchmark_group("checkpoint");

    // Codec only: checkpoint struct -> bytes -> checkpoint struct.
    group.bench_function(format!("serialize_{}B", encoded.len()), |b| {
        b.iter(|| black_box(sample.to_bytes()).len())
    });
    group.bench_function("deserialize", |b| {
        b.iter(|| {
            onesql_core::PipelineCheckpoint::from_bytes(black_box(&encoded))
                .expect("round trip")
                .epoch
        })
    });

    // Persist only: save into a store (epochs advance per iteration,
    // retention pruning included — the steady-state disk cost).
    let persist_dir = dir.join("persist");
    let mut store = CheckpointStore::create(&persist_dir, "bench", Vec::new(), 3).expect("store");
    let mut epoch = 0u64;
    group.bench_function("persist", |b| {
        b.iter(|| {
            epoch += 1;
            let mut cp = sample.clone();
            cp.epoch = epoch;
            store.save(&cp).expect("save")
        })
    });

    // The full operational cycle: live barrier snapshot, durable save,
    // then a cold open + load as a restoring process would do it.
    let cycle_dir = dir.join("cycle");
    let mut cycle_store =
        CheckpointStore::create(&cycle_dir, "bench", Vec::new(), 3).expect("store");
    group.bench_function("checkpoint_roundtrip", |b| {
        b.iter(|| {
            let cp = driver.checkpoint().expect("barrier + snapshot");
            let saved = cycle_store.save(&cp).expect("persist");
            let reopened = CheckpointStore::open(&cycle_dir).expect("open");
            let (epoch, restored) = reopened.load_latest().expect("load");
            assert_eq!((epoch, restored.epoch), (saved, saved));
            epoch
        })
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
