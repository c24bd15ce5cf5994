//! `ckpt-groupby`: keyed state used the other way — snapshot, encode,
//! persist, decode, install. A `GROUP BY auction` pipeline takes a durable
//! checkpoint every twelfth of its input, is killed (pipeline and session
//! dropped) between the sixth and seventh, is restored in a fresh session
//! and runs to completion. Its sink bytes must equal an uninterrupted
//! run's: exactly-once, checked on every run.

use std::path::Path;
use std::time::Instant;

use onesql_connect::SqlPipeline;
use onesql_core::{CheckpointStore, PipelineCheckpoint};
use onesql_state::Codec;
use onesql_types::Duration as EventDuration;

use crate::gate::{digest_file, Gate};
use crate::layers::median_micros;
use crate::report::{median, secs, Metrics};
use crate::tracing::{spanned, Tracer};
use crate::workloads::nx::{
    nexmark_layers, oracle_check, pass_sink, sharded_pass, sharded_script, WORKERS,
};
use crate::workloads::{assemble, check_pass, drive, ClosedLoop, Cx, Driven, Pass};

/// The query: three aggregates per auction, unwindowed, so state grows
/// with the number of auctions seen.
const SQL: &str = "SELECT auction, COUNT(*), SUM(price), MAX(price) FROM Bid GROUP BY auction";

/// Checkpoints per uninterrupted run.
const CHECKPOINTS: u64 = 12;

/// The workload's script. A round of the default adaptive driver grows to
/// 16 384 events, so an input under ~36 000 events (`--scale` in tests;
/// never the contract's sizes, whose quarter is 90 000) can be drained by
/// the very round that crosses the kill point. Small inputs therefore pin
/// a small batch, so that the kill-and-restore path runs at every scale.
fn script(seed: u64, events: u64, sink: &Path) -> String {
    let knobs = if events < 40_000 {
        "SET batch_size = 32; SET max_batch = 32; "
    } else {
        ""
    };
    format!(
        "{knobs}{}",
        sharded_script(SQL, seed, events, WORKERS, sink)
    )
}

/// The workload.
#[derive(Debug)]
pub struct CkptGroupBy;

/// `checkpoint_to` whenever `ingested` crosses the next multiple of
/// `interval`, recording each one's wall in milliseconds.
struct Checkpointer<'a> {
    store: &'a Path,
    interval: u64,
    /// Events in the whole input.
    total: u64,
    next: u64,
    walls_ms: Vec<f64>,
}

impl Checkpointer<'_> {
    fn after_round(&mut self, pipeline: &mut SqlPipeline, ingested: u64) {
        // The round that drains the sources also finishes the pipeline,
        // and a finished pipeline cannot be checkpointed.
        if ingested < self.next || ingested >= self.total {
            return;
        }
        while self.next <= ingested {
            self.next += self.interval;
        }
        let start = Instant::now();
        spanned("bench.checkpoint_to", || pipeline.checkpoint_to(self.store))
            .expect("checkpoint_to");
        self.walls_ms.push(secs(start.elapsed()) * 1e3);
    }
}

/// The interrupted run: incarnation one up to the kill, incarnation two
/// from the last durable epoch to the end.
fn interrupted_pass(
    script: &str,
    sink: &Path,
    store: &Path,
    events: u64,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let interval = (events / CHECKPOINTS).max(1);
    // Half an interval past the sixth checkpoint: output has been staged
    // beyond the last durable epoch, so the restore has bytes to discard.
    let kill_at = interval * (CHECKPOINTS / 2) + interval / 2;
    let mut ckpt = Checkpointer {
        store,
        interval,
        total: events,
        next: interval,
        walls_ms: Vec::new(),
    };

    let start = Instant::now();
    let (session, mut pipeline) = assemble(script);
    let first = drive(
        &mut pipeline,
        events,
        tracer.as_deref_mut(),
        |p, ingested| {
            ckpt.after_round(p, ingested);
            ingested < kill_at
        },
    );
    assert!(
        first.metrics.events_in < events && !ckpt.walls_ms.is_empty(),
        "the kill must fall after a checkpoint and before the end of the input"
    );
    drop(pipeline);
    drop(session);

    let (_session, mut pipeline) = assemble(script);
    let restore_start = Instant::now();
    spanned("bench.restore_from", || pipeline.restore_from(store)).expect("restore_from");
    let restore_ms = secs(restore_start.elapsed()) * 1e3;
    let resumed_at = pipeline.events_in();
    ckpt.next = resumed_at + interval;
    let second = drive(&mut pipeline, events - resumed_at, tracer, |p, ingested| {
        ckpt.after_round(p, resumed_at + ingested);
        true
    });
    let wall = start.elapsed();
    drop(pipeline);

    let mut step_us = first.step_us;
    step_us.extend(second.step_us);
    Pass {
        driven: Driven {
            wall,
            step_us,
            metrics: second.metrics,
        },
        wall,
        sink: digest_file(sink),
        extra: vec![
            ("core.durable.checkpoint_p50_ms", median(&ckpt.walls_ms)),
            ("core.durable.checkpoints", ckpt.walls_ms.len() as f64),
            ("core.durable.restore_ms", restore_ms),
        ],
    }
}

impl ClosedLoop for CkptGroupBy {
    fn setup(&mut self, cx: &Cx, gate: &mut Gate) {
        let dir = cx.scratch.sub("oracle");
        let (seed, events) = (cx.args.seed, cx.oracle_events());
        oracle_check(
            &dir,
            |workers, sink| sharded_script(SQL, seed, events, workers, sink),
            gate,
        );
    }

    fn pass(&mut self, cx: &Cx, events: u64, tracer: Option<&mut Tracer>, gate: &mut Gate) -> Pass {
        let sink = pass_sink(cx);
        let store = sink.with_file_name("store");
        let pass = interrupted_pass(
            &script(cx.args.seed, events, &sink),
            &sink,
            &store,
            events,
            tracer,
        );
        check_pass(&pass, events, true, gate);
        pass
    }

    fn verify(&mut self, cx: &Cx, events: u64, reference: &Pass, gate: &mut Gate) {
        let sink = cx.scratch.sub("uninterrupted").join("out.csv");
        let straight = sharded_pass(&script(cx.args.seed, events, &sink), &sink, events, None);
        gate.expect_eq(
            "restored run's sink bytes vs an uninterrupted run's",
            reference.sink,
            straight.sink,
        );
    }

    fn layers(&mut self, cx: &Cx, reference: &Pass, m: &mut Metrics) {
        nexmark_layers(SQL, cx, reference, m);

        // The durable path piece by piece, on a pipeline near the end of
        // its input, where state is largest. Small fixed batches only so
        // that stepping can stop there, short of the round that finishes.
        let events = cx.quarter();
        let dir = cx.scratch.sub("durable");
        let script = format!(
            "SET batch_size = 32; SET max_batch = 32; {}",
            sharded_script(SQL, cx.args.seed, events, WORKERS, &dir.join("out.csv"))
        );
        let (_session, mut pipeline) = assemble(&script);
        drive(&mut pipeline, events, None, |_, ingested| {
            ingested < events / 10 * 9
        });
        let keys = pipeline
            .table_at(pipeline.clock() - EventDuration(1))
            .expect("AS OF probe")
            .len()
            .max(1) as f64;
        let driver = pipeline.as_sharded_mut().expect("sharded pipeline");
        let mut checkpoint: Option<PipelineCheckpoint> = None;
        m.put(
            "core.durable.barrier_us",
            median_micros(5, || {
                checkpoint = Some(driver.checkpoint().expect("barrier checkpoint"))
            }),
        );
        let mut checkpoint = checkpoint.expect("a checkpoint was taken");
        let encoded = checkpoint.to_bytes();
        m.put(
            "core.durable.encode_us",
            median_micros(5, || {
                std::hint::black_box(checkpoint.to_bytes());
            }),
        );
        m.put(
            "core.durable.decode_us",
            median_micros(5, || {
                std::hint::black_box(PipelineCheckpoint::from_bytes(&encoded).expect("decode"));
            }),
        );
        let store_dir = dir.join("store");
        let mut store =
            CheckpointStore::create(&store_dir, "bench", Vec::new(), 3).expect("create store");
        m.put(
            "core.durable.save_us",
            median_micros(5, || {
                checkpoint.epoch += 1;
                store.save(&checkpoint).expect("save");
            }),
        );
        m.put(
            "core.durable.load_us",
            median_micros(5, || {
                let reopened = CheckpointStore::open(&store_dir).expect("open store");
                std::hint::black_box(reopened.load_latest().expect("load"));
            }),
        );
        m.put("core.durable.ckpt_bytes", encoded.len() as f64);
        m.put("core.durable.bytes_per_key", encoded.len() as f64 / keys);
    }
}
