//! The control thread's cost probe: on-CPU nanoseconds per event for the
//! thread that polls, routes, merges and emits, and for each worker, on
//! NEXMark Q1 at two workers over a 4-partition source into a
//! transactional CSV sink (the `nx-q1-sharded` workload's shape). It asserts
//! correctness first (the two-worker run writes the sorted sink lines,
//! minus `ver`, of a one-worker row-oracle run, the frozen benchmark's
//! gate rule), then prints the numbers; it claims no bound, so a change
//! that moves work between threads runs it in both trees. The CPU times
//! come from `/proc/thread-self/schedstat` and `/proc/self/task/*`
//! (Linux). A cost probe on a shared host, so ignored by default:
//! `cargo test -q -p onesql-connect --release --test control_thread_cost
//! -- --ignored --nocapture`.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use onesql_connect::{session, DriverConfig, SqlPipeline};
use onesql_nexmark::queries;

const PARTITIONS: usize = 4;

fn pipeline(workers: usize, vectorize: bool, events: u64, sink: &Path) -> SqlPipeline {
    let mut session = session();
    session.set_driver_config(DriverConfig {
        workers,
        vectorize,
        ..DriverConfig::default()
    });
    let script = format!(
        "CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {events}, partitions = {PARTITIONS});
         CREATE SINK out WITH (connector = 'file', path = '{}', transactional = TRUE);
         INSERT INTO out {} EMIT STREAM;",
        sink.display(),
        queries::Q1
    );
    session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap()
}

/// The sink file's lines without their last field (`ver`), sorted.
fn lines_without_ver(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
        .collect();
    lines.sort();
    lines
}

/// The on-CPU nanoseconds in a schedstat file (its first field).
fn on_cpu(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap();
    stat.split_whitespace().next().unwrap().parse().unwrap()
}

fn tasks() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
#[ignore = "a cost probe: run it alone, with --release"]
fn control_thread_and_worker_cost_per_event() {
    let dir = std::env::temp_dir().join(format!("onesql_control_cost_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Correctness first.
    let (fast, slow) = (dir.join("w2.csv"), dir.join("oracle.csv"));
    pipeline(2, true, 50_000, &fast).run().unwrap();
    pipeline(1, false, 50_000, &slow).run().unwrap();
    let want = lines_without_ver(&slow);
    assert!(!want.is_empty(), "the row oracle wrote nothing");
    assert_eq!(
        lines_without_ver(&fast),
        want,
        "W = 2 differs from the row oracle"
    );

    // Then the cost, over a window that starts after a warm-up and ends
    // before the source drains (the workers join at finish).
    let before = tasks();
    let mut run = pipeline(2, true, 4_000_000, &dir.join("cost.csv"));
    let workers: Vec<String> = tasks().difference(&before).cloned().collect();
    assert_eq!(workers.len(), 2, "expected two worker threads");
    let worker_cpu = || -> Vec<u64> {
        let path = |tid: &String| format!("/proc/self/task/{tid}/schedstat");
        workers.iter().map(|tid| on_cpu(&path(tid))).collect()
    };
    let control_cpu = || on_cpu("/proc/thread-self/schedstat");
    while run.driver_mut().events_in() < 400_000 {
        run.step().unwrap();
    }
    let (events0, control0, workers0) = (run.driver_mut().events_in(), control_cpu(), worker_cpu());
    let start = Instant::now();
    while run.driver_mut().events_in() < 2_400_000 {
        run.step().unwrap();
    }
    let wall = start.elapsed();
    let (events1, control1, workers1) = (run.driver_mut().events_in(), control_cpu(), worker_cpu());
    let events = (events1 - events0) as f64;
    let per_event = |ns: u64| ns as f64 / events;
    println!(
        "control thread: {:.0} ns/event on CPU; {:.0} events/s wall over {events} events",
        per_event(control1 - control0),
        events / wall.as_secs_f64()
    );
    for (w, (a, b)) in workers0.iter().zip(&workers1).enumerate() {
        println!("worker {w}: {:.0} ns/event on CPU", per_event(b - a));
    }
    drop(run);
    let _ = std::fs::remove_dir_all(&dir);
}
