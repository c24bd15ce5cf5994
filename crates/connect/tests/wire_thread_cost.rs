//! The wire's cost probe: on-CPU nanoseconds per bid for the three threads
//! that carry the `wire-q0` shape — NEXMark → Q0 → `net` sink in a
//! producer, `net` source → selective filter → CSV sink in a consumer:
//! the producer's control thread (poll, Q0, encode, send), the consumer's
//! control thread (poll, route, merge, write), and the consumer's
//! connection reader thread (read, check, decode). It asserts correctness
//! first (the consumer's sink lines equal a row-oracle consumer's, as the
//! frozen benchmark's gate does), then prints the numbers; it claims no
//! bound, so a change to either side of the socket runs it in both trees.
//! The CPU times come from `/proc/<tid>/schedstat` (Linux), the other
//! threads' sampled every 20 ms, so a thread's last 20 ms before it exits
//! can go uncounted. A cost probe on a shared host, so ignored by default:
//! `cargo test -q -p onesql-connect --release --test wire_thread_cost --
//! --ignored --nocapture`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use onesql_connect::{session, DriverConfig, NetAddr, SqlPipeline};
use onesql_nexmark::queries;

/// A consumer of Q0's output, writing the bids of every 123rd auction.
fn consumer(sink: &Path, vectorize: bool) -> (SqlPipeline, String) {
    let mut session = session();
    session.set_driver_config(DriverConfig {
        vectorize,
        ..DriverConfig::default()
    });
    let script = format!(
        "CREATE SOURCE feed (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                             WATERMARK FOR dateTime)
           WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out SELECT auction, price FROM feed WHERE auction % 123 = 0 EMIT STREAM;",
        sink.display()
    );
    let pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let addr = session.take_handle::<NetAddr>("feed").unwrap();
    (pipeline, addr.to_string())
}

fn producer(addr: &str, events: u64) -> SqlPipeline {
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {events});
         CREATE SINK wire WITH (connector = 'net', addr = '{addr}', stream = 'feed');
         INSERT INTO wire {} EMIT STREAM;",
        queries::Q0
    );
    session()
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap()
}

fn thread_id() -> String {
    let link = std::fs::read_link("/proc/thread-self").unwrap();
    link.file_name().unwrap().to_string_lossy().into_owned()
}

/// The on-CPU nanoseconds of thread `tid`, if it still runs.
fn on_cpu(tid: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

fn tasks() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// One producer/consumer run: the consumer's sink lines, the bids it
/// ingested, and its wall time. `probe` sees the run's threads.
fn run(events: u64, sink: &Path, vectorize: bool, probe: Option<&mut Probe>) -> (u64, Duration) {
    let (mut consumer, addr) = consumer(sink, vectorize);
    let (assembled_tx, assembled) = mpsc::channel();
    let (go, go_rx) = mpsc::channel::<()>();
    let (done, done_rx) = mpsc::channel::<()>();
    let producer = std::thread::spawn(move || {
        let mut pipeline = producer(&addr, events);
        assembled_tx.send((thread_id(), tasks())).unwrap();
        go_rx.recv().unwrap();
        let tid = thread_id();
        let start = on_cpu(&tid).unwrap();
        pipeline.run().unwrap();
        let cpu = on_cpu(&tid).unwrap() - start;
        let _ = done_rx.recv();
        cpu
    });
    let (producer_tid, before) = assembled.recv().unwrap();
    let sampler = probe.as_ref().map(|_| Sampler::start(before));
    let control = thread_id();
    let control_start = on_cpu(&control).unwrap();
    go.send(()).unwrap();
    let start = Instant::now();
    let bids = consumer.run().unwrap().events_in;
    let wall = start.elapsed();
    let control_cpu = on_cpu(&control).unwrap() - control_start;
    done.send(()).unwrap();
    let producer_cpu = producer.join().unwrap();
    if let (Some(probe), Some(sampler)) = (probe, sampler) {
        let mut others = sampler.stop();
        others.remove(&control);
        others.remove(&producer_tid);
        probe.producer = producer_cpu;
        probe.consumer = control_cpu;
        probe.others = others;
    }
    (bids, wall)
}

#[derive(Default)]
struct Probe {
    producer: u64,
    consumer: u64,
    /// Threads started once both pipelines were assembled: the
    /// connection's reader, the producer's ack reader.
    others: BTreeMap<String, u64>,
}

/// Samples the on-CPU time of every thread not in `before` until stopped.
struct Sampler {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<BTreeMap<String, u64>>>,
    thread: std::thread::JoinHandle<()>,
}

impl Sampler {
    fn start(before: BTreeSet<String>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(BTreeMap::new()));
        let thread = {
            let (stop, seen) = (stop.clone(), seen.clone());
            std::thread::spawn(move || {
                let me = thread_id();
                while !stop.load(Ordering::Acquire) {
                    for tid in tasks().difference(&before) {
                        if let (true, Some(ns)) = (*tid != me, on_cpu(tid)) {
                            seen.lock().unwrap().insert(tid.clone(), ns);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Sampler { stop, seen, thread }
    }

    fn stop(self) -> BTreeMap<String, u64> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().unwrap();
        let seen = self.seen.lock().unwrap().clone();
        seen
    }
}

fn lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().map(str::to_string).collect()
}

#[test]
#[ignore = "a cost probe: run it alone, with --release"]
fn wire_thread_cost_per_bid() {
    let dir = std::env::temp_dir().join(format!("onesql_wire_cost_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Correctness first.
    let (fast, slow) = (dir.join("fast.csv"), dir.join("oracle.csv"));
    run(50_000, &fast, true, None);
    run(50_000, &slow, false, None);
    let want = lines(&slow);
    assert!(!want.is_empty(), "the row oracle wrote nothing");
    assert_eq!(lines(&fast), want, "the columnar consumer differs");

    // Then the cost.
    let mut probe = Probe::default();
    let (bids, wall) = run(4_000_000, &dir.join("cost.csv"), true, Some(&mut probe));
    let per_bid = |ns: u64| ns as f64 / bids as f64;
    println!(
        "{bids} bids in {:.2} s: {:.0} bids/s wall",
        wall.as_secs_f64(),
        bids as f64 / wall.as_secs_f64()
    );
    println!(
        "producer control thread: {:.0} ns/bid on CPU",
        per_bid(probe.producer)
    );
    println!(
        "consumer control thread: {:.0} ns/bid on CPU",
        per_bid(probe.consumer)
    );
    let mut others: Vec<(String, u64)> = probe.others.into_iter().collect();
    others.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (i, (tid, ns)) in others.iter().take(3).enumerate() {
        let role = if i == 0 {
            "reader thread"
        } else {
            "other thread"
        };
        println!("{role} {tid}: {:.0} ns/bid on CPU", per_bid(*ns));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
