//! The flight recorder's overhead guard: two ingest workloads of 20 000
//! events (a filled channel, the seeded NEXMark generator), each run bare
//! (`EXPLAIN ANALYZE`: no label, no sink, spans inert), trace-off (an
//! `INSERT` into a discarding sink, which labels the pipeline; tracing
//! uninstalled, so a span site costs one relaxed atomic load) and trace-on
//! (a private [`FlightRecorder`] at full sampling). The NEXMark workload
//! runs a 4-partition source on two workers, through the batch router.
//! All three sides take the same rounds. A sample is the CPU time the
//! run's threads spent on a CPU — the kernel's per-thread runtime, summed
//! over every thread of the process, the workers that exit with the run
//! included (`getrusage(RUSAGE_SELF)`) — so time a shared host spends on
//! other processes does not count, as it does in wall time. The samples
//! interleave (31 times each, the side that goes first rotating), so drift
//! lands on every side alike; by the medians, trace-off may cost 1 % over
//! bare and trace-on 5 %, each plus 500 µs. A cost guard, so ignored by
//! default: `cargo test -q -p onesql-connect --release --test
//! trace_overhead -- --ignored --nocapture`.

use std::sync::Arc;
use std::time::Duration;

use onesql_connect::{channel, default_registry, PartitionedSource, PartitionedVec};
use onesql_core::connect::{Exports, OptionBag, Sink, SinkConnector, SinkSpec};
use onesql_core::connect::{SourceConnector, SourceSpec};
use onesql_core::observe::{self, FlightRecorder};
use onesql_core::{Session, StatementResult, StreamBatch, StreamBuilder, StreamRow};
use onesql_types::{row, DataType, Result, SchemaRef, Ts};

const N: usize = 20_000;
const LABEL: &str = "trace_guard";

/// A sink family that drops every row unbuilt, so that only the label
/// tells the trace-off run from the bare one.
struct Discard;

impl Sink for Discard {
    fn name(&self) -> &str {
        "discard"
    }

    fn write(&mut self, _: &[StreamRow]) -> Result<()> {
        Ok(())
    }

    fn write_batch(&mut self, _: &StreamBatch<'_>) -> Result<()> {
        Ok(())
    }
}

impl SinkConnector for Discard {
    fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> Result<()> {
        Ok(())
    }

    fn build(&self, _: &SinkSpec, _: &mut OptionBag, _: &mut Exports) -> Result<Box<dyn Sink>> {
        Ok(Box::new(Discard))
    }
}

/// A source family feeding `Bid`: a closed channel holding `N` rows, row
/// `i` at ptime `i`, filled inside every timed run. (`EXPLAIN ANALYZE`
/// drops the publishers the `channel` connector exports.)
struct FilledChannel;

impl SourceConnector for FilledChannel {
    fn declare(&self, _: &SourceSpec, _: &mut OptionBag) -> Result<Vec<(String, SchemaRef)>> {
        let bid = StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String);
        Ok(vec![("Bid".to_string(), Arc::new(bid.build()))])
    }

    fn build(
        &self,
        _: &SourceSpec,
        _: &mut OptionBag,
        _: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let (publisher, source) = channel("Bid", N + 1);
        for i in 0..N {
            publisher.insert(Ts(i as i64), row!(Ts(i as i64), i as i64 % 100, "item"))?;
        }
        Ok(Box::new(PartitionedVec::single(source)))
    }
}

/// Run `sql` over the sources `ddl` creates: into a discarding sink named
/// [`LABEL`] when `labelled`, under `EXPLAIN ANALYZE` otherwise. Returns
/// the events ingested and the scheduling rounds taken.
fn run(ddl: &str, sql: &str, labelled: bool) -> (u64, u64) {
    let mut registry = default_registry();
    registry.register_source("filled", FilledChannel);
    registry.register_sink("discard", Discard);
    let mut session = Session::new(registry);
    session.execute_script(ddl).unwrap();
    if !labelled {
        let StatementResult::Analyzed { rows, .. } =
            session.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
        else {
            unreachable!("EXPLAIN ANALYZE reports its metrics")
        };
        let counter = |name: &str| {
            let row = rows.iter().find(|row| row.name == name);
            row.map_or(0, |row| row.value as u64)
        };
        return (counter("events_in"), counter("rounds"));
    }
    let script = format!(
        "CREATE SINK {LABEL} WITH (connector = 'discard');
         INSERT INTO {LABEL} {sql};"
    );
    let outcome = session.execute_script(&script).unwrap();
    let metrics = outcome.into_pipeline().unwrap().run().unwrap();
    (metrics.events_in, metrics.rounds)
}

fn run_channel(labelled: bool) -> (u64, u64) {
    let ddl = "CREATE SOURCE feed WITH (connector = 'filled');";
    let sql = "SELECT item, price FROM Bid WHERE price > 10";
    run(ddl, sql, labelled)
}

fn run_nexmark(labelled: bool) -> (u64, u64) {
    let ddl = format!(
        "SET workers = 2;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {N}, partitions = 4);"
    );
    let sql = "SELECT auction, price FROM Bid WHERE price > 100";
    run(&ddl, sql, labelled)
}

/// Samples per side.
const SAMPLES: usize = 31;

/// `struct timeval`.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two times, then fourteen counters.
#[repr(C)]
#[derive(Default)]
struct Usage {
    user: TimeVal,
    system: TimeVal,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Usage) -> i32;
}

/// The on-CPU time of every thread this process has run, live or exited.
fn process_cpu() -> Duration {
    let mut usage = Usage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` (64-bit Linux
    // layout); `RUSAGE_SELF` (0) asks for the whole process.
    assert_eq!(unsafe { getrusage(0, &mut usage) }, 0);
    let micros =
        |t: &TimeVal| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    micros(&usage.user) + micros(&usage.system)
}

/// One run's on-CPU time, over all its threads.
fn timed(f: impl FnOnce() -> (u64, u64)) -> Duration {
    let start = process_cpu();
    assert_eq!(f().0, N as u64);
    process_cpu() - start
}

/// The median bare, trace-off and trace-on CPU times of `run`, the
/// sides sampled in turn; trace-on records into `ring`.
fn medians(run: fn(bool) -> (u64, u64), ring: &Arc<FlightRecorder>) -> [Duration; 3] {
    let mut samples: [Vec<Duration>; 3] = Default::default();
    for round in 0..SAMPLES {
        for side in (0..3).map(|k| (round + k) % 3) {
            let sample = match side {
                0 => timed(|| run(false)),
                1 => timed(|| run(true)),
                _ => {
                    observe::install(ring.clone());
                    let on = timed(|| run(true));
                    observe::uninstall();
                    on
                }
            };
            samples[side].push(sample);
        }
    }
    samples.map(|mut side| {
        side.sort();
        side[SAMPLES / 2]
    })
}

#[test]
#[ignore = "a cost guard: run it alone, with --release"]
fn tracing_costs_at_most_1_percent_off_and_5_percent_on() {
    // A private ring, so the guard never fills the process recorder that
    // `SHOW TRACE` reads.
    let ring = Arc::new(FlightRecorder::new(1 << 16));
    for (name, f) in [
        ("channel", run_channel as fn(bool) -> (u64, u64)),
        ("nexmark", run_nexmark as fn(bool) -> (u64, u64)),
    ] {
        // Like for like: every side polls the same batches.
        let rounds = f(false).1;
        assert_eq!(f(true).1, rounds, "'{name}' rounds differ");
        observe::set_sample(1);
        let [bare, off, on] = medians(f, &ring);
        observe::hub().clear(LABEL);
        assert!(!ring.is_empty(), "trace-on recorded no spans");
        ring.clear();
        let off_budget = bare + bare / 100 + Duration::from_micros(500);
        let on_budget = bare + bare * 5 / 100 + Duration::from_micros(500);
        println!(
            "trace overhead [{name}]: {rounds} rounds, bare {bare:?}, off {off:?} \
             (budget {off_budget:?}), on {on:?} (budget {on_budget:?})"
        );
        assert!(
            off <= off_budget,
            "disabled tracing on '{name}' exceeds 1% over bare: {bare:?} vs {off:?}"
        );
        assert!(
            on <= on_budget,
            "enabled tracing on '{name}' exceeds 5% over bare: {bare:?} vs {on:?}"
        );
    }
}
