//! `paced-q5-gated`: the open-loop workload and the latency view.
//!
//! One generator thread sends pre-built Bid rows into a `channel` source
//! on a fixed schedule that does not slow when the engine does; one
//! thread runs the plain driver over Q5-shaped hop windows with `EMIT
//! STREAM AFTER WATERMARK` into a timestamping sink the bench owns.
//! Event time runs at 20x the schedule clock, a watermark rides every
//! 500th event, and a result's latency runs from the *due* send time of
//! the watermark-carrying event that closes its window to the sink
//! `write` that delivers it — queue wait in, window length out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use onesql_connect::{
    default_registry, ChannelPublisher, DriverConfig, Exports, OptionBag, Session, Sink,
    SinkConnector, SinkSpec,
};
use onesql_core::observe::TraceRecord;
use onesql_core::{Engine, StreamBuilder, StreamRow};
use onesql_tvr::Change;
use onesql_types::{row, DataType, Duration as EventDuration, Result, Row, Ts};

use crate::gate::Gate;
use crate::layers::{self, ExecReplay};
use crate::report::{quantile, Metrics, RunResult};
use crate::scratch;
use crate::tracing::{write_chrome_trace, Tracer};
use crate::workloads::{drive, finish, peak_rss_mb, timed_setup, Cx, Driven};

/// A result later than this after its window closed has missed the
/// latency limit. Misses decide `paced.sustained_rate_eps` and are
/// reported as `paced.over_limit_share`; they are not counted as failed
/// operations, because on the shared host one 300 ms stall of the virtual
/// CPU would fail a thousand results through no fault of the engine, and
/// the contract wants workloads on which no operation fails.
const LIMIT_MS: f64 = 250.0;
/// Event-time milliseconds per schedule millisecond.
const TIME_FACTOR: u64 = 20;
/// A watermark rides the last event of every such stretch of the
/// reference-rate schedule: every 500th event at 50 000 events/s.
const WATERMARK_EVERY_S: f64 = 0.01;
/// Hop window length and hop, in event-time milliseconds: at 20x a window
/// closes every 50 ms of schedule time, so a 10 s run takes some 200
/// independent latency samples (one sink write per closing window).
const WINDOW_MS: i64 = 2_000;
const HOP_MS: i64 = 1_000;
/// Distinct auctions. A window holds 5 000 events at the reference rate,
/// so a close delivers ~3 400 rows: about 2 ms of work, large enough that
/// scheduling jitter of tens of microseconds does not decide the median.
const AUCTIONS: u64 = 4000;
/// First event time.
const EVENT_TIME_BASE: Ts = Ts::hm(8, 0);
/// Shortest schedule: long enough, even at test scales, for watermarks to
/// close windows in every phase.
const MIN_SECONDS: f64 = 1.0;
/// Lead before the first event is due, so both threads are in place.
const LEAD: Duration = Duration::from_millis(20);

const SQL: &str = "\
SELECT auction, wend, COUNT(*) AS bids
FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
         dur => INTERVAL '2' SECOND, hopsize => INTERVAL '1' SECOND)
GROUP BY auction, wend";

fn script(capacity: usize) -> String {
    format!(
        "CREATE SOURCE Bid (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                            WATERMARK FOR dateTime)
           WITH (connector = 'channel', capacity = {capacity});
         CREATE SINK out WITH (connector = 'bench_latency');
         INSERT INTO out {SQL} EMIT STREAM AFTER WATERMARK;"
    )
}

/// One stretch of the schedule at a fixed rate.
#[derive(Debug, Clone, Copy)]
struct Phase {
    rate: f64,
    seconds: f64,
}

/// Order-free digest of one `(auction, wend, count)` result.
fn result_hash(auction: i64, wend: i64, count: i64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [auction, wend, count] {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pre-built input of one schedule, with the answers the bench
/// computes from it on its own.
struct Input {
    rows: Vec<Row>,
    /// Nanoseconds after the schedule start at which each row is due.
    due_ns: Vec<u64>,
    /// `(index of the carrying event, watermark)`, in order.
    watermarks: Vec<(usize, i64)>,
    /// `(index one past the phase's last event, the phase)`.
    phases: Vec<(usize, Phase)>,
    /// Wrapping sum of [`result_hash`] over the expected result set.
    expected_digest: u64,
    /// Distinct `(auction, wend)` groups: the expected result count.
    expected_results: u64,
}

fn build_input(seed: u64, phases: &[Phase]) -> Input {
    let watermark_every = ((phases[0].rate * WATERMARK_EVERY_S) as usize).max(1);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut input = Input {
        rows: Vec::new(),
        due_ns: Vec::new(),
        watermarks: Vec::new(),
        phases: Vec::new(),
        expected_digest: 0,
        expected_results: 0,
    };
    let mut counts: HashMap<(i64, i64), i64> = HashMap::new();
    let mut phase_start_ns = 0u64;
    for phase in phases {
        let n = (phase.rate * phase.seconds).round() as u64;
        for k in 0..n {
            let due = phase_start_ns + (k as f64 * 1e9 / phase.rate) as u64;
            let event_ms = EVENT_TIME_BASE.millis() + (due * TIME_FACTOR / 1_000_000) as i64;
            let auction = 1000 + (next() % AUCTIONS) as i64;
            let bidder = (next() % 10_000) as i64;
            let price = 100 + (next() % 10_000) as i64;
            input.rows.push(row!(auction, bidder, price, Ts(event_ms)));
            input.due_ns.push(due);
            // Hop windows are aligned to multiples of the hop.
            let newest_start = event_ms.div_euclid(HOP_MS) * HOP_MS;
            for j in 0..WINDOW_MS / HOP_MS {
                let wend = newest_start - j * HOP_MS + WINDOW_MS;
                *counts.entry((auction, wend)).or_default() += 1;
            }
            let index = input.rows.len() - 1;
            if (index + 1).is_multiple_of(watermark_every) {
                // In-order input: later events are at this time or after.
                input.watermarks.push((index, event_ms - 1));
            }
        }
        phase_start_ns += (phase.seconds * 1e9) as u64;
        input.phases.push((input.rows.len(), *phase));
    }
    input.expected_results = counts.len() as u64;
    input.expected_digest = counts.iter().fold(0u64, |acc, (&(auction, wend), &count)| {
        acc.wrapping_add(result_hash(auction, wend, count))
    });
    input
}

/// One row as the sink saw it.
#[derive(Debug, Clone, Copy)]
struct Delivered {
    auction: i64,
    wend: i64,
    count: i64,
    undo: bool,
    /// Nanoseconds after the shared origin at which `write` was called.
    at_ns: u64,
}

/// What the timestamping sink shares with the bench.
struct SinkShared {
    origin: Instant,
    rows: Mutex<Vec<Delivered>>,
}

struct LatencySink(Arc<SinkShared>);

impl Sink for LatencySink {
    fn name(&self) -> &str {
        "bench_latency"
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        let at_ns = self.0.origin.elapsed().as_nanos() as u64;
        let mut seen = self.0.rows.lock().expect("sink log lock");
        for r in rows {
            seen.push(Delivered {
                auction: r.row.value(0)?.as_int()?,
                wend: r.row.value(1)?.as_ts()?.millis(),
                count: r.row.value(2)?.as_int()?,
                undo: r.undo,
                at_ns,
            });
        }
        Ok(())
    }
}

struct LatencySinkConnector(Arc<SinkShared>);

impl SinkConnector for LatencySinkConnector {
    fn declare(&self, _spec: &SinkSpec, _options: &mut OptionBag) -> Result<()> {
        Ok(())
    }

    fn build(
        &self,
        _spec: &SinkSpec,
        _options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn Sink>> {
        Ok(Box::new(LatencySink(Arc::clone(&self.0))))
    }
}

/// What one run of a schedule left behind.
struct Outcome {
    driven: Driven,
    delivered: Vec<Delivered>,
    /// Schedule start, in nanoseconds after the sink's origin.
    start_ns: u64,
    /// How late the oldest event of each burst was sent, in microseconds.
    late_us: Vec<f64>,
    /// Largest `events due - events_in` seen after a burst.
    backlog_max: u64,
    /// The same difference at the end of each phase.
    backlog_at_phase_end: Vec<u64>,
    records: Vec<TraceRecord>,
}

/// Run `input`'s schedule against a freshly assembled pipeline.
fn run_schedule(input: &Input, vectorize: bool, paced: bool, traced: bool) -> Outcome {
    let shared = Arc::new(SinkShared {
        origin: Instant::now(),
        rows: Mutex::new(Vec::new()),
    });
    let total = input.rows.len() as u64;
    let events_in = Arc::new(AtomicU64::new(0));
    let start_line = Arc::new(Barrier::new(2));
    let (hand_over, publisher) = mpsc::channel::<ChannelPublisher>();

    let driver = {
        let shared = Arc::clone(&shared);
        let events_in = Arc::clone(&events_in);
        let start_line = Arc::clone(&start_line);
        std::thread::spawn(move || {
            let mut registry = default_registry();
            registry.register_sink("bench_latency", LatencySinkConnector(shared));
            let mut session = Session::new(registry);
            session.set_driver_config(DriverConfig {
                vectorize,
                ..DriverConfig::default()
            });
            // Room for the whole input: the schedule, not the channel,
            // decides when an event is sent.
            let mut pipeline = session
                .execute_script(&script(total as usize + 1))
                .expect("paced script")
                .into_pipeline()
                .expect("paced pipeline");
            let mut publishers = session
                .take_handle::<Vec<ChannelPublisher>>("Bid")
                .expect("channel source exports its publisher");
            hand_over
                .send(publishers.remove(0))
                .expect("generator thread alive");
            let mut tracer = traced.then(Tracer::start);
            start_line.wait();
            let driven = drive(&mut pipeline, total, tracer.as_mut(), |_, ingested| {
                events_in.store(ingested, Ordering::Relaxed);
                true
            });
            (driven, tracer.map(Tracer::stop).unwrap_or_default())
        })
    };

    let publisher = publisher.recv().expect("driver thread alive");
    start_line.wait();
    let start = Instant::now() + LEAD;
    let start_ns = (start - shared.origin).as_nanos() as u64;
    let mut late_us = Vec::new();
    let mut backlog_max = 0u64;
    let mut backlog_at_phase_end = Vec::new();
    let mut next_watermark = 0usize;
    let mut next_phase = 0usize;
    let mut sent = 0usize;
    while sent < input.rows.len() {
        let now_ns = Instant::now().saturating_duration_since(start).as_nanos() as u64;
        let first = sent;
        while sent < input.rows.len() && (!paced || input.due_ns[sent] <= now_ns) {
            let row = &input.rows[sent];
            let ptime = row.value(3).and_then(|v| v.as_ts()).expect("event time");
            publisher
                .change(ptime, Change::insert(row.clone()))
                .expect("channel send");
            if input
                .watermarks
                .get(next_watermark)
                .is_some_and(|&(index, _)| index == sent)
            {
                publisher
                    .watermark(Ts(input.watermarks[next_watermark].1))
                    .expect("channel watermark");
                next_watermark += 1;
            }
            sent += 1;
            if sent == input.phases[next_phase].0 {
                backlog_at_phase_end
                    .push((sent as u64).saturating_sub(events_in.load(Ordering::Relaxed)));
                next_phase += 1;
            }
        }
        if sent > first {
            late_us.push(now_ns.saturating_sub(input.due_ns[first]) as f64 / 1e3);
            backlog_max =
                backlog_max.max((sent as u64).saturating_sub(events_in.load(Ordering::Relaxed)));
        }
        // The generator owns a core and spins between sends, as load
        // generators do: sleeping would add its wake-up jitter to every
        // latency, which is timed from the due time.
        std::hint::spin_loop();
    }
    publisher.finish().expect("channel finish");
    drop(publisher);
    let (driven, records) = driver.join().expect("driver thread");
    let delivered = std::mem::take(&mut *shared.rows.lock().expect("sink log lock"));
    Outcome {
        driven,
        delivered,
        start_ns,
        late_us,
        backlog_max,
        backlog_at_phase_end,
        records,
    }
}

/// The output checks every run must pass: only final rows, each group
/// once, and the result set the bench computed from the input.
fn check_results(what: &str, input: &Input, outcome: &Outcome, gate: &mut Gate) {
    let d = &outcome.delivered;
    gate.expect_eq(
        &format!("{what}: events_in"),
        outcome.driven.metrics.events_in,
        input.rows.len() as u64,
    );
    gate.expect_eq(
        &format!("{what}: sink rows vs events_out"),
        d.len() as u64,
        outcome.driven.metrics.events_out,
    );
    gate.expect(d.iter().all(|r| !r.undo), || {
        format!("{what}: a gated query retracted a result")
    });
    gate.expect_eq(
        &format!("{what}: result count"),
        d.len() as u64,
        input.expected_results,
    );
    gate.expect_eq(
        &format!("{what}: order-free digest of (auction, wend, count)"),
        d.iter().fold(0u64, |acc, r| {
            acc.wrapping_add(result_hash(r.auction, r.wend, r.count))
        }),
        input.expected_digest,
    );
}

/// One result's latency.
#[derive(Debug, Clone, Copy)]
struct Latency {
    /// Index of the phase the closing watermark was due in.
    phase: usize,
    /// When that watermark was due, in nanoseconds after schedule start.
    due_ns: u64,
    /// Sink `write` time minus that due time, in milliseconds.
    ms: f64,
}

/// Latency of every result whose window a watermark closed (the last
/// windows close at end of stream instead).
fn latencies(input: &Input, outcome: &Outcome) -> Vec<Latency> {
    let mut out = Vec::with_capacity(outcome.delivered.len());
    for r in &outcome.delivered {
        // `Watermark::closes`: a window ending at `wend` is complete once
        // the watermark has reached `wend`.
        let k = input.watermarks.partition_point(|&(_, wm)| wm < r.wend);
        let Some(&(carrier, _)) = input.watermarks.get(k) else {
            continue;
        };
        let due_ns = input.due_ns[carrier];
        out.push(Latency {
            phase: input.phases.partition_point(|&(end, _)| end <= carrier),
            due_ns,
            ms: (r.at_ns as f64 - (outcome.start_ns + due_ns) as f64) / 1e6,
        });
    }
    out
}

/// Stretches the schedule is cut into for [`steady_p50`].
const SEGMENTS: u64 = 10;

/// The median latency, made steady the way the closed loops make theirs:
/// the schedule is cut into [`SEGMENTS`] equal stretches (they stand in
/// for passes), each gives the median over its results, and the lower
/// quartile of those is reported, so a burst of interference on the
/// shared host spoils the stretches it hits and not the number.
fn steady_p50(lat: &[Latency], schedule_ns: u64) -> f64 {
    let per_segment: Vec<f64> = (0..SEGMENTS)
        .filter_map(|s| {
            let (from, to) = (schedule_ns * s / SEGMENTS, schedule_ns * (s + 1) / SEGMENTS);
            let ms: Vec<f64> = lat
                .iter()
                .filter(|l| l.due_ns >= from && l.due_ns < to)
                .map(|l| l.ms)
                .collect();
            (!ms.is_empty()).then(|| quantile(&ms, 0.5))
        })
        .collect();
    quantile(&per_segment, 0.25)
}

fn reference_phase(cx: &Cx, seconds: f64) -> Phase {
    Phase {
        rate: cx.events as f64,
        seconds,
    }
}

/// Set-up: build the input, and check a 5% unpaced run on both executor
/// paths against the answers computed from the input.
fn setup(cx: &Cx, phases: &[Phase], gate: &mut Gate) -> Input {
    let input = build_input(cx.args.seed, phases);
    let small = build_input(
        cx.args.seed,
        &[Phase {
            rate: phases[0].rate,
            seconds: phases[0].seconds / 20.0,
        }],
    );
    for (what, vectorize) in [("5% vectorized run", true), ("5% row-oracle run", false)] {
        let outcome = run_schedule(&small, vectorize, false, false);
        check_results(what, &small, &outcome, gate);
    }
    input
}

/// Run the workload: end-to-end at the reference rate, or (traced
/// invocation) the rate steps plus a traced quarter-length run.
pub fn run(cx: &Cx) -> RunResult {
    if cx.args.trace {
        return run_layers(cx);
    }
    let mut gate = Gate::default();
    let phases = [reference_phase(cx, cx.args.seconds.max(MIN_SECONDS))];
    let mut input = None;
    let setup_s = timed_setup(|gate| input = Some(setup(cx, &phases, gate)), &mut gate);
    let input = input.expect("set-up ran");

    let outcome = run_schedule(&input, true, true, false);
    check_results("paced run", &input, &outcome, &mut gate);
    let lat = latencies(&input, &outcome);
    gate.expect(lat.iter().all(|l| l.ms >= 0.0), || {
        "a result reached the sink before its closing watermark was due".into()
    });
    let ms: Vec<f64> = lat.iter().map(|l| l.ms).collect();
    gate.expect(!ms.is_empty(), || "no watermark closed a window".into());
    if ms.is_empty() {
        return finish(input.rows.len() as u64, gate, Metrics::default());
    }
    let late = ms.iter().filter(|&&v| v > LIMIT_MS).count() as u64;
    // First event due to pipeline finished: the offered rate, less the
    // drain after the last event.
    let last_write_ns = outcome.delivered.iter().map(|r| r.at_ns).max().unwrap_or(0);
    let wall_s = last_write_ns.saturating_sub(outcome.start_ns) as f64 / 1e9;

    let mut m = Metrics::default();
    m.put("throughput_eps", input.rows.len() as f64 / wall_s);
    let schedule_ns = (phases[0].seconds * 1e9) as u64;
    m.put("latency_p50_ms", steady_p50(&lat, schedule_ns));
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("setup_s", setup_s);
    eprintln!(
        "{}: {} events at {:.0}/s, {} results, p50 {:.2} ms p99 {:.2} ms, {late} over {LIMIT_MS} ms",
        cx.args.spec.name,
        input.rows.len(),
        phases[0].rate,
        ms.len(),
        quantile(&ms, 0.5),
        quantile(&ms, 0.99),
    );
    finish(ms.len() as u64, gate, m)
}

/// The traced invocation for the open loop.
fn run_layers(cx: &Cx) -> RunResult {
    let mut gate = Gate::default();
    let seconds = cx.args.seconds.max(MIN_SECONDS);
    let reference = reference_phase(cx, seconds * 0.3);
    let phases = [
        reference,
        Phase {
            rate: reference.rate * 2.0,
            seconds: seconds * 0.15,
        },
        Phase {
            rate: reference.rate * 3.0,
            seconds: seconds * 0.15,
        },
    ];
    let input = setup(cx, &phases, &mut gate);
    let outcome = run_schedule(&input, true, true, false);
    check_results("stepped run", &input, &outcome, &mut gate);
    let lat = latencies(&input, &outcome);

    let mut m = Metrics::default();
    let at_reference: Vec<f64> = lat.iter().filter(|l| l.phase == 0).map(|l| l.ms).collect();
    gate.expect(!at_reference.is_empty(), || {
        "no watermark closed a window at the reference rate".into()
    });
    if at_reference.is_empty() {
        return finish(input.rows.len() as u64, gate, m);
    }
    m.put("paced.latency_p99_ms", quantile(&at_reference, 0.99));
    m.put("paced.latency_p999_ms", quantile(&at_reference, 0.999));
    m.put("paced.results", at_reference.len() as f64);
    m.put(
        "paced.over_limit_share",
        at_reference.iter().filter(|&&v| v > LIMIT_MS).count() as f64 / at_reference.len() as f64,
    );
    m.put(
        "paced.generator_late_p99_us",
        quantile(&outcome.late_us, 0.99),
    );
    m.put("paced.backlog_max_events", outcome.backlog_max as f64);
    // Highest step that keeps at most 1% of results over the limit and
    // ends with less than 0.1 s of input queued.
    let mut sustained = 0.0f64;
    for (p, (_, phase)) in input.phases.iter().enumerate() {
        let ms: Vec<f64> = lat.iter().filter(|l| l.phase == p).map(|l| l.ms).collect();
        let missed = ms.iter().filter(|&&v| v > LIMIT_MS).count() as f64;
        let backlog = outcome.backlog_at_phase_end.get(p).copied().unwrap_or(0) as f64;
        let holds =
            !ms.is_empty() && missed <= 0.01 * ms.len() as f64 && backlog < 0.1 * phase.rate;
        eprintln!(
            "{}: step {:.0}/s: {} results, {missed} over {LIMIT_MS} ms, backlog {backlog} events -> {}",
            cx.args.spec.name,
            phase.rate,
            ms.len(),
            if holds { "sustained" } else { "not sustained" }
        );
        if holds {
            sustained = sustained.max(phase.rate);
        }
    }
    m.put("paced.sustained_rate_eps", sustained);
    layers::driver_layer(&outcome.driven, &mut m);

    // Traced against untraced at the reference rate, for a shorter time:
    // the schedule fixes the wall, so the overhead is in the time the
    // driver thread spent inside `step` per event.
    let quarter = build_input(cx.args.seed, &[reference_phase(cx, seconds * 0.15)]);
    let busy_us = |o: &Outcome| o.driven.step_us.iter().sum::<f64>();
    let plain = run_schedule(&quarter, true, true, false);
    let traced = run_schedule(&quarter, true, true, true);
    check_results("traced run", &quarter, &traced, &mut gate);
    m.put(
        "trace.overhead_pct",
        (busy_us(&traced) - busy_us(&plain)) / busy_us(&plain) * 100.0,
    );
    layers::self_shares(
        &traced.records,
        traced.driven.wall,
        &[
            ("trace.driver.ingest_self_share", "driver.ingest"),
            ("trace.driver.emit_self_share", "driver.emit"),
            ("trace.driver.finish_self_share", "driver.finish"),
        ],
        &mut m,
    );
    write_chrome_trace(&traced.records, &scratch::trace_path(cx.args.spec.name));

    // Standalone layers on the quarter-length input.
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        StreamBuilder::new()
            .column("auction", DataType::Int)
            .column("bidder", DataType::Int)
            .column("price", DataType::Int)
            .event_time_column("dateTime"),
    );
    let emitting = format!("{SQL} EMIT STREAM AFTER WATERMARK");
    layers::plan_layer(&engine, &emitting, &mut m);
    let events: Vec<(Ts, Change)> = quarter
        .rows
        .iter()
        .map(|r| {
            let ptime = r.value(3).and_then(|v| v.as_ts()).expect("event time");
            (ptime, Change::insert(r.clone()))
        })
        .collect();
    layers::exec_layer(
        &ExecReplay {
            engine: &engine,
            sql: &emitting,
            stream: "Bid",
            events: &events,
            source_events: events.len() as u64,
            lateness: EventDuration(0),
        },
        &mut m,
    );

    finish(at_reference.len() as u64, gate, m)
}
