//! The six workloads and the machinery they share: the per-run context,
//! the step loop that drives a pipeline while timing each round, and the
//! closed-loop measurement protocol.

use std::time::{Duration, Instant};

use onesql_connect::{DriverConfig, PipelineMetrics, Session, SqlPipeline};

use crate::gate::{FileDigest, Gate};
use crate::report::{median, quantile, secs, Metrics, RunResult};
use crate::scratch::Scratch;
use crate::spec::WorkloadSpec;
use crate::tracing::{spanned, Tracer};

pub mod ckpt;
pub mod csv;
pub mod nx;
pub mod paced;
pub mod wire;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// Input seed: equal seeds give equal inputs.
    pub seed: u64,
    /// How long the measured region lasts.
    pub seconds: f64,
    /// Input-size multiplier (tests only; the contract runs at 1.0).
    pub scale: f64,
    /// Traced invocation: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Measure `peak_rss_mb` in a child process (a re-exec of the current
    /// executable, which must be `onesql-bench`). In-process callers that
    /// are some other executable — the tests — say `false` and get the
    /// in-process reading.
    pub rss_child: bool,
}

/// Per-run context handed to a workload.
#[derive(Debug)]
pub struct Cx<'a> {
    /// The invocation.
    pub args: RunArgs,
    /// Source events in one full-size pass, after `--scale`.
    pub events: u64,
    /// This run's scratch directory.
    pub scratch: &'a Scratch,
}

impl Cx<'_> {
    /// Pass size for the traced run and the standalone replays.
    pub fn quarter(&self) -> u64 {
        (self.events / 4).max(64)
    }

    /// Pass size for the setup-time oracle comparison.
    pub fn oracle_events(&self) -> u64 {
        (self.events / 20).max(64)
    }
}

/// A pipeline driven to completion, round by round.
#[derive(Debug)]
pub struct Driven {
    /// First `step` to finished.
    pub wall: Duration,
    /// Wall of each `step` call that ingested events, in microseconds.
    pub step_us: Vec<f64>,
    /// The engine's own accounting at the end.
    pub metrics: PipelineMetrics,
}

/// Drive `pipeline` until it finishes, timing every `step`. `between`
/// runs after each round with the events ingested so far (checkpoints
/// hook in here); returning `false` abandons the pipeline where it stands
/// — a kill. Each round runs inside a bench-owned span that parents the
/// engine's `driver.round` (inert unless tracing is on); with a tracer,
/// the flight recorder is drained between rounds so its ring never
/// evicts.
pub fn drive(
    pipeline: &mut SqlPipeline,
    total: u64,
    mut tracer: Option<&mut Tracer>,
    mut between: impl FnMut(&mut SqlPipeline, u64) -> bool,
) -> Driven {
    let start = Instant::now();
    let mut step_us = Vec::new();
    let mut ingested = 0u64;
    while ingested < total {
        let round = Instant::now();
        let n = spanned("bench.step", || pipeline.step()).expect("pipeline step") as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.tick();
        }
        if n == 0 {
            std::thread::yield_now();
            continue;
        }
        step_us.push(round.elapsed().as_secs_f64() * 1e6);
        ingested += n;
        if !between(pipeline, ingested) {
            return Driven {
                wall: start.elapsed(),
                step_us,
                metrics: pipeline.metrics(),
            };
        }
    }
    // The sources are drained; what remains is the round that observes
    // them finished, the final flush, and the sink commit.
    let metrics = spanned("bench.finish", || pipeline.run()).expect("pipeline finish");
    Driven {
        wall: start.elapsed(),
        step_us,
        metrics,
    }
}

/// One measured pass of a closed-loop workload.
#[derive(Debug)]
pub struct Pass {
    /// The pipeline run (for `wire-q0`, the consumer's).
    pub driven: Driven,
    /// Wall the throughput divides by (equals `driven.wall` except where
    /// a pass spans several pipelines).
    pub wall: Duration,
    /// Digest of the committed sink file.
    pub sink: FileDigest,
    /// Measurements particular to the workload, taken inside the pass
    /// (checkpoint and restore walls), as `(per-layer metric, value)`.
    pub extra: Vec<(&'static str, f64)>,
}

/// A closed-loop workload: bounded input, next round only after the
/// previous one completed.
pub trait ClosedLoop {
    /// Generate the inputs a pass over `events` events reads, and count in
    /// them what its output must hold. Workloads that generate inside the
    /// engine (`nexmark` sources) have nothing to do.
    fn prepare(&mut self, _cx: &Cx, _events: u64) {}

    /// Everything before the timed region: [`ClosedLoop::prepare`] for
    /// the run's pass size, and a 5% run compared against the row oracle.
    /// Called several times per run (the reported set-up time is the
    /// median).
    fn setup(&mut self, cx: &Cx, gate: &mut Gate);

    /// One full pass over `events` source events in a fresh session.
    /// Checks of the pass's own output go to `gate`.
    fn pass(&mut self, cx: &Cx, events: u64, tracer: Option<&mut Tracer>, gate: &mut Gate) -> Pass;

    /// After the timed region: any check that needs another run over
    /// `events` events, against `reference`, a pass of that size.
    fn verify(&mut self, _cx: &Cx, _events: u64, _reference: &Pass, _gate: &mut Gate) {}

    /// The traced invocation's standalone layer replays, on `cx.quarter()`
    /// events of the same generated input; `reference` is the untraced
    /// quarter-size pass the per-event breakdown is taken against.
    fn layers(&mut self, cx: &Cx, reference: &Pass, m: &mut Metrics);
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `peak_rss_mb`: the `VmHWM` of a child process that prepared the inputs
/// and ran exactly one pass, so neither set-up nor earlier passes are in
/// it. The child runs under `MALLOC_ARENA_MAX=1`: with glibc's per-thread
/// arenas the same pass peaks anywhere from 240 to 350 MB on `wire-q0`,
/// depending on which thread's arena a cross-thread free lands in; with
/// one arena it repeats within 1 %. (One arena halves the throughput of
/// the multi-threaded workloads, which is why only this child uses it.)
fn rss_of_one_pass_in_a_child(cx: &Cx) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .args(["--workload", cx.args.spec.name])
        .args(["--seed", &cx.args.seed.to_string()])
        .args(["--scale", &cx.args.scale.to_string()])
        .arg("--rss-probe")
        .env("MALLOC_ARENA_MAX", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn the RSS probe");
    assert!(output.status.success(), "the RSS probe failed");
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mb "))
        .and_then(|v| v.parse().ok())
        .expect("the RSS probe prints its peak")
}

/// The child side of [`rss_of_one_pass_in_a_child`]: prepare, one pass,
/// print the peak. A wrong pass panics, which fails the parent too.
pub fn rss_probe(args: RunArgs) {
    let scratch = Scratch::new(&format!("{}-rss", args.spec.name));
    let cx = Cx {
        args,
        events: scaled_events(&args),
        scratch: &scratch,
    };
    let mut workload = closed_loop(args.spec.name);
    let mut gate = Gate::default();
    workload.prepare(&cx, cx.events);
    workload.pass(&cx, cx.events, None, &mut gate);
    assert!(gate.is_ok(), "RSS probe pass: {:?}", gate.into_problems());
    println!("peak_rss_mb {}", peak_rss_mb());
}

/// How many times set-up is repeated; the reported time is the median.
const SETUP_REPEATS: usize = 3;

/// Run `setup` [`SETUP_REPEATS`] times; the median wall in seconds.
pub fn timed_setup(mut setup: impl FnMut(&mut Gate), gate: &mut Gate) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            setup(gate);
            secs(start.elapsed())
        })
        .collect();
    median(&times)
}

/// Checks every closed-loop pass must satisfy on its own.
pub fn check_pass(pass: &Pass, events: u64, header: bool, gate: &mut Gate) {
    let m = &pass.driven.metrics;
    gate.expect_eq("events_in", m.events_in, events);
    gate.expect_eq(
        "sink rows vs events_out",
        pass.sink.rows(header),
        m.events_out,
    );
}

/// Same seed, same input: every pass must commit the same sink bytes.
pub fn check_passes_agree(passes: &[Pass], gate: &mut Gate) {
    for (i, pass) in passes.iter().enumerate() {
        gate.expect_eq(
            &format!("pass {i} sink digest vs pass 0"),
            pass.sink,
            passes[0].sink,
        );
    }
}

/// The end-to-end protocol: set up, then full passes until `seconds`
/// have elapsed, then verify.
///
/// Throughput is the upper quartile over passes and round latency the
/// lower quartile. On the shared reference host interference comes in
/// bursts that only ever slow a pass down, while now and then a pass runs
/// faster than the machine sustains: the quartile on the fast side sits
/// on the plateau between the two. Over ten seeds in the host's noisy
/// state it spread 10-19 % where the median of the same passes spread
/// 15-25 %; in the calm state both stay under 8 %.
pub fn run_end_to_end(workload: &mut dyn ClosedLoop, cx: &Cx) -> RunResult {
    let mut gate = Gate::default();
    let setup_s = timed_setup(|gate| workload.setup(cx, gate), &mut gate);

    let mut passes: Vec<Pass> = Vec::new();
    let mut first_pass_rss_mb = 0.0;
    let started = Instant::now();
    while passes.len() < 2 || secs(started.elapsed()) < cx.args.seconds {
        passes.push(workload.pass(cx, cx.events, None, &mut gate));
        if passes.len() == 1 {
            first_pass_rss_mb = peak_rss_mb();
        }
    }
    let rss_mb = if cx.args.rss_child {
        rss_of_one_pass_in_a_child(cx)
    } else {
        first_pass_rss_mb
    };
    check_passes_agree(&passes, &mut gate);
    workload.verify(cx, cx.events, &passes[0], &mut gate);

    let eps: Vec<f64> = passes
        .iter()
        .map(|p| cx.events as f64 / secs(p.wall))
        .collect();
    let round_ms: Vec<f64> = passes
        .iter()
        .map(|p| quantile(&p.driven.step_us, 0.5) / 1e3)
        .collect();
    let mut metrics = Metrics::default();
    metrics.put("throughput_eps", quantile(&eps, 0.75));
    metrics.put("latency_p50_ms", quantile(&round_ms, 0.25));
    metrics.put("peak_rss_mb", rss_mb);
    metrics.put("setup_s", setup_s);
    eprintln!(
        "{}: {} passes of {} events, ev/s: {}",
        cx.args.spec.name,
        passes.len(),
        cx.events,
        eps.iter()
            .map(|e| format!("{e:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    finish(cx.events * passes.len() as u64, gate, metrics)
}

/// Fold the gate into the result: one failed check fails every event.
pub fn finish(attempted: u64, gate: Gate, metrics: Metrics) -> RunResult {
    let correct = gate.is_ok();
    RunResult {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        problems: gate.into_problems(),
        metrics,
    }
}

/// Assemble `script` in a fresh session; the pipeline it defines.
pub fn assemble(script: &str) -> (Session, SqlPipeline) {
    assemble_on(script, true)
}

/// [`assemble`] on the vectorized executor path, or (`vectorize: false`)
/// on the per-row path that serves as the oracle.
pub fn assemble_on(script: &str, vectorize: bool) -> (Session, SqlPipeline) {
    let mut session = onesql_connect::session();
    session.set_driver_config(DriverConfig {
        vectorize,
        ..DriverConfig::default()
    });
    let pipeline = session
        .execute_script(script)
        .unwrap_or_else(|e| panic!("script failed: {e}\n{script}"))
        .into_pipeline()
        .expect("script defines one pipeline");
    (session, pipeline)
}

fn scaled_events(args: &RunArgs) -> u64 {
    ((args.spec.events as f64 * args.scale).round() as u64).max(256)
}

fn closed_loop(name: &str) -> Box<dyn ClosedLoop> {
    match name {
        "nx-q1-sharded" => Box::new(nx::Nexmark::q1()),
        "nx-q5-sharded" => Box::new(nx::Nexmark::q5()),
        "csv-q2-plain" => Box::new(csv::CsvQ2::default()),
        "wire-q0" => Box::new(wire::WireQ0::default()),
        "ckpt-groupby" => Box::new(ckpt::CkptGroupBy),
        other => panic!("no closed-loop workload named '{other}'"),
    }
}

/// Run one invocation of `args.spec`.
pub fn run(args: RunArgs) -> RunResult {
    let mut scratch = Scratch::new(args.spec.name);
    let cx = Cx {
        args,
        events: scaled_events(&args),
        scratch: &scratch,
    };
    let result = match args.spec.name {
        "paced-q5-gated" => paced::run(&cx),
        name => {
            let mut workload = closed_loop(name);
            if args.trace {
                crate::layers::run_traced(workload.as_mut(), &cx)
            } else {
                run_end_to_end(workload.as_mut(), &cx)
            }
        }
    };
    if !result.correct {
        scratch.keep();
    }
    result
}
