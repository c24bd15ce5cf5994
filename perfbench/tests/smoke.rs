//! Smoke test: every workload, both modes, at a fiftieth of its size.
//!
//! Checks the contract between the harness and `BENCHMARK.json`, not
//! speeds: every end-to-end metric is reported by every workload, every
//! per-layer metric by the workloads whose layers define it and by no
//! other, counts repeat exactly for equal seeds, and a corrupted sink
//! file trips the digest gate.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use onesql_perfbench::gate::{digest_file, Gate};
use onesql_perfbench::report::{Metrics, RunResult};
use onesql_perfbench::scratch::Scratch;
use onesql_perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use onesql_perfbench::workloads::nx::{sharded_pass, sharded_script};
use onesql_perfbench::workloads::{self, check_passes_agree, finish, RunArgs};

/// `SET trace` flips a process-wide recorder, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.02;

fn run(name: &str, trace: bool) -> RunResult {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("workload exists");
    let result = workloads::run(RunArgs {
        spec,
        seed: 11,
        seconds: 0.0,
        scale: SCALE,
        trace,
        // This process is the test harness, not `onesql-bench`; the
        // child-process reading is covered through the binary below.
        rss_child: false,
    });
    assert!(result.correct, "{name}: {:?}", result.problems);
    assert_eq!(result.failed, 0, "{name}");
    assert!(result.attempted >= 1, "{name}");
    result
}

/// The workloads whose layers define the per-layer metric `name`.
fn defined_on(name: &str) -> Vec<&'static str> {
    let all = || WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>();
    let closed = || {
        all()
            .into_iter()
            .filter(|w| *w != "paced-q5-gated")
            .collect::<Vec<_>>()
    };
    let sharded = vec!["nx-q1-sharded", "nx-q5-sharded", "ckpt-groupby"];
    match name {
        "core.session.assemble_us" => closed(),
        "connect.nexmark.poll_ns_per_event" => {
            let mut w = sharded.clone();
            w.push("wire-q0");
            w
        }
        "connect.file.decode_ns_per_event" => vec!["csv-q2-plain"],
        "connect.file.sink_ns_per_row" | "connect.file.sink_bytes" => {
            let mut w = sharded.clone();
            w.push("csv-q2-plain");
            w
        }
        "core.driver.overhead_ns_per_event" => {
            let mut w = sharded.clone();
            w.push("csv-q2-plain");
            w
        }
        "core.shard.w1_throughput_eps" => sharded,
        "trace.driver.gather_self_share" | "trace.worker.process_self_share" => closed(),
        n if n.starts_with("connect.net.") => vec!["wire-q0"],
        n if n.starts_with("core.durable.") => vec!["ckpt-groupby"],
        n if n.starts_with("paced.") => vec!["paced-q5-gated"],
        _ => all(),
    }
}

#[test]
fn every_workload_reports_the_metrics_it_defines() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut reported: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for w in &WORKLOADS {
        let e2e = run(w.name, false);
        assert_eq!(
            e2e.metrics.names(),
            {
                let mut names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
                names.sort_unstable();
                names
            },
            "{}: end-to-end metrics",
            w.name
        );
        for m in &END_TO_END {
            assert!(
                e2e.metrics.get(m.name).unwrap() > 0.0,
                "{}: {} must never be 0",
                w.name,
                m.name
            );
        }

        let (first, second) = (run(w.name, true), run(w.name, true));
        for name in first.metrics.names() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{}: {name} is not a per-layer metric",
                w.name
            );
            reported.entry(name).or_default().insert(w.name);
        }
        for count in [
            "exec.rows_out",
            "exec.retractions_out",
            "tvr.changelog_rows",
            "state.live_keys",
            "connect.net.frames",
            "core.durable.ckpt_bytes",
            "core.durable.checkpoints",
        ] {
            assert_eq!(
                first.metrics.get(count),
                second.metrics.get(count),
                "{}: count {count} must repeat exactly for one seed",
                w.name
            );
        }
    }
    for m in &PER_LAYER {
        let want: BTreeSet<&str> = defined_on(m.name).into_iter().collect();
        let got = reported.remove(m.name).unwrap_or_default();
        assert_eq!(got, want, "workloads reporting {}", m.name);
    }
}

#[test]
fn a_corrupted_sink_file_trips_the_digest_gate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = Scratch::new("smoke-corrupt");
    let events = 4_000;
    let mut passes = Vec::new();
    for name in ["a.csv", "b.csv"] {
        let sink = scratch.dir().join(name);
        let script = sharded_script(onesql_nexmark::queries::Q1, 11, events, 2, &sink);
        passes.push(sharded_pass(&script, &sink, events, None));
    }
    let mut gate = Gate::default();
    check_passes_agree(&passes, &mut gate);
    assert!(gate.is_ok(), "two clean passes agree");

    // Flip one bit in the middle of the second committed file.
    let sink = scratch.dir().join("b.csv");
    let mut bytes = std::fs::read(&sink).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&sink, bytes).unwrap();
    passes[1].sink = digest_file(&sink);
    let mut gate = Gate::default();
    check_passes_agree(&passes, &mut gate);
    assert!(!gate.is_ok(), "a flipped bit must fail the run");
    let result = finish(2 * events, gate, Metrics::default());
    assert!(!result.correct);
    assert_eq!(
        result.failed, result.attempted,
        "every event counts as failed"
    );
}

#[test]
fn the_binary_ends_with_a_result_line_and_exits_nonzero_on_misuse() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exe = env!("CARGO_BIN_EXE_onesql-bench");
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            "csv-q2-plain",
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--scale", "0.01", "--trace", "0"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for m in &END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{last}"
        );
    }

    let unknown = std::process::Command::new(exe)
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert!(!unknown.status.success());
}
