//! The benchmark's vocabulary: workloads, metrics, bounds.
//!
//! `BENCHMARK.json` at the repository root is [`benchmark_json`] written
//! to a file (a test keeps the two equal), so a name exists in exactly
//! one place and a workload cannot report a metric the contract does not
//! list.

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// One workload: its name, the reason it exists, and its size.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Source events in one pass at `--scale 1` (for `paced-q5-gated`,
    /// the reference rate in events per second).
    pub events: u64,
}

/// The six workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "nx-q1-sharded",
        why: "Q1 projection, 2 workers, 4-partition nexmark source, txn CSV sink: every row is routed, merged, rendered and retained while keyed state idles",
        events: 800_000,
    },
    WorkloadSpec {
        name: "nx-q5-sharded",
        why: "Q5 hop-window COUNT per auction, ungated EMIT STREAM: retraction churn, so keyed aggregate state and changelog upkeep dominate and the source is minor",
        events: 300_000,
    },
    WorkloadSpec {
        name: "csv-q2-plain",
        why: "Bid CSV file through the plain driver and a 0.8% filter: text decode and rows-to-columns dominate; sink, merge and state are bypassed",
        events: 3_000_000,
    },
    WorkloadSpec {
        name: "wire-q0",
        why: "Q0 producer to NetSink over TCP loopback to a NetSource consumer with a cheap filter: wire encode, framing, acks and decode dominate",
        events: 1_000_000,
    },
    WorkloadSpec {
        name: "ckpt-groupby",
        why: "GROUP BY auction with a durable checkpoint every 1/12 of the input, killed at 50% and restored in a fresh session: snapshot, encode, persist, decode, install",
        events: 360_000,
    },
    WorkloadSpec {
        name: "paced-q5-gated",
        why: "open loop: Bid rows sent on a fixed schedule into hop windows with EMIT AFTER WATERMARK and a timestamping sink: the gated emit path and the latency view",
        events: 50_000,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Dotted name; the prefix is the layer (crate/module) it measures.
    pub name: &'static str,
    /// Unit, in the contract's alphabet.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a pipeline owner feels. Every workload reports every one of
/// these, measured with tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("throughput_eps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics, from the traced invocation (`--trace 1`). A
/// workload reports the ones its layers define; the rest read 0 there.
pub const PER_LAYER: [MetricSpec; 57] = [
    layer("plan.parse_bind_us", "us", Lower),
    layer("core.session.assemble_us", "us", Lower),
    layer("connect.nexmark.poll_ns_per_event", "ns", Lower),
    layer("connect.file.decode_ns_per_event", "ns", Lower),
    layer("connect.file.sink_ns_per_row", "ns", Lower),
    layer("connect.file.sink_bytes", "bytes", Lower),
    layer("tvr.batch_build_ns_per_row", "ns", Lower),
    layer("tvr.changelog_rows", "count", Lower),
    layer("exec.query_ns_per_event", "ns", Lower),
    layer("exec.query_rowpath_ns_per_event", "ns", Lower),
    layer("exec.rows_out", "count", Lower),
    layer("exec.retractions_out", "count", Lower),
    layer("exec.out_per_in", "ratio", Lower),
    layer("state.live_keys", "count", Lower),
    layer("state.encoded_bytes", "bytes", Lower),
    layer("state.snapshot_us", "us", Lower),
    layer("state.restore_us", "us", Lower),
    layer("core.driver.step_p50_us", "us", Lower),
    layer("core.driver.step_p99_us", "us", Lower),
    layer("core.driver.rounds", "count", Lower),
    layer("core.driver.idle_rounds", "count", Lower),
    layer("core.driver.vectorized_rounds", "count", Higher),
    layer("core.driver.fallback_rounds", "count", Lower),
    layer("core.driver.batch_rows_p50", "count", Higher),
    layer("core.driver.poll_share", "ratio", Lower),
    layer("core.driver.merge_share", "ratio", Lower),
    layer("core.driver.emit_share", "ratio", Lower),
    layer("core.driver.overhead_ns_per_event", "ns", Lower),
    layer("core.shard.w1_throughput_eps", "1/s", Higher),
    layer("connect.net.publish_ns_per_event", "ns", Lower),
    layer("connect.net.consume_ns_per_event", "ns", Lower),
    layer("connect.net.bytes_per_event", "bytes", Lower),
    layer("connect.net.frames", "count", Lower),
    layer("connect.net.replayed", "count", Lower),
    layer("core.durable.checkpoint_p50_ms", "ms", Lower),
    layer("core.durable.checkpoints", "count", Higher),
    layer("core.durable.restore_ms", "ms", Lower),
    layer("core.durable.barrier_us", "us", Lower),
    layer("core.durable.encode_us", "us", Lower),
    layer("core.durable.decode_us", "us", Lower),
    layer("core.durable.save_us", "us", Lower),
    layer("core.durable.load_us", "us", Lower),
    layer("core.durable.ckpt_bytes", "bytes", Lower),
    layer("core.durable.bytes_per_key", "bytes", Lower),
    layer("paced.latency_p99_ms", "ms", Lower),
    layer("paced.latency_p999_ms", "ms", Lower),
    layer("paced.sustained_rate_eps", "1/s", Higher),
    layer("paced.generator_late_p99_us", "us", Lower),
    layer("paced.backlog_max_events", "count", Lower),
    layer("paced.results", "count", Higher),
    layer("paced.over_limit_share", "ratio", Lower),
    layer("trace.driver.ingest_self_share", "ratio", Lower),
    layer("trace.driver.gather_self_share", "ratio", Lower),
    layer("trace.driver.emit_self_share", "ratio", Lower),
    layer("trace.driver.finish_self_share", "ratio", Lower),
    layer("trace.worker.process_self_share", "ratio", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The spec of `name`, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The command `BENCHMARK.json` names: cargo builds this package from
/// source in the checkout, then runs the harness binary.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "onesql-bench",
    "--",
];

fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str()),
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \
         \"per_layer\": [\n    {per_layer}\n  ]\n}}\n",
        command.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `onesql-bench --emit-spec > BENCHMARK.json`"
        );
    }
}
