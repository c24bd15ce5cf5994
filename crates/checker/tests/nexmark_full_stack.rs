//! The NEXMark suite, promoted to full-stack SQL scripts and run through
//! the checker with the nemesis enabled.
//!
//! Every query assembles via `Session::execute_script` (partitioned
//! NEXMark source, transactional file sink), runs once uninterrupted and
//! once under seeded kill/restore interleavings, plus worker-count
//! variations — and every oracle must pass: watermark-monotone,
//! retraction-balanced, as-of-stable, replay-identical,
//! config-transparent (and emit-gated for the `AFTER WATERMARK`
//! variants). `check_seeded` also fails a run whose planned kills never
//! landed.

use onesql_checker::{check_seeded, NexmarkScenario, RunKind, Scenario};
use proptest::prelude::*;

/// Events per query in the quick suite — enough for several windows and
/// two kill cycles, small enough for tier-1.
const EVENTS: u64 = 1_200;

fn run(name: &str, seed: u64) {
    let mut scenario = NexmarkScenario::by_name(name, EVENTS);
    let report = check_seeded(&mut scenario, seed);
    assert!(
        !report.reference.probes.is_empty(),
        "{name}: the harness should have taken AS OF probes"
    );
}

#[test]
fn q0_full_stack_survives_the_nemesis() {
    run("q0", 11);
}

#[test]
fn q1_full_stack_survives_the_nemesis() {
    run("q1", 12);
}

#[test]
fn q2_full_stack_survives_the_nemesis() {
    run("q2", 13);
}

#[test]
fn q3_full_stack_survives_the_nemesis() {
    run("q3", 14);
}

#[test]
fn q4_full_stack_survives_the_nemesis() {
    run("q4_avg_by_category", 15);
    // Categories span auctions, so no key shards it: `SET workers = 2`
    // runs one worker.
    let mut scenario = NexmarkScenario::by_name("q4_avg_by_category", EVENTS);
    scenario.begin_run(RunKind::Reference).unwrap();
    assert_eq!(scenario.build(0).unwrap().1.workers(), 1);
}

#[test]
fn q5_full_stack_survives_the_nemesis() {
    run("q5_hot_items", 16);
}

#[test]
fn q7_full_stack_survives_the_nemesis() {
    run("q7", 17);
}

#[test]
fn q8_full_stack_survives_the_nemesis() {
    run("q8", 18);
}

/// A non-partitioned source: the kill/restore nemesis and every oracle
/// with `SET workers = 2` over one source partition, with 1- and
/// 3-worker variations.
#[test]
fn plain_source_pipelines_survive_the_nemesis() {
    for (name, seed) in [("q7", 31), ("q5_hot_items", 32)] {
        let mut scenario = NexmarkScenario::by_name(name, EVENTS).plain();
        let report = check_seeded(&mut scenario, seed);
        assert!(!report.reference.probes.is_empty(), "{name}");
    }
}

/// Gated emission: the windowed queries under `EMIT STREAM AFTER
/// WATERMARK`, with the emit-gated oracle armed.
#[test]
fn gated_q7_never_emits_ahead_of_the_watermark() {
    let mut scenario = NexmarkScenario::by_name("q7", EVENTS).gated();
    check_seeded(&mut scenario, 21);
}

#[test]
fn gated_q5_never_emits_ahead_of_the_watermark() {
    let mut scenario = NexmarkScenario::by_name("q5_hot_items", EVENTS).gated();
    check_seeded(&mut scenario, 22);
}

proptest! {
    // Pinned case count: arbitrary nemesis seeds, quick enough for CI's
    // tier-1 lane. The deep seeded pass below widens this.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One proptest entry point replaces hand-rolled kill choreography:
    /// whatever interleaving the seed produces, every oracle holds.
    #[test]
    fn q7_oracles_hold_under_arbitrary_interleavings(seed in 0u64..1_000_000) {
        let mut scenario = NexmarkScenario::by_name("q7", EVENTS);
        check_seeded(&mut scenario, seed);
    }
}

/// The deep stress pass: every query, several seeds, longer streams.
/// Run explicitly (CI's checker-stress job):
/// `cargo test -q -p onesql_checker --release -- --ignored`.
#[test]
#[ignore = "deep seeded stress pass; run with --ignored (release)"]
fn full_suite_deep_seeded_stress() {
    for spec in onesql_nexmark::queries::full_stack() {
        for seed in [101, 202, 303] {
            let mut scenario = NexmarkScenario::new(spec, 4_000);
            check_seeded(&mut scenario, seed);
        }
    }
}

#[test]
#[ignore = "deep seeded stress pass; run with --ignored (release)"]
fn gated_windowed_queries_deep_stress() {
    for name in ["q4_avg_by_category", "q5_hot_items", "q7", "q8"] {
        for seed in [404, 505] {
            let mut scenario = NexmarkScenario::by_name(name, 4_000).gated();
            check_seeded(&mut scenario, seed);
        }
    }
}
