//! The paper scenario's own checks: that it fails when the schedule loses
//! a watermark or a planned kill never lands, and the deep sweep over
//! every listing, kill point, worker count and chunk seed. The quick
//! per-listing runs are the root crate's `tests/paper_listings.rs`.

use onesql_checker::paper::{assert_listing, check_listing, listing, listings, PaperScenario};
use onesql_checker::{check, KillCycle, Nemesis, NemesisPlan};
use onesql_nexmark::paper::{paper_timeline, PaperEvent};
use onesql_types::Ts;

/// The 8:16 watermark releases the first window under `AFTER
/// WATERMARK`; without it that window waits for 8:21, and the listings
/// that show it earlier must fail.
#[test]
fn dropping_a_watermark_fails_the_gated_listings() {
    let mut timeline = paper_timeline();
    timeline.retain(
        |event| !matches!(event, PaperEvent::Watermark { ptime, .. } if *ptime == Ts::hm(8, 16)),
    );
    for name in ["Listings 10-12", "Listing 13"] {
        let violations = check_listing(&listing(name), &timeline, 1, 0).unwrap();
        assert!(
            violations.iter().any(|v| v.oracle == "paper-listing"),
            "{name} passed without its 8:16 watermark"
        );
    }
}

/// A plan whose kill falls past the end of the stream never restores,
/// and the harness says so instead of passing a run that proved nothing.
#[test]
fn a_plan_whose_kill_never_lands_fails() {
    let timeline = paper_timeline();
    let mut scenario = PaperScenario::new(&listing("Listing 9"), &timeline, 1);
    let end = timeline.len() as u64;
    let plan = NemesisPlan {
        cycles: vec![KillCycle {
            checkpoint_at: end,
            kill_at: end,
        }],
    };
    let report = check(&mut scenario, Nemesis::seeded(0), &plan).unwrap();
    assert_eq!(report.nemesis.incarnations, 1);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.oracle == "nemesis-landed"),
        "{:?}",
        report.violations
    );
}

/// Every listing at every kill point, on one worker and on two, under
/// several chunk seeds.
/// Run explicitly (CI's checker-stress job):
/// `cargo test -q -p onesql_checker --release -- --ignored`.
#[test]
#[ignore = "deep sweep; run with --ignored (release)"]
fn every_listing_survives_a_kill_at_every_event_boundary() {
    for l in listings() {
        for chunk_seed in 0..6 {
            assert_listing(l.name, chunk_seed);
        }
    }
}
