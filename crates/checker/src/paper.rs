//! The paper's worked example as a checkable scenario: the Bid timeline
//! of `onesql_nexmark::paper` and Listings 3–14 over it, run through the
//! production path.
//!
//! The timeline's `(ptime, row | watermark)` schedule is a
//! [`Replay`] registered as the `replay` source, fed one step per poll (its
//! ptimes all differ). Each
//! [`Listing`] is a SQL script run through `Session::execute_script` into
//! the driver, and [`check_listing`] runs it under the harness once per
//! event boundary ([`NemesisPlan::every_kill_point`]): every oracle must
//! hold, and the effective history must carry the paper's rows — the
//! `undo` / `ptime` / `ver` stream for `EMIT STREAM` listings, the table
//! at the paper's instants for the others.
//! A watermark's arrival moves the clock to the paper's ptime through the
//! replay's clock stream, which no listing reads.

use onesql_connect::{default_registry, Session, SqlPipeline};
use onesql_core::connect::replay::Replay;
use onesql_core::HistoryEvent;
use onesql_nexmark::paper::{paper_bid_schema, PaperEvent, PAPER_Q7_SQL};
use onesql_types::{row, Result, Row, Ts};

use crate::harness::{check, RunKind, Scenario, ScenarioConfig};
use crate::nemesis::{Nemesis, NemesisPlan};
use crate::oracle::{emitted, fold_table_at, Violation};
use crate::scenarios::Scratch;

/// What a listing's rows must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The stream rendering, in sink order: `(row, undo, ptime, ver)`.
    Stream(Vec<(Row, bool, Ts, u64)>),
    /// The table at each of the paper's instants.
    Tables(Vec<(Ts, Vec<Row>)>),
}

/// One of the paper's listings: its query and its rows.
#[derive(Debug, Clone)]
pub struct Listing {
    /// Display name, e.g. `"Listing 9"`.
    pub name: &'static str,
    /// The query the script inserts into its sink.
    pub sql: String,
    /// The paper's rows.
    pub expect: Expect,
}

impl Listing {
    /// Every way `history` (an effective history) differs from the
    /// listing's rows.
    fn mismatches(&self, history: &[HistoryEvent]) -> Vec<Violation> {
        let mismatch = |detail: String| Violation {
            oracle: "paper-listing",
            detail: format!("{}: {detail}", self.name),
        };
        match &self.expect {
            Expect::Stream(expected) => {
                let got: Vec<(Row, bool, Ts, u64)> = emitted(history)
                    .into_iter()
                    .map(|r| (r.row.clone(), r.undo, r.ptime, r.ver))
                    .collect();
                let differs =
                    (0..expected.len().max(got.len())).find(|&i| expected.get(i) != got.get(i));
                let show = |row: Option<&(Row, bool, Ts, u64)>| match row {
                    Some((row, undo, ptime, ver)) => {
                        let sign = if *undo { "undo" } else { "+" };
                        format!("{ptime} {sign} {row} ver={ver}")
                    }
                    None => "nothing".to_string(),
                };
                differs
                    .map(|i| {
                        mismatch(format!(
                            "stream row {i} should be {}, is {}",
                            show(expected.get(i)),
                            show(got.get(i))
                        ))
                    })
                    .into_iter()
                    .collect()
            }
            Expect::Tables(tables) => tables
                .iter()
                .filter_map(|(at, rows)| {
                    let mut expected = rows.clone();
                    expected.sort();
                    let got = fold_table_at(history, *at);
                    let show = |rows: &[Row]| {
                        let rows: Vec<String> = rows.iter().map(Row::to_string).collect();
                        format!("[{}]", rows.join(", "))
                    };
                    (got != expected).then(|| {
                        mismatch(format!(
                            "table at {at} should be {}, is {}",
                            show(&expected),
                            show(&got)
                        ))
                    })
                })
                .collect(),
        }
    }
}

fn hm(minutes: i64) -> Ts {
    Ts::hm(8, minutes)
}

/// A Q7 result row: `(wstart, wend, bidtime, price, item)` for the
/// 10-minute window starting at 8:`ws`.
fn q7(ws: i64, bidtime: i64, price: i64, item: &str) -> Row {
    row!(hm(ws), hm(ws + 10), hm(bidtime), price, item)
}

/// A window TVF row: the bid `(bidtime, price, item)` in `[ws, we)`.
fn tvf(bidtime: i64, price: i64, item: &str, ws: i64, we: i64) -> Row {
    row!(hm(bidtime), price, item, hm(ws), hm(we))
}

/// Listings 3–14, plus two scripts the paper prints no table for
/// (a Tumble `SUM`/`COUNT` and `DISTINCT price`), pinned at their final
/// tables.
pub fn listings() -> Vec<Listing> {
    let tumble = "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
                  dur => INTERVAL '10' MINUTES";
    let hop = "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
               dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES)";
    let final_q7 = vec![q7(0, 9, 5, "D"), q7(10, 17, 6, "F")];
    let listing = |name, sql: String, expect| Listing { name, sql, expect };
    let table = |rows| Expect::Tables(vec![(hm(21), rows)]);
    vec![
        listing(
            "Listing 3",
            PAPER_Q7_SQL.to_string(),
            table(final_q7.clone()),
        ),
        listing(
            "Listing 4",
            PAPER_Q7_SQL.to_string(),
            Expect::Tables(vec![(hm(13), vec![q7(0, 5, 4, "C"), q7(10, 11, 3, "B")])]),
        ),
        listing(
            "Listing 5",
            format!("SELECT * FROM {tumble}, offset => INTERVAL '0' MINUTES)"),
            table(vec![
                tvf(7, 2, "A", 0, 10),
                tvf(11, 3, "B", 10, 20),
                tvf(5, 4, "C", 0, 10),
                tvf(9, 5, "D", 0, 10),
                tvf(13, 1, "E", 10, 20),
                tvf(17, 6, "F", 10, 20),
            ]),
        ),
        listing(
            "Listing 6",
            format!("SELECT MAX(wstart), wend, SUM(price) FROM {tumble}) GROUP BY wend"),
            table(vec![
                row!(hm(0), hm(10), 11i64),
                row!(hm(10), hm(20), 10i64),
            ]),
        ),
        listing(
            "Listing 7",
            format!("SELECT * FROM {hop}"),
            table(vec![
                tvf(7, 2, "A", 0, 10),
                tvf(7, 2, "A", 5, 15),
                tvf(11, 3, "B", 5, 15),
                tvf(11, 3, "B", 10, 20),
                tvf(5, 4, "C", 0, 10),
                tvf(5, 4, "C", 5, 15),
                tvf(9, 5, "D", 0, 10),
                tvf(9, 5, "D", 5, 15),
                tvf(13, 1, "E", 5, 15),
                tvf(13, 1, "E", 10, 20),
                tvf(17, 6, "F", 10, 20),
                tvf(17, 6, "F", 15, 25),
            ]),
        ),
        listing(
            "Listing 8",
            format!("SELECT MAX(wstart), wend, SUM(price) FROM {hop} GROUP BY wend"),
            table(vec![
                row!(hm(0), hm(10), 11i64),
                row!(hm(5), hm(15), 15i64),
                row!(hm(10), hm(20), 10i64),
                row!(hm(15), hm(25), 6i64),
            ]),
        ),
        listing(
            "Listing 9",
            format!("{PAPER_Q7_SQL} EMIT STREAM"),
            Expect::Stream(vec![
                (q7(0, 7, 2, "A"), false, hm(8), 0),
                (q7(10, 11, 3, "B"), false, hm(12), 0),
                (q7(0, 7, 2, "A"), true, hm(13), 1),
                (q7(0, 5, 4, "C"), false, hm(13), 2),
                (q7(0, 5, 4, "C"), true, hm(15), 3),
                (q7(0, 9, 5, "D"), false, hm(15), 4),
                (q7(10, 11, 3, "B"), true, hm(18), 1),
                (q7(10, 17, 6, "F"), false, hm(18), 2),
            ]),
        ),
        listing(
            "Listings 10-12",
            format!("{PAPER_Q7_SQL} EMIT AFTER WATERMARK"),
            Expect::Tables(vec![
                (hm(13), vec![]),
                (hm(16), vec![q7(0, 9, 5, "D")]),
                (hm(21), final_q7),
            ]),
        ),
        listing(
            "Listing 13",
            format!("{PAPER_Q7_SQL} EMIT STREAM AFTER WATERMARK"),
            Expect::Stream(vec![
                (q7(0, 9, 5, "D"), false, hm(16), 0),
                (q7(10, 17, 6, "F"), false, hm(21), 0),
            ]),
        ),
        listing(
            "Listing 14",
            format!("{PAPER_Q7_SQL} EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES"),
            Expect::Stream(vec![
                (q7(0, 5, 4, "C"), false, hm(14), 0),
                (q7(10, 17, 6, "F"), false, hm(18), 0),
                (q7(0, 5, 4, "C"), true, hm(21), 1),
                (q7(0, 9, 5, "D"), false, hm(21), 2),
            ]),
        ),
        listing(
            "Tumble SUM/COUNT",
            format!("SELECT wend, SUM(price), COUNT(*) FROM {tumble}) GROUP BY wend"),
            table(vec![row!(hm(10), 11i64, 3i64), row!(hm(20), 10i64, 3i64)]),
        ),
        listing(
            "DISTINCT price",
            "SELECT DISTINCT price FROM Bid".to_string(),
            table((1..=6i64).map(|p| row!(p)).collect()),
        ),
    ]
}

/// The listing named `name`; panics on an unknown name.
pub fn listing(name: &str) -> Listing {
    listings()
        .into_iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("no paper listing named '{name}'"))
}

/// Run `listing` over `schedule` on `workers` workers under every
/// single-kill plan ([`NemesisPlan::every_kill_point`]), drawing
/// scheduling chunks from `chunk_seed`. Returns every oracle violation,
/// plus every run — the uninterrupted one and each killed one — whose
/// rows differ from the listing's.
pub fn check_listing(
    listing: &Listing,
    schedule: &[PaperEvent],
    workers: usize,
    chunk_seed: u64,
) -> Result<Vec<Violation>> {
    let mut scenario = PaperScenario::new(listing, schedule, workers);
    let mut violations = Vec::new();
    for (i, plan) in NemesisPlan::every_kill_point(scenario.total_events())
        .iter()
        .enumerate()
    {
        let report = check(&mut scenario, Nemesis::seeded(chunk_seed), plan)?;
        violations.extend(report.violations);
        if i == 0 {
            violations.extend(listing.mismatches(&report.reference.effective));
        }
        let cycle = plan.cycles[0];
        violations.extend(
            listing
                .mismatches(&report.nemesis.effective)
                .into_iter()
                .map(|v| Violation {
                    detail: format!(
                        "{} (checkpoint after {}, kill after {})",
                        v.detail, cycle.checkpoint_at, cycle.kill_at
                    ),
                    ..v
                }),
        );
    }
    Ok(violations)
}

/// [`check_listing`] over the paper's timeline on one worker and on two,
/// panicking with the first violations unless the listing holds at every
/// kill point.
pub fn assert_listing(name: &str, chunk_seed: u64) {
    let timeline = onesql_nexmark::paper::paper_timeline();
    for workers in [1, 2] {
        let violations = check_listing(&listing(name), &timeline, workers, chunk_seed)
            .unwrap_or_else(|e| panic!("{name}: the paper scenario failed to run: {e}"));
        let shown: Vec<String> = violations
            .iter()
            .take(4)
            .map(|v| format!("  {v}"))
            .collect();
        assert!(
            violations.is_empty(),
            "{name} at {workers} worker(s), chunk seed {chunk_seed}: {} violation(s), first:\n{}",
            violations.len(),
            shown.join("\n")
        );
    }
}

/// One listing over one schedule as a [`Scenario`].
#[derive(Debug)]
pub struct PaperScenario {
    name: &'static str,
    sql: String,
    schedule: Vec<PaperEvent>,
    workers: usize,
    scratch: Scratch,
}

impl PaperScenario {
    /// `listing` over `schedule`, on `workers` workers.
    pub fn new(listing: &Listing, schedule: &[PaperEvent], workers: usize) -> PaperScenario {
        PaperScenario {
            name: listing.name,
            sql: listing.sql.clone(),
            schedule: schedule.to_vec(),
            workers,
            scratch: Scratch::new("paper"),
        }
    }
}

impl Scenario for PaperScenario {
    fn name(&self) -> String {
        format!("paper/{}/W{}", self.name, self.workers)
    }

    fn total_events(&self) -> u64 {
        self.schedule.len() as u64
    }

    /// An `AS OF` probe after every event but the last: the stream/table
    /// duality at each of the timeline's instants.
    fn config(&self) -> ScenarioConfig {
        ScenarioConfig {
            probes: self.schedule.len().saturating_sub(1),
            ..ScenarioConfig::default()
        }
    }

    fn begin_run(&mut self, _kind: RunKind) -> Result<()> {
        self.scratch.next_run()
    }

    fn build(&mut self, _incarnation: usize) -> Result<(Session, SqlPipeline)> {
        let mut registry = default_registry();
        registry.register_source("replay", replay(&self.schedule));
        let mut session = Session::new(registry);
        let script = format!(
            "SET workers = {};
             CREATE SOURCE timeline WITH (connector = 'replay');
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out {};",
            self.workers, self.sql
        );
        let pipeline = session.execute_script(&script)?.into_pipeline()?;
        Ok((session, pipeline))
    }

    fn checkpoint_store(&self) -> std::path::PathBuf {
        self.scratch.dir().join("store")
    }
}

/// `schedule` as a [`Replay`] of the paper's `Bid` stream.
pub fn replay(schedule: &[PaperEvent]) -> Replay {
    let mut replay = Replay::new([("Bid", paper_bid_schema())]);
    for event in schedule {
        match event {
            PaperEvent::Insert { ptime, row } => replay.insert(*ptime, "Bid", row.clone()),
            PaperEvent::Watermark { ptime, wm } => replay.watermark(*ptime, *wm),
        };
    }
    replay
}
