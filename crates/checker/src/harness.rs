//! The black-box harness: drive a scenario, record its observable
//! history, and run every oracle over it.
//!
//! A [`Scenario`] knows how to build (and rebuild, after a kill) one
//! pipeline; the harness owns everything else — scheduling chunks, the
//! kill/restore choreography from a [`Nemesis`] plan, `AS OF` probes,
//! artifact capture, and the cross-run comparisons. One call to
//! [`check`] replaces a hand-rolled kill-choreography test: it runs the
//! scenario once uninterrupted (the reference), once under a nemesis
//! plan — seeded ([`check_seeded`]) or explicit — and once per
//! configuration variation, then returns a [`Report`] of every oracle
//! violation.

use std::path::PathBuf;

use onesql_connect::{Session, SqlPipeline};
use onesql_core::HistoryTap;
use onesql_types::{Error, Result, Row, Ts};

use crate::nemesis::{KillCycle, Nemesis, NemesisPlan};
use crate::oracle::{self, Violation};
use onesql_core::HistoryEvent;

/// Which run of a scenario the harness is asking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// The uninterrupted run every other run is compared against.
    Reference,
    /// The faulted run: kills, restores, shuffled scheduling.
    Nemesis,
    /// An uninterrupted run under the scenario's `i`-th alternate
    /// configuration (another worker count or batch size); its table must
    /// match the reference's.
    Variation(usize),
}

/// Per-scenario oracle knobs.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Output column holding the window-end timestamp, when the query
    /// runs `EMIT AFTER WATERMARK`; enables the emit-gated oracle.
    pub gate_col: Option<usize>,
    /// `AS OF` probes to take per run (spread over the stream).
    pub probes: usize,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig {
            gate_col: None,
            probes: 2,
        }
    }
}

/// One pipeline the checker knows how to run, kill, and rebuild.
///
/// `begin_run(kind)` resets per-run state (fresh sink paths, fresh
/// checkpoint store); `build(0)` assembles the initial incarnation and
/// `build(i > 0)` an identically-configured successor the harness will
/// `RESTORE` into. Connectors must be deterministic per run (same seed,
/// same inputs) — that determinism is exactly what the replay-identical
/// oracle verifies end to end.
pub trait Scenario {
    /// Display name, used in reports.
    fn name(&self) -> String;

    /// Events the pipeline ingests in one complete run.
    fn total_events(&self) -> u64;

    /// Oracle knobs.
    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::default()
    }

    /// Uninterrupted configuration variations to verify, one entry each:
    /// `true` for one at the reference's batch size (another worker
    /// count), whose table must match the reference's at every instant the
    /// reference probed and finally; `false` for one at another batch
    /// size, which re-times the clock, so only its final table is
    /// compared. Empty disables the variation pass.
    fn variations(&self) -> Vec<bool> {
        Vec::new()
    }

    /// Reset per-run state for a fresh run of `kind`.
    fn begin_run(&mut self, kind: RunKind) -> Result<()>;

    /// Build incarnation `incarnation` of the current run's pipeline.
    fn build(&mut self, incarnation: usize) -> Result<(Session, SqlPipeline)>;

    /// Where the nemesis checkpoints this run; must be stable within a
    /// run and fresh across runs.
    fn checkpoint_store(&self) -> PathBuf;

    /// Hook between the kill and the rebuild (e.g. restart a producer).
    fn after_kill(&mut self) -> Result<()> {
        Ok(())
    }

    /// Hook after every scheduling chunk, with the events ingested so
    /// far; lets a scenario manage external moving parts (producers,
    /// upstream pipelines) mid-run.
    fn mid_run(&mut self, _pipeline: &mut SqlPipeline, _events_in: u64) -> Result<()> {
        Ok(())
    }

    /// Sink files whose bytes the current run leaves behind; the nemesis
    /// run's must equal the reference run's.
    fn artifacts(&self) -> Vec<PathBuf> {
        Vec::new()
    }
}

/// One `AS OF` probe: what `table_at(at)` returned, and in which
/// incarnation it was taken.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Incarnation (0 = before any kill).
    pub incarnation: usize,
    /// The probed ptime (strictly below the driver clock at probe time).
    pub at: Ts,
    /// The rows the probe saw.
    pub rows: Vec<Row>,
}

/// Everything one run left behind.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Which run this was.
    pub kind: RunKind,
    /// The raw tap record, spanning kills.
    pub raw: Vec<HistoryEvent>,
    /// The spliced history an uninterrupted observer would have seen.
    pub effective: Vec<HistoryEvent>,
    /// The operator table after finish (final incarnation's view).
    pub table: Vec<Row>,
    /// Probes taken during the run.
    pub probes: Vec<Probe>,
    /// `(path, bytes)` for every scenario artifact.
    pub artifacts: Vec<(PathBuf, Vec<u8>)>,
    /// Incarnations the run went through (1 = never killed).
    pub incarnations: usize,
    /// Violations detected online (probe re-reads that changed).
    pub online_violations: Vec<Violation>,
}

/// The outcome of [`check`]: every run's record plus all violations.
#[derive(Debug)]
pub struct Report {
    /// Scenario display name.
    pub scenario: String,
    /// The nemesis seed the faulted run used.
    pub seed: u64,
    /// The uninterrupted run.
    pub reference: RunRecord,
    /// The faulted run.
    pub nemesis: RunRecord,
    /// Uninterrupted variation runs, in scenario order.
    pub variations: Vec<RunRecord>,
    /// Every oracle violation, across all runs and comparisons.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether every oracle passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable digest unless every oracle passed.
    pub fn assert_ok(&self) {
        if self.is_ok() {
            return;
        }
        let lines: Vec<String> = self.violations.iter().map(|v| format!("  {v}")).collect();
        panic!(
            "checker: scenario '{}' (seed {}) violated {} oracle(s):\n{}\n\
             reference: {} events effective, {} probes; nemesis: {} events \
             effective, {} incarnation(s)",
            self.scenario,
            self.seed,
            self.violations.len(),
            lines.join("\n"),
            self.reference.effective.len(),
            self.reference.probes.len(),
            self.nemesis.effective.len(),
            self.nemesis.incarnations,
        );
    }
}

/// Run `scenario` under every oracle: reference run, nemesis run under
/// `plan` (scheduling chunks drawn from `nemesis`), variation runs, then
/// all cross-run comparisons. A plan with kill cycles must land at least
/// one: a nemesis run that never restored proves nothing about recovery.
pub fn check(
    scenario: &mut dyn Scenario,
    mut nemesis: Nemesis,
    plan: &NemesisPlan,
) -> Result<Report> {
    let seed = nemesis.config().seed;
    let reference = execute_run(scenario, RunKind::Reference, None, &[])?;
    let nemesis_run = execute_run(scenario, RunKind::Nemesis, Some(&mut nemesis), &plan.cycles)?;
    let as_of = scenario.variations();
    let mut variations = Vec::new();
    for v in 0..as_of.len() {
        variations.push(execute_run(scenario, RunKind::Variation(v), None, &[])?);
    }

    let mut violations = Vec::new();
    if !plan.cycles.is_empty() && nemesis_run.incarnations == 1 {
        violations.push(Violation {
            oracle: "nemesis-landed",
            detail: format!(
                "the plan had {} kill cycle(s) and none landed",
                plan.cycles.len()
            ),
        });
    }
    violations.extend(reference.online_violations.iter().cloned());
    violations.extend(nemesis_run.online_violations.iter().cloned());

    // Per-history oracles.
    for run in std::iter::once(&reference)
        .chain(std::iter::once(&nemesis_run))
        .chain(variations.iter())
    {
        violations.extend(oracle::watermark_monotone(&run.effective));
        violations.extend(oracle::retraction_balanced(&run.effective));
        if let Some(col) = scenario.config().gate_col {
            violations.extend(oracle::emit_gated(&run.effective, col));
        }
    }

    // Stream/table duality: the reference run never restored, so its
    // final operator table must equal its changelog fold.
    violations.extend(oracle::retraction_balanced_against(
        &reference.effective,
        &reference.table,
    ));

    // Replay: the faulted run's effective history is the reference's.
    violations.extend(oracle::replay_identical(
        &reference.effective,
        &nemesis_run.effective,
    ));

    // AS OF: probes must equal the fold of the history at the probed
    // ptime. Valid for every reference probe, and for nemesis probes
    // from incarnation 0 (later incarnations' changelogs restart at the
    // restore point, so only their online re-read stability applies).
    for p in &reference.probes {
        violations.extend(oracle::as_of_stable(&reference.effective, p.at, &p.rows));
    }
    for p in nemesis_run.probes.iter().filter(|p| p.incarnation == 0) {
        violations.extend(oracle::as_of_stable(&nemesis_run.effective, p.at, &p.rows));
    }

    // Artifacts: the faulted run's committed sink bytes are the
    // uninterrupted run's.
    if reference.artifacts.len() != nemesis_run.artifacts.len() {
        violations.push(Violation {
            oracle: "replay-identical",
            detail: format!(
                "artifact counts differ: reference {}, nemesis {}",
                reference.artifacts.len(),
                nemesis_run.artifacts.len()
            ),
        });
    }
    for ((ref_path, ref_bytes), (nem_path, nem_bytes)) in
        reference.artifacts.iter().zip(nemesis_run.artifacts.iter())
    {
        if ref_bytes != nem_bytes {
            violations.push(Violation {
                oracle: "replay-identical",
                detail: format!(
                    "sink artifact differs after kill/restore: {} ({} bytes) vs {} ({} bytes)",
                    ref_path.display(),
                    ref_bytes.len(),
                    nem_path.display(),
                    nem_bytes.len()
                ),
            });
        }
    }

    // Variations denote the same table: finally, and at every instant the
    // reference probed unless the batch size re-times the clock.
    let mut probed: Vec<Ts> = reference.probes.iter().map(|p| p.at).collect();
    probed.dedup();
    for (i, (run, &as_of)) in variations.iter().zip(&as_of).enumerate() {
        let probes = if as_of { &probed[..] } else { &[] };
        let found = oracle::config_transparent(&reference.effective, &run.effective, probes);
        violations.extend(found.into_iter().map(|v| Violation {
            detail: format!("variation {i}: {}", v.detail),
            ..v
        }));
    }

    Ok(Report {
        scenario: scenario.name(),
        seed,
        reference,
        nemesis: nemesis_run,
        variations,
        violations,
    })
}

/// Convenience wrapper: [`check`] under the plan that default nemesis
/// knobs draw from `seed`, panicking on any violation.
pub fn check_seeded(scenario: &mut dyn Scenario, seed: u64) -> Report {
    let mut nemesis = Nemesis::seeded(seed);
    let plan = nemesis.plan(scenario.total_events());
    let report = check(scenario, nemesis, &plan)
        .unwrap_or_else(|e| panic!("checker: scenario failed to run: {e}"));
    report.assert_ok();
    report
}

fn execute_run(
    scenario: &mut dyn Scenario,
    kind: RunKind,
    mut nemesis: Option<&mut Nemesis>,
    cycles: &[KillCycle],
) -> Result<RunRecord> {
    scenario.begin_run(kind)?;
    let tap = HistoryTap::new();
    let (mut session, mut pipeline) = scenario.build(0)?;
    pipeline.driver_mut().attach_sink(Box::new(tap.clone()))?;

    let total = scenario.total_events();
    let store = scenario.checkpoint_store();
    let probes_wanted = scenario.config().probes;
    let probe_marks: Vec<u64> = (1..=probes_wanted as u64)
        .map(|i| total * i / (probes_wanted as u64 + 1))
        .collect();

    let mut incarnation = 0usize;
    let mut probes: Vec<Probe> = Vec::new();
    let mut live_probes: Vec<Probe> = Vec::new();
    let mut online_violations: Vec<Violation> = Vec::new();
    let mut next_probe = 0usize;
    let mut next_cycle = 0usize;
    let mut checkpointed = false;

    loop {
        let chunk = match &mut nemesis {
            Some(n) => n.chunk(),
            None => 4,
        };
        // Thresholds are checked after every step — one step can ingest a
        // whole batch per partition, so waiting for the chunk boundary
        // would let the planned checkpoint or kill slip past the end of
        // the stream.
        for _ in 0..chunk {
            pipeline.step()?;
            let seen = pipeline.events_in();
            if let Some(cycle) = cycles.get(next_cycle) {
                if !checkpointed && seen >= cycle.checkpoint_at && seen < total {
                    pipeline.checkpoint_to(&store)?;
                    checkpointed = true;
                }
                if checkpointed && seen >= cycle.kill_at && seen < total {
                    drop(pipeline);
                    drop(session);
                    live_probes.clear();
                    scenario.after_kill()?;
                    incarnation += 1;
                    let (s, mut p) = scenario.build(incarnation)?;
                    p.driver_mut().attach_sink(Box::new(tap.clone()))?;
                    p.restore_from(&store)?;
                    session = s;
                    pipeline = p;
                    next_cycle += 1;
                    checkpointed = false;
                }
            }
            if seen >= total {
                break;
            }
        }
        let seen = pipeline.events_in();
        scenario.mid_run(&mut pipeline, seen)?;

        // AS-OF stability: every probe this incarnation already took
        // must re-read identically, however much input has landed since.
        for p in &live_probes {
            let rows = pipeline.table_at(p.at)?;
            if rows != p.rows {
                online_violations.push(Violation {
                    oracle: "as-of-stable",
                    detail: format!(
                        "probe AS OF {:?} (incarnation {}) changed on re-read: \
                         {} row(s) then, {} now",
                        p.at,
                        p.incarnation,
                        p.rows.len(),
                        rows.len()
                    ),
                });
            }
        }

        // Scheduled probes, at a ptime strictly below the clock so the
        // snapshot is already immutable.
        while next_probe < probe_marks.len() && seen >= probe_marks[next_probe] {
            let clock = pipeline.clock();
            if clock > Ts::MIN {
                let at = Ts(clock.0 - 1);
                let rows = pipeline.table_at(at)?;
                let probe = Probe {
                    incarnation,
                    at,
                    rows,
                };
                live_probes.push(probe.clone());
                probes.push(probe);
            }
            next_probe += 1;
        }

        if seen >= total {
            break;
        }
    }

    // Drain the tail and finish; `run` steps until every source reports
    // complete, then flushes gates and sinks.
    pipeline.run()?;

    let table = pipeline.table()?;
    let raw = tap.events();
    let effective = oracle::effective_history(&raw);
    let mut artifacts = Vec::new();
    for path in scenario.artifacts() {
        let bytes = std::fs::read(&path)
            .map_err(|e| Error::exec(format!("artifact {}: {e}", path.display())))?;
        artifacts.push((path, bytes));
    }
    drop(pipeline);
    drop(session);

    Ok(RunRecord {
        kind,
        raw,
        effective,
        table,
        probes,
        artifacts,
        incarnations: incarnation + 1,
        online_violations,
    })
}
