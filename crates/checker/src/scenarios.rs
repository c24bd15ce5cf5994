//! Ready-made scenarios: the NEXMark suite as full-stack SQL pipelines.
//!
//! [`NexmarkScenario`] runs one suite query end to end — `SET` knobs,
//! `CREATE [PARTITIONED] SOURCE … connector = 'nexmark'`, a transactional
//! CSV file sink, and the `INSERT` that assembles the pipeline — which
//! is exactly what [`crate::harness::check`] needs to kill, restore, and
//! re-run it under every oracle. Every query runs on two workers and is
//! compared with one and three (a query whose plan no key can shard runs
//! on one whatever the count) and with another batch size, and
//! [`NexmarkScenario::plain`] swaps in a non-partitioned source; the
//! checkpoint/restore choreography is the same for all of them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use onesql_connect::{session, Session, SqlPipeline};
use onesql_nexmark::queries::{self, FullStackSpec, ScriptConfig};
use onesql_types::{Error, Result};

use crate::harness::{RunKind, Scenario, ScenarioConfig};

/// Workers and batch size of the reference and nemesis runs. Small
/// batches keep step granularity fine enough for the nemesis to land
/// checkpoints and kills mid-stream.
const WORKERS: usize = 2;
const BATCH: usize = 16;
/// `(workers, batch)` of each variation run.
const VARIATIONS: [(usize, usize); 4] = [(1, BATCH), (3, BATCH), (4, BATCH), (3, 24)];

/// One NEXMark suite query as a checkable full-stack pipeline.
#[derive(Debug)]
pub struct NexmarkScenario {
    spec: FullStackSpec,
    config: ScriptConfig,
    scratch: Scratch,
}

/// A scenario's scratch space: one directory per run under a root that
/// is unique per scenario instance, not just per process (tests in one
/// binary build scenarios for the same query concurrently). Removed when
/// the scenario drops.
#[derive(Debug)]
pub(crate) struct Scratch {
    root: PathBuf,
    run: usize,
    run_dir: PathBuf,
}

impl Scratch {
    pub(crate) fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join("onesql_checker").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let run_dir = root.join("unstarted");
        Scratch {
            root,
            run: 0,
            run_dir,
        }
    }

    /// Start the next run in a fresh directory.
    pub(crate) fn next_run(&mut self) -> Result<()> {
        self.run += 1;
        self.run_dir = self.root.join(format!("run{}", self.run));
        std::fs::create_dir_all(&self.run_dir)
            .map_err(|e| Error::exec(format!("scratch dir {}: {e}", self.run_dir.display())))
    }

    /// The current run's directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.run_dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl NexmarkScenario {
    /// A scenario for `spec` ingesting `events` events, on 2 workers with
    /// variations at 1, 3 and 4 (worker-count independence) and at another
    /// batch size.
    pub fn new(spec: FullStackSpec, events: u64) -> NexmarkScenario {
        let config = ScriptConfig {
            workers: WORKERS,
            batch: BATCH,
            events,
            ..ScriptConfig::default()
        };
        NexmarkScenario {
            scratch: Scratch::new(spec.name),
            spec,
            config,
        }
    }

    /// A scenario by suite name (`"q7"`, …).
    pub fn by_name(name: &str, events: u64) -> NexmarkScenario {
        let spec = queries::full_stack()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no NEXMark suite query named '{name}'"));
        NexmarkScenario::new(spec, events)
    }

    /// Run the query `EMIT STREAM AFTER WATERMARK`, arming the
    /// emit-gated oracle (the spec must name a gate column).
    pub fn gated(mut self) -> NexmarkScenario {
        assert!(
            self.spec.gate_col.is_some(),
            "{}: gating needs a window-end column",
            self.spec.name
        );
        self.config.gated = true;
        self
    }

    /// Feed the query from a plain `CREATE SOURCE` (one partition) instead
    /// of a `PARTITIONED` one.
    pub fn plain(mut self) -> NexmarkScenario {
        self.config.partitions = 0;
        self
    }

    fn sink_path(&self) -> PathBuf {
        self.scratch.dir().join("out.csv")
    }
}

impl Scenario for NexmarkScenario {
    fn name(&self) -> String {
        format!(
            "nexmark/{}{}",
            self.spec.name,
            if self.config.gated { "+gated" } else { "" }
        )
    }

    fn total_events(&self) -> u64 {
        self.config.events
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig {
            gate_col: if self.config.gated {
                self.spec.gate_col
            } else {
                None
            },
            ..ScenarioConfig::default()
        }
    }

    fn variations(&self) -> Vec<bool> {
        VARIATIONS
            .iter()
            .map(|&(_, batch)| batch == BATCH)
            .collect()
    }

    fn begin_run(&mut self, kind: RunKind) -> Result<()> {
        self.scratch.next_run()?;
        // Killed incarnations rebuild from the same config.
        (self.config.workers, self.config.batch) = match kind {
            RunKind::Variation(i) => VARIATIONS[i],
            RunKind::Reference | RunKind::Nemesis => (WORKERS, BATCH),
        };
        Ok(())
    }

    fn build(&mut self, _incarnation: usize) -> Result<(Session, SqlPipeline)> {
        let script = queries::full_stack_script(self.spec.sql, &self.sink_path(), &self.config);
        let mut s = session();
        let pipeline = s.execute_script(&script)?.into_pipeline()?;
        Ok((s, pipeline))
    }

    fn checkpoint_store(&self) -> PathBuf {
        self.scratch.dir().join("store")
    }

    fn artifacts(&self) -> Vec<PathBuf> {
        vec![self.sink_path()]
    }
}
