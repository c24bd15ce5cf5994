//! The seeded fault injector: one RNG, one reproducible plan.
//!
//! A [`Nemesis`] turns a seed into an arbitrary-but-reproducible
//! interleaving of the fault actions the engine claims to survive:
//! uneven scheduling chunks (batch-boundary shuffles), mid-stream
//! checkpoints, post-checkpoint staging before a kill, and kill/restore
//! cycles. The harness asks it for a [`NemesisPlan`] up front, so a
//! failing seed prints a complete, replayable choreography.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for plan generation; the defaults suit a few-thousand-event run.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// RNG seed — the whole plan is a deterministic function of it.
    pub seed: u64,
    /// Kill/restore cycles to attempt (fewer happen if the pipeline
    /// drains first).
    pub kills: usize,
    /// Largest scheduling chunk, in driver steps, between harness
    /// actions.
    pub max_chunk: usize,
}

impl Default for NemesisConfig {
    fn default() -> NemesisConfig {
        NemesisConfig {
            seed: 0,
            kills: 2,
            max_chunk: 7,
        }
    }
}

/// One kill/restore cycle: checkpoint once `checkpoint_at` events are
/// ingested, keep staging until `kill_at`, then kill and restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillCycle {
    /// Ingested-event threshold at which to take the checkpoint.
    pub checkpoint_at: u64,
    /// Ingested-event threshold at which to kill (≥ `checkpoint_at`;
    /// the gap is uncommitted staging the restore must discard).
    pub kill_at: u64,
}

/// The full choreography for one nemesis run.
#[derive(Debug, Clone)]
pub struct NemesisPlan {
    /// Kill cycles in ingestion order.
    pub cycles: Vec<KillCycle>,
}

impl NemesisPlan {
    /// One single-kill plan per event boundary of a run ingesting
    /// `total_events`, for a scenario small enough to try them all: for
    /// every `k` in `1..total_events`, a checkpoint and a kill after `k`
    /// events, and (while `k + 1` events leave the stream unfinished) a
    /// checkpoint after `k` with the kill after `k + 1`, so the restore
    /// also discards output staged past the checkpoint.
    pub fn every_kill_point(total_events: u64) -> Vec<NemesisPlan> {
        let single = |checkpoint_at, kill_at| NemesisPlan {
            cycles: vec![KillCycle {
                checkpoint_at,
                kill_at,
            }],
        };
        (1..total_events)
            .flat_map(|k| {
                let staged = (k + 1 < total_events).then(|| single(k, k + 1));
                std::iter::once(single(k, k)).chain(staged)
            })
            .collect()
    }
}

/// The seeded fault injector; see the [module docs](self).
#[derive(Debug)]
pub struct Nemesis {
    config: NemesisConfig,
    rng: StdRng,
}

impl Nemesis {
    /// A nemesis over explicit knobs.
    pub fn new(config: NemesisConfig) -> Nemesis {
        let rng = StdRng::seed_from_u64(config.seed);
        Nemesis { config, rng }
    }

    /// Default knobs under `seed`.
    pub fn seeded(seed: u64) -> Nemesis {
        Nemesis::new(NemesisConfig {
            seed,
            ..NemesisConfig::default()
        })
    }

    /// The configured knobs.
    pub fn config(&self) -> &NemesisConfig {
        &self.config
    }

    /// The next scheduling chunk: how many driver steps to take before
    /// the harness looks at the pipeline again. Varying this shuffles
    /// which batch boundaries probes, checkpoints, and kills land on.
    pub fn chunk(&mut self) -> usize {
        self.rng.gen_range(1..=self.config.max_chunk.max(1))
    }

    /// Lay out the kill cycles for a run ingesting `total_events`.
    ///
    /// Checkpoints land in the middle 20–80% of the stream, kills a
    /// random amount of staging later, and cycles are spaced out so each
    /// restore gets to make progress before the next checkpoint.
    pub fn plan(&mut self, total_events: u64) -> NemesisPlan {
        let kills = self.config.kills as u64;
        if kills == 0 || total_events < 10 {
            return NemesisPlan { cycles: Vec::new() };
        }
        let lo = total_events / 5;
        let hi = total_events * 4 / 5;
        let span = (hi - lo).max(1) / kills;
        let mut cycles = Vec::with_capacity(kills as usize);
        for k in 0..kills {
            let base = lo + k * span;
            let checkpoint_at = base + self.rng.gen_range(0..span.max(1));
            // Staging gap: up to a tenth of the stream, but always
            // strictly before the stream ends so the kill can land.
            let staging = self.rng.gen_range(0..=(total_events / 10).max(1));
            let kill_at = (checkpoint_at + staging).min(total_events.saturating_sub(1));
            cycles.push(KillCycle {
                checkpoint_at,
                kill_at: kill_at.max(checkpoint_at),
            });
        }
        NemesisPlan { cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible_per_seed() {
        let a = Nemesis::seeded(42).plan(5_000);
        let b = Nemesis::seeded(42).plan(5_000);
        assert_eq!(a.cycles, b.cycles);
        let c = Nemesis::seeded(43).plan(5_000);
        assert!(!c.cycles.is_empty());
    }

    #[test]
    fn cycles_are_ordered_and_kill_after_checkpoint() {
        let plan = Nemesis::seeded(7).plan(4_000);
        assert_eq!(plan.cycles.len(), 2);
        assert!(plan.cycles[0].checkpoint_at <= plan.cycles[1].checkpoint_at);
        for cycle in &plan.cycles {
            assert!(cycle.kill_at >= cycle.checkpoint_at);
            assert!(cycle.kill_at < 4_000);
        }
    }

    #[test]
    fn every_kill_point_covers_each_boundary_twice_but_the_last() {
        let plans = NemesisPlan::every_kill_point(4);
        let points: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| (p.cycles[0].checkpoint_at, p.cycles[0].kill_at))
            .collect();
        assert_eq!(points, vec![(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]);
    }

    #[test]
    fn tiny_streams_get_no_kills() {
        assert!(Nemesis::seeded(1).plan(5).cycles.is_empty());
    }

    #[test]
    fn chunks_stay_in_range() {
        let mut n = Nemesis::new(NemesisConfig {
            seed: 9,
            kills: 2,
            max_chunk: 5,
        });
        for _ in 0..100 {
            let c = n.chunk();
            assert!((1..=5).contains(&c));
        }
    }
}
