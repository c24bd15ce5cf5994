//! The NEXMark generator as a source: the benchmark's Person / Auction /
//! Bid mix streamed through the connector runtime.

use onesql_core::connect::{
    PartitionedSource, PartitionedVec, Source, SourceBatch, SourceEvent, SourceStatus,
    WrapsPartitioned,
};
use onesql_core::Engine;
use onesql_nexmark::model::{Auction, Bid, Person};
use onesql_nexmark::{GeneratorConfig, NexmarkEvent, NexmarkGenerator};
use onesql_tvr::Change;
use onesql_types::{Duration, Result};

/// Register the three NEXMark streams (and nothing else) on an engine,
/// with the model crate's schemas.
pub fn register_nexmark_streams(engine: &mut Engine) {
    engine.register_stream_schema("Person", Person::schema());
    engine.register_stream_schema("Auction", Auction::schema());
    engine.register_stream_schema("Bid", Bid::schema());
}

/// A bounded NEXMark workload as a source feeding `Person`, `Auction`,
/// and `Bid`.
///
/// Watermarking uses the generator's contract: every event's event time
/// lags its processing time by at most `max_skew`, so after emitting an
/// event at processing time `p` the source asserts a watermark of
/// `p − max_skew`.
pub struct NexmarkSource {
    name: String,
    streams: Vec<String>,
    generator: NexmarkGenerator,
    remaining: u64,
    config: GeneratorConfig,
}

impl NexmarkSource {
    /// A source producing `events` events under `config`.
    pub fn new(config: GeneratorConfig, events: u64) -> NexmarkSource {
        NexmarkSource {
            name: format!("nexmark:seed={}", config.seed),
            streams: vec![
                "Person".to_string(),
                "Auction".to_string(),
                "Bid".to_string(),
            ],
            generator: NexmarkGenerator::new(config.clone()),
            remaining: events,
            config,
        }
    }

    /// Default configuration with the given seed.
    pub fn seeded(seed: u64, events: u64) -> NexmarkSource {
        NexmarkSource::new(
            GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
            events,
        )
    }
}

/// The NEXMark workload split across N ≥ 1 partitions by seed range:
/// partition `p` runs its own deterministic generator seeded with
/// `base seed + p`, producing an equal share of the configured events.
/// One partition is exactly the plain [`NexmarkSource`], name included.
///
/// Each partition is independently replayable (the generator is a pure
/// function of its seed), so a checkpointed pipeline reconstructs any
/// partition's position by regenerating and discarding — the replay seek
/// [`PartitionedVec`] provides. Watermarks are per partition, from the
/// generator's bounded-skew contract.
pub struct PartitionedNexmarkSource(PartitionedVec<NexmarkSource>);

impl PartitionedNexmarkSource {
    /// A source producing `events` events split across `partitions`
    /// generators seeded `config.seed`, `config.seed + 1`, … Each
    /// partition issues entity IDs from its own disjoint block (stride
    /// `events + 1`), so the union of the partitions never produces two
    /// Persons or two Auctions sharing an ID — joins against `Person` /
    /// `Auction` behave like one workload, just partitioned.
    // `partitions.max(1)` parts declaring the same three streams satisfy
    // `PartitionedVec`'s non-empty/uniform invariants, so the `expect`
    // below cannot fire.
    #[allow(clippy::expect_used)]
    pub fn new(
        config: GeneratorConfig,
        events: u64,
        partitions: usize,
    ) -> PartitionedNexmarkSource {
        let partitions = partitions.max(1);
        let per_part = events / partitions as u64;
        let remainder = events % partitions as u64;
        let id_stride = events as i64 + 1;
        let parts: Vec<NexmarkSource> = (0..partitions as u64)
            .map(|p| {
                let share = per_part + u64::from(p < remainder);
                NexmarkSource::new(
                    GeneratorConfig {
                        seed: config.seed.wrapping_add(p),
                        first_person_id: config.first_person_id + p as i64 * id_stride,
                        first_auction_id: config.first_auction_id + p as i64 * id_stride,
                        ..config.clone()
                    },
                    share,
                )
            })
            .collect();
        PartitionedNexmarkSource(
            PartitionedVec::folded(format!("nexmark:seed={}x{partitions}", config.seed), parts)
                .expect("partitions >= 1 and uniform streams"),
        )
    }

    /// Default configuration with the given seed.
    pub fn seeded(seed: u64, events: u64, partitions: usize) -> PartitionedNexmarkSource {
        PartitionedNexmarkSource::new(
            GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
            events,
            partitions,
        )
    }
}

impl WrapsPartitioned for PartitionedNexmarkSource {
    fn parts(&self) -> &dyn PartitionedSource {
        &self.0
    }

    fn parts_mut(&mut self) -> &mut dyn PartitionedSource {
        &mut self.0
    }
}

impl Source for NexmarkSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        if self.remaining == 0 {
            return Ok(SourceBatch::empty(SourceStatus::Finished));
        }
        let n = (max_events as u64).min(self.remaining);
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        let mut last_ptime = None;
        for _ in 0..n {
            let (ptime, event) = self.generator.next_event();
            let (stream, row) = match event {
                NexmarkEvent::Person(p) => (0, p.to_row()),
                NexmarkEvent::Auction(a) => (1, a.to_row()),
                NexmarkEvent::Bid(b) => (2, b.to_row()),
            };
            batch.events.push(SourceEvent {
                stream,
                ptime,
                change: Change::insert(row),
            });
            last_ptime = Some(ptime);
        }
        self.remaining -= n;
        if let Some(p) = last_ptime {
            // All event times lie in [ptime − max_skew, ptime] and ptime is
            // non-decreasing, so trailing by max_skew plus 1ms (ptimes may
            // repeat when the inter-event gap is zero) is a valid watermark
            // for all three streams.
            batch.watermark = Some(p - self.config.max_skew - Duration(1));
        }
        if self.remaining == 0 {
            batch.status = SourceStatus::Finished;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::Value;

    /// The partitions must behave like one workload: entity IDs are
    /// globally unique, not restarted per partition (a Bid→Auction join
    /// over colliding IDs would fabricate matches).
    #[test]
    fn partitioned_entity_ids_are_disjoint_across_partitions() {
        let mut source = PartitionedNexmarkSource::seeded(9, 2_000, 4);
        let mut person_ids = std::collections::BTreeSet::new();
        let mut auction_ids = std::collections::BTreeSet::new();
        for p in 0..source.partitions() {
            loop {
                let batch = source.poll_partition(p, 256).unwrap();
                for event in &batch.events {
                    let id = match event.change.row.value(0).unwrap() {
                        Value::Int(id) => *id,
                        other => panic!("id column held {other:?}"),
                    };
                    match event.stream {
                        0 => assert!(person_ids.insert(id), "duplicate person {id}"),
                        1 => assert!(auction_ids.insert(id), "duplicate auction {id}"),
                        _ => {} // bids reference, not define, entities
                    };
                }
                if batch.status == SourceStatus::Finished {
                    break;
                }
            }
        }
        assert!(!person_ids.is_empty() && !auction_ids.is_empty());
    }
}
