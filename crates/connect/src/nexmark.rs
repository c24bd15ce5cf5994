//! The NEXMark generator as a source: the benchmark's Person / Auction /
//! Bid mix streamed through the connector runtime.

use std::fmt::Write;
use std::sync::Arc;

use onesql_core::connect::{
    ColumnarBatch, PartitionedSource, PartitionedVec, Source, SourceBatch, SourceColumns,
    SourceEvent, SourceStatus, WrapsPartitioned,
};
use onesql_core::Engine;
use onesql_nexmark::generator::{CITIES, FIRST_NAMES, ITEMS, STATES};
use onesql_nexmark::model::{Auction, Bid, Person};
use onesql_nexmark::{Draw, GeneratorConfig, NexmarkGenerator};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{ColumnBuilder, Duration, Result, Row, Ts, Value};

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
    text: Text,
}

/// The generator's constant strings, each built once per source, and the
/// buffer a person's email is written into.
struct Text {
    names: Vec<Arc<str>>,
    cities: Vec<Arc<str>>,
    states: Vec<Arc<str>>,
    items: Vec<Arc<str>>,
    email: String,
}

impl Text {
    fn new() -> Text {
        let shared = |table: &[&str]| table.iter().map(|&s| Arc::from(s)).collect();
        Text {
            names: shared(&FIRST_NAMES),
            cities: shared(&CITIES),
            states: shared(&STATES),
            items: shared(&ITEMS),
            email: String::new(),
        }
    }

    /// `{name}{id}@example.com`, the one string a person allocates.
    fn email(&mut self, name: usize, id: i64) -> Arc<str> {
        self.email.clear();
        let _ = write!(self.email, "{}{id}@example.com", FIRST_NAMES[name]);
        Arc::from(self.email.as_str())
    }

    /// A draw as its stream's index and its row.
    fn row(&mut self, draw: Draw) -> (usize, Row) {
        match draw {
            Draw::Person {
                id,
                name,
                city,
                date_time,
            } => {
                let row = Row::from_values([
                    Value::Int(id),
                    Value::Str(self.names[name].clone()),
                    Value::Str(self.email(name, id)),
                    Value::Str(self.cities[city].clone()),
                    Value::Str(self.states[city].clone()),
                    Value::Ts(date_time),
                ]);
                (0, row)
            }
            Draw::Auction {
                id,
                item,
                initial_bid,
                reserve,
                date_time,
                expires,
                seller,
                category,
            } => {
                let row = Row::from_values([
                    Value::Int(id),
                    Value::Str(self.items[item].clone()),
                    Value::Int(initial_bid),
                    Value::Int(reserve),
                    Value::Ts(date_time),
                    Value::Ts(expires),
                    Value::Int(seller),
                    Value::Int(category),
                ]);
                (1, row)
            }
            Draw::Bid(bid) => {
                let row = Row::from_values([
                    Value::Int(bid.auction),
                    Value::Int(bid.bidder),
                    Value::Int(bid.price),
                    Value::Ts(bid.date_time),
                ]);
                (2, row)
            }
        }
    }
}

/// One stream's share of a columnar poll: a typed builder per column, in
/// schema order, and the ptime lane.
struct Lanes {
    cols: Vec<ColumnBuilder>,
    ptimes: Vec<Ts>,
}

impl Lanes {
    fn new(arity: usize, capacity: usize) -> Lanes {
        Lanes {
            cols: (0..arity)
                .map(|_| ColumnBuilder::with_capacity(capacity))
                .collect(),
            ptimes: Vec::with_capacity(capacity),
        }
    }

    /// A dense batch of inserts.
    fn finish(self) -> ChangeBatch {
        let cols = self.cols.into_iter().map(ColumnBuilder::finish).collect();
        let diffs = vec![1; self.ptimes.len()];
        ChangeBatch::new_dense(cols, diffs, self.ptimes)
    }
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
            text: Text::new(),
        }
    }

    /// How many events the next poll of `max_events` holds.
    fn share(&self, max_events: usize) -> u64 {
        (max_events as u64).min(self.remaining)
    }

    /// The progress of a poll that held `n` events, the last at raw ptime
    /// `last`: its watermark and status.
    fn progress(&mut self, n: u64, last: Option<Ts>) -> (Option<Ts>, SourceStatus) {
        self.remaining -= n;
        // All event times lie in [ptime − max_skew, ptime] and ptime is
        // non-decreasing, so trailing by max_skew plus 1ms (ptimes may
        // repeat when the inter-event gap is zero) is a valid watermark
        // for all three streams.
        let watermark = last.map(|p| p - self.config.max_skew - Duration(1));
        let status = if self.remaining == 0 {
            SourceStatus::Finished
        } else {
            SourceStatus::Ready
        };
        (watermark, status)
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
        let n = self.share(max_events);
        let mut events = Vec::with_capacity(n as usize);
        let mut last = None;
        for _ in 0..n {
            let (ptime, draw) = self.generator.next_draw();
            let (stream, row) = self.text.row(draw);
            events.push(SourceEvent {
                stream,
                ptime,
                change: Change::insert(row),
            });
            last = Some(ptime);
        }
        let (watermark, status) = self.progress(n, last);
        Ok(SourceBatch {
            events,
            watermark,
            status,
            trace_parent: None,
        })
    }

    /// The row poll's events generated straight into typed lanes: one
    /// batch per stream and the stream lane. No `Row`, no `SourceEvent`,
    /// and no string but a person's email is built per event.
    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        if self.remaining == 0 {
            return Ok(Some(ColumnarBatch {
                status: SourceStatus::Finished,
                ..ColumnarBatch::default()
            }));
        }
        let n = self.share(max_events);
        // The mix is 1 person and 3 auctions in every 50 events.
        let few = n as usize / 50 + 1;
        let mut person = Lanes::new(6, few);
        let mut auction = Lanes::new(8, 3 * few);
        let mut bid = Lanes::new(4, n as usize);
        let mut order = Vec::with_capacity(n as usize);
        let (mut last, mut clock) = (None, Ts::MIN);
        for _ in 0..n {
            let (ptime, draw) = self.generator.next_draw();
            clock = clock.max(ptime);
            let (stream, lanes) = match draw {
                Draw::Person {
                    id,
                    name,
                    city,
                    date_time,
                } => {
                    let email = self.text.email(name, id);
                    let cols = &mut person.cols;
                    cols[0].push_int(id);
                    cols[1].push_str(self.text.names[name].clone());
                    cols[2].push_str(email);
                    cols[3].push_str(self.text.cities[city].clone());
                    cols[4].push_str(self.text.states[city].clone());
                    cols[5].push_ts(date_time);
                    (0, &mut person)
                }
                Draw::Auction {
                    id,
                    item,
                    initial_bid,
                    reserve,
                    date_time,
                    expires,
                    seller,
                    category,
                } => {
                    let cols = &mut auction.cols;
                    cols[0].push_int(id);
                    cols[1].push_str(self.text.items[item].clone());
                    cols[2].push_int(initial_bid);
                    cols[3].push_int(reserve);
                    cols[4].push_ts(date_time);
                    cols[5].push_ts(expires);
                    cols[6].push_int(seller);
                    cols[7].push_int(category);
                    (1, &mut auction)
                }
                Draw::Bid(b) => {
                    let cols = &mut bid.cols;
                    cols[0].push_int(b.auction);
                    cols[1].push_int(b.bidder);
                    cols[2].push_int(b.price);
                    cols[3].push_ts(b.date_time);
                    (2, &mut bid)
                }
            };
            lanes.ptimes.push(clock);
            order.push(stream as u16);
            last = Some(ptime);
        }
        let lanes = [person, auction, bid].into_iter().map(Lanes::finish);
        let batches = lanes.enumerate().collect();
        let columns = SourceColumns::interleaved(batches, order)?;
        let (watermark, status) = self.progress(n, last);
        Ok(Some(ColumnarBatch {
            columns,
            watermark,
            status,
            trace_parent: None,
        }))
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
