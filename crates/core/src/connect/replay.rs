//! `connector = 'replay'`: a scripted, replayable source for tests,
//! examples and the paper's worked example.
//!
//! A [`Replay`] is a schedule of `(ptime, stream, step)` entries — insert,
//! retract, watermark or a bare clock advance — plus the schemas of the
//! streams it feeds. Registered under a name in a session's
//! [`ConnectorRegistry`] (never in a
//! default registry), `CREATE SOURCE feed WITH (connector = 'replay')`
//! declares its streams, and every `INSERT` that reads one of them gets a
//! fresh instance replaying the same steps. That also makes it
//! replayable: a restore seeks a fresh instance to the checkpointed offset.
//!
//! One poll returns the steps of one instant: every following step at the
//! first step's ptime, up to the batch size, ending at a watermark step.
//! A schedule whose ptimes all differ is therefore fed one step per round.
//!
//! The driver stamps a batch's watermark at its clock, the newest event
//! ptime, so a watermark arriving on its own would borrow the ptime of the
//! event before it. A watermark step therefore also emits an event on
//! [`CLOCK_STREAM`], a one-column stream no query reads: the event moves
//! the clock to the step's ptime, and the watermark in the same batch is
//! stamped there. A clock advance is that event alone; it fires the
//! `EMIT AFTER DELAY` deadlines on the way. A watermark covers every
//! stream the replay feeds, as a source's watermark does.

use std::sync::Arc;

use onesql_tvr::Change;
use onesql_types::{row, DataType, Error, Field, Result, Row, Schema, SchemaRef, Ts};

use crate::connect::registry::{
    ConnectorRegistry, Exports, OptionBag, SourceConnector, SourceSpec,
};
use crate::connect::{
    PartitionedSource, PartitionedVec, Source, SourceBatch, SourceEvent, SourceStatus,
};
use crate::history::HistoryTap;
use crate::session::{Session, SqlPipeline};

/// The stream carrying watermark arrivals and clock advances; its one
/// column, `arrival`, is the step's ptime.
pub const CLOCK_STREAM: &str = "ReplayClock";

#[derive(Debug, Clone)]
enum Step {
    Change { stream: String, change: Change },
    Watermark(Ts),
    Advance,
}

/// A schedule of steps over named streams; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Replay {
    streams: Vec<(String, SchemaRef)>,
    steps: Vec<(Ts, Step)>,
}

impl Replay {
    /// An empty schedule feeding `streams`, each `(name, schema)`.
    pub fn new<'a>(streams: impl IntoIterator<Item = (&'a str, Schema)>) -> Replay {
        Replay {
            streams: streams
                .into_iter()
                .map(|(name, schema)| (name.to_string(), Arc::new(schema)))
                .collect(),
            steps: Vec::new(),
        }
    }

    /// Insert `row` into `stream` at `ptime`.
    pub fn insert(&mut self, ptime: Ts, stream: &str, row: Row) -> &mut Replay {
        self.change(ptime, stream, Change::insert(row))
    }

    /// Retract `row` from `stream` at `ptime`.
    pub fn retract(&mut self, ptime: Ts, stream: &str, row: Row) -> &mut Replay {
        self.change(ptime, stream, Change::retract(row))
    }

    fn change(&mut self, ptime: Ts, stream: &str, change: Change) -> &mut Replay {
        let stream = stream.to_string();
        self.steps.push((ptime, Step::Change { stream, change }));
        self
    }

    /// Assert at `ptime` that no later event of any stream has an event
    /// time at or below `wm`.
    pub fn watermark(&mut self, ptime: Ts, wm: Ts) -> &mut Replay {
        self.steps.push((ptime, Step::Watermark(wm)));
        self
    }

    /// Move the clock to `ptime` with no change.
    pub fn advance(&mut self, ptime: Ts) -> &mut Replay {
        self.steps.push((ptime, Step::Advance));
        self
    }

    /// A fresh session whose source `feed` replays this schedule and whose
    /// sink `out` records into the returned tap: `INSERT INTO out SELECT
    /// ...` then assembles a pipeline over them.
    pub fn session(&self) -> Result<(Session, HistoryTap)> {
        let tap = HistoryTap::new();
        let mut registry = ConnectorRegistry::new();
        registry.register_source("replay", self.clone());
        registry.register_sink("history", tap.clone());
        let mut session = Session::new(registry);
        session.execute_script(
            "CREATE SOURCE feed WITH (connector = 'replay');
             CREATE SINK out WITH (connector = 'history');",
        )?;
        Ok((session, tap))
    }

    /// Run `sql` over this schedule to completion in a fresh
    /// [`Replay::session`]: the finished pipeline and what its sink heard.
    pub fn run(&self, sql: &str) -> Result<(SqlPipeline, HistoryTap)> {
        let (mut session, tap) = self.session()?;
        let script = format!("INSERT INTO out {sql};");
        let mut pipeline = session.execute_script(&script)?.into_pipeline()?;
        pipeline.run()?;
        Ok((pipeline, tap))
    }
}

impl SourceConnector for Replay {
    fn declare(&self, _: &SourceSpec, _: &mut OptionBag) -> Result<Vec<(String, SchemaRef)>> {
        let clock = Schema::new(vec![Field::new("arrival", DataType::Timestamp)]);
        let mut streams = self.streams.clone();
        streams.push((CLOCK_STREAM.to_string(), Arc::new(clock)));
        Ok(streams)
    }

    fn build(
        &self,
        spec: &SourceSpec,
        _: &mut OptionBag,
        _: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let names = self.streams.iter().map(|(name, _)| name.clone());
        Ok(Box::new(PartitionedVec::single(ReplaySource {
            name: spec.name.to_string(),
            streams: names.chain([CLOCK_STREAM.to_string()]).collect(),
            steps: self.steps.clone(),
            next: 0,
        })))
    }
}

/// One instance of a [`Replay`], at step `next`.
struct ReplaySource {
    name: String,
    /// The replay's streams, then [`CLOCK_STREAM`].
    streams: Vec<String>,
    steps: Vec<(Ts, Step)>,
    next: usize,
}

impl ReplaySource {
    fn stream_index(&self, stream: &str) -> Result<usize> {
        let data = &self.streams[..self.streams.len() - 1];
        data.iter()
            .position(|s| s.eq_ignore_ascii_case(stream))
            .ok_or_else(|| {
                Error::exec(format!(
                    "replay source '{}': a step names stream '{stream}', which \
                     the replay does not feed",
                    self.name
                ))
            })
    }
}

impl Source for ReplaySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        let clock = self.streams.len() - 1;
        while let Some((ptime, step)) = self.steps.get(self.next) {
            let next_instant = batch.events.first().is_some_and(|e| e.ptime != *ptime);
            if batch.events.len() == max_events || next_instant {
                break;
            }
            let (stream, change) = match step {
                Step::Change { stream, change } => (self.stream_index(stream)?, change.clone()),
                Step::Watermark(wm) => {
                    batch.watermark = Some(*wm);
                    (clock, Change::insert(row!(*ptime)))
                }
                Step::Advance => (clock, Change::insert(row!(*ptime))),
            };
            self.next += 1;
            let ptime = *ptime;
            batch.events.push(SourceEvent {
                stream,
                ptime,
                change,
            });
            if batch.watermark.is_some() {
                break;
            }
        }
        if self.next == self.steps.len() {
            batch.status = SourceStatus::Finished;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids() -> Replay {
        let schema = Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("price", DataType::Int),
        ]);
        Replay::new([("Bid", schema)])
    }

    #[test]
    fn a_fresh_instance_replays_identical_steps() {
        let mut replay = bids();
        replay
            .insert(Ts(1), "Bid", row!(Ts(1), 5i64))
            .insert(Ts(1), "bid", row!(Ts(1), 6i64))
            .watermark(Ts(2), Ts(1))
            .retract(Ts(3), "Bid", row!(Ts(1), 5i64))
            .advance(Ts(4));
        let sql = "SELECT price FROM Bid EMIT STREAM";
        let (mut pipeline, sink) = replay.run(sql).unwrap();
        assert_eq!(sink.events(), replay.run(sql).unwrap().1.events());
        // One instant per poll: both bids at 1, the watermark, the
        // retraction, the advance.
        assert_eq!(pipeline.metrics().rounds, 4);
        let rows: Vec<(Row, bool, Ts)> = sink
            .rows()
            .into_iter()
            .map(|r| (r.row, r.undo, r.ptime))
            .collect();
        let expected = [(5i64, false, 1), (6, false, 1), (5, true, 3)];
        let expected = expected.map(|(price, undo, ptime)| (row!(price), undo, Ts(ptime)));
        assert_eq!(rows, expected);
    }

    #[test]
    fn a_mixed_arity_step_errors_rather_than_panics() {
        let mut replay = bids();
        replay
            .insert(Ts(1), "Bid", row!(Ts(1), 5i64))
            .insert(Ts(1), "Bid", row!(Ts(1)))
            .insert(Ts(2), "Bid", row!(Ts(2), 7i64, "extra"));
        let err = replay.run("SELECT price FROM Bid").unwrap_err();
        assert!(err.to_string().contains("arity 1"), "{err}");

        let mut unknown = bids();
        unknown.insert(Ts(1), "Ask", row!(Ts(1), 5i64));
        let err = unknown.run("SELECT price FROM Bid").unwrap_err();
        assert!(err.to_string().contains("'Ask'"), "{err}");
    }
}
