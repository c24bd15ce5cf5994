//! In-memory channel connectors (crossbeam-backed).
//!
//! [`channel`] gives a [`ChannelPublisher`] / [`ChannelSource`] pair: the
//! publisher side is clonable, so any number of producer threads can
//! fan-in to one engine stream; dropping (or [`ChannelPublisher::finish`]ing)
//! every publisher finishes the source. [`channel_sink`] is the mirror
//! image on the output side.

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};

use onesql_core::connect::{
    PartitionedSource, PartitionedVec, Sink, Source, SourceBatch, SourceEvent, SourceStatus,
    WrapsPartitioned,
};
use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_tvr::Change;
use onesql_types::{Error, Result, Row, Ts};

/// What flows from publishers to a [`ChannelSource`].
#[derive(Debug, Clone)]
enum Feed {
    Change(Ts, Change),
    Watermark(Ts),
    Finish,
}

/// The producer handle of a channel source. Clonable for fan-in.
#[derive(Clone)]
pub struct ChannelPublisher {
    tx: Sender<Feed>,
}

impl ChannelPublisher {
    /// Insert a row at processing time `ptime`. Blocks when the channel is
    /// at capacity (that is the backpressure).
    pub fn insert(&self, ptime: Ts, row: Row) -> Result<()> {
        self.send(Feed::Change(ptime, Change::insert(row)))
    }

    /// Retract a row.
    pub fn retract(&self, ptime: Ts, row: Row) -> Result<()> {
        self.send(Feed::Change(ptime, Change::retract(row)))
    }

    /// Send an arbitrary change.
    pub fn change(&self, ptime: Ts, change: Change) -> Result<()> {
        self.send(Feed::Change(ptime, change))
    }

    /// Assert all future events have event time greater than `wm`.
    pub fn watermark(&self, wm: Ts) -> Result<()> {
        self.send(Feed::Watermark(wm))
    }

    /// Mark the stream complete. (Dropping every publisher clone has the
    /// same effect.)
    pub fn finish(&self) -> Result<()> {
        self.send(Feed::Finish)
    }

    /// Items (changes, watermarks, finish markers) sent but not yet
    /// polled by the source: the channel's backlog.
    pub fn queued(&self) -> usize {
        self.tx.len()
    }

    fn send(&self, feed: Feed) -> Result<()> {
        self.tx
            .send(feed)
            .map_err(|_| Error::exec("channel source was dropped"))
    }
}

/// A source fed through an in-memory channel.
pub struct ChannelSource {
    name: String,
    streams: Vec<String>,
    rx: Receiver<Feed>,
    /// A `Finish` marker was seen: report finished once the queue drains
    /// (events other publishers enqueued behind the marker still count).
    finishing: bool,
    finished: bool,
}

/// Create a channel-backed source for `stream` holding at most `capacity`
/// in-flight events.
pub fn channel(stream: impl Into<String>, capacity: usize) -> (ChannelPublisher, ChannelSource) {
    let stream = stream.into();
    let (tx, rx) = bounded(capacity);
    (
        ChannelPublisher { tx },
        ChannelSource {
            name: format!("channel:{stream}"),
            streams: vec![stream],
            rx,
            finishing: false,
            finished: false,
        },
    )
}

impl Source for ChannelSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        if self.finished {
            return Ok(SourceBatch::empty(SourceStatus::Finished));
        }
        let mut batch = SourceBatch::empty(SourceStatus::Idle);
        while batch.events.len() < max_events {
            match self.rx.try_recv() {
                Ok(Feed::Change(ptime, change)) => {
                    batch.events.push(SourceEvent {
                        stream: 0,
                        ptime,
                        change,
                    });
                }
                Ok(Feed::Watermark(wm)) => {
                    batch.watermark = Some(batch.watermark.map_or(wm, |prev: Ts| prev.max(wm)));
                }
                Ok(Feed::Finish) => {
                    // Keep draining: events enqueued behind the marker by
                    // other publisher clones must not be lost.
                    self.finishing = true;
                }
                Err(TryRecvError::Disconnected) => {
                    self.finished = true;
                    batch.status = SourceStatus::Finished;
                    break;
                }
                Err(TryRecvError::Empty) => {
                    if self.finishing {
                        self.finished = true;
                        batch.status = SourceStatus::Finished;
                    }
                    break;
                }
            }
        }
        // Drained, the channel answers `Idle` with what it held: what comes
        // next is a producer's to send. Only a poll that `max_events` cut
        // short of a queue still holding something has a backlog to promise.
        if batch.events.len() == max_events && !self.rx.is_empty() {
            batch.status = SourceStatus::Ready;
        }
        Ok(batch)
    }

    /// Events live only in memory: once polled, they exist nowhere else.
    fn replayable(&self) -> bool {
        false
    }
}

/// A sharded channel source: N ≥ 1 independent channel shards feeding one
/// stream, one partition per shard. Producers route rows to shards
/// themselves (typically by the same key the query partitions on);
/// watermarks and finishes are per shard.
///
/// Channels are **not replayable** ([`Source::replayable`]), so this
/// source reports offsets (for observability and for checkpoints taken on
/// a live instance) but refuses to seek anywhere except its current
/// position: resuming a checkpoint over a fresh channel would silently
/// drop the pre-crash events. Use a file, generator, or partitioned
/// network source when recovery matters.
pub struct ShardedChannelSource(PartitionedVec<ChannelSource>);

/// Create a channel-backed source with `shards` partitions, each holding
/// at most `capacity` in-flight events. Returns one clonable publisher per
/// shard, in partition order. `shards` is clamped to at least one (a
/// source with no partitions could never be attached anyway); one shard
/// is the plain [`channel`] source, under its name.
// `shards.max(1)` parts over the same stream satisfy `PartitionedVec`'s
// non-empty/uniform invariants, so the `expect` below cannot fire.
#[allow(clippy::expect_used)]
pub fn sharded_channel(
    stream: impl Into<String>,
    shards: usize,
    capacity: usize,
) -> (Vec<ChannelPublisher>, ShardedChannelSource) {
    let stream = stream.into();
    let shards = shards.max(1);
    let mut publishers = Vec::with_capacity(shards);
    let mut sources = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (publisher, source) = channel(stream.clone(), capacity);
        publishers.push(publisher);
        sources.push(source);
    }
    let adapter = PartitionedVec::folded(format!("channel:{stream}x{shards}"), sources)
        .expect("shards >= 1 and uniform streams");
    (publishers, ShardedChannelSource(adapter))
}

impl WrapsPartitioned for ShardedChannelSource {
    fn parts(&self) -> &dyn PartitionedSource {
        &self.0
    }

    fn parts_mut(&mut self) -> &mut dyn PartitionedSource {
        &mut self.0
    }
}

/// What a [`ChannelSink`] delivers to its consumer.
#[derive(Debug, Clone)]
pub enum SinkEvent {
    /// Newly materialized output rows.
    Rows(Vec<StreamRow>),
    /// The output watermark advanced.
    Watermark(Watermark),
    /// The pipeline finished.
    Flushed,
}

/// A sink handing output to an in-memory channel.
pub struct ChannelSink {
    name: String,
    tx: Sender<SinkEvent>,
}

/// Create a channel-backed sink; the receiver side gets [`SinkEvent`]s.
pub fn channel_sink(capacity: usize) -> (ChannelSink, Receiver<SinkEvent>) {
    let (tx, rx) = bounded(capacity);
    (
        ChannelSink {
            name: "channel-sink".to_string(),
            tx,
        },
        rx,
    )
}

impl Sink for ChannelSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        self.tx
            .send(SinkEvent::Rows(rows.to_vec()))
            .map_err(|_| Error::exec("channel sink consumer was dropped"))
    }

    fn on_watermark(&mut self, wm: Watermark) -> Result<()> {
        self.tx
            .send(SinkEvent::Watermark(wm))
            .map_err(|_| Error::exec("channel sink consumer was dropped"))
    }

    fn flush(&mut self) -> Result<()> {
        self.tx
            .send(SinkEvent::Flushed)
            .map_err(|_| Error::exec("channel sink consumer was dropped"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    #[test]
    fn events_behind_a_finish_marker_still_drain() {
        let (publisher, mut source) = channel("S", 16);
        let second = publisher.clone();
        publisher.insert(Ts(0), row!(1i64)).unwrap();
        publisher.finish().unwrap();
        // Another clone was still writing when the first finished.
        second.insert(Ts(1), row!(2i64)).unwrap();
        drop((publisher, second));

        let batch = source.poll_batch(16).unwrap();
        assert_eq!(batch.events.len(), 2, "event behind Finish was dropped");
        assert_eq!(batch.status, SourceStatus::Finished);
    }

    #[test]
    fn ready_is_answered_only_over_a_backlog() {
        let (publisher, mut source) = channel("S", 16);
        for i in 0..5i64 {
            publisher.insert(Ts(i), row!(i)).unwrap();
        }
        // Cut short by `max_events` with more queued: the next poll
        // returns it whatever the producers do.
        let batch = source.poll_batch(2).unwrap();
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.status, SourceStatus::Ready);
        let batch = source.poll_batch(2).unwrap();
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.status, SourceStatus::Ready);
        // A full batch that emptied the queue promises nothing, and
        // neither does one the queue could not fill.
        let batch = source.poll_batch(1).unwrap();
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.status, SourceStatus::Idle);
        publisher.insert(Ts(5), row!(5i64)).unwrap();
        let batch = source.poll_batch(4).unwrap();
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.status, SourceStatus::Idle);
        assert_eq!(source.poll_batch(4).unwrap().status, SourceStatus::Idle);
    }

    #[test]
    fn finish_with_empty_queue_finishes_immediately() {
        let (publisher, mut source) = channel("S", 4);
        publisher.finish().unwrap();
        let batch = source.poll_batch(4).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.status, SourceStatus::Finished);
        // And stays finished.
        assert_eq!(source.poll_batch(4).unwrap().status, SourceStatus::Finished);
    }
}
