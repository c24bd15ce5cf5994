//! Network connectors: pipelines that span processes.
//!
//! A producer process pushes `SourceBatch`-shaped data — changes as typed
//! columns, watermark assertions, end-of-stream — through a length-prefixed,
//! CRC-protected binary framing over TCP or unix sockets; a consumer
//! process accepts those connections as the partitions of a
//! [`PartitionedNetSource`] feeding a (sharded) pipeline. The partition /
//! offset / watermark model of [`PartitionedSource`] is already
//! wire-shaped, so the protocol only has to carry it faithfully:
//!
//! - **Writer side**: [`NetPublisher`] (raw event/watermark publishing,
//!   one connection = one partition) and [`NetSink`] (a [`Sink`] adapter
//!   so one pipeline's output changelog becomes another process's input
//!   stream). Every frame the publisher sends is retained, as its bytes,
//!   in a **bounded replay spool** until the consumer acknowledges its
//!   events, so a consumer
//!   that crashes and restores from a [`PipelineCheckpoint`] can
//!   reconnect and have exactly the unacknowledged suffix replayed —
//!   exactly-once across the process boundary.
//! - **Reader side**: [`PartitionedNetSource`] (one partition per
//!   accepted connection, claimed by the producer's handshake) and the
//!   single-partition [`NetSource`]. Seeking a fresh source to a
//!   checkpointed offset records a *resume offset* announced in the
//!   handshake reply; the producer rewinds its spool to that offset and
//!   re-sends. Driver checkpoints flow back as `ACK` frames
//!   ([`PartitionedSource::ack`]) that let the producer trim the spool.
//!
//! The frame layout (magic, version, schema header, batch / ack frames,
//! CRC) is specified in `docs/WIRE_FORMAT.md`, including a worked hex
//! example, so a non-Rust producer can implement it.
//!
//! # Determinism across kill/restore
//!
//! Byte-identical resume (the black-box exactly-once property the sharded
//! runtime tests demand) requires the resumed consumer to observe the
//! *same per-poll batches* the uninterrupted run would have. Three
//! protocol choices make that a function of the byte stream rather than
//! of timing: the consumer delivers **at most one wire frame per poll**
//! (never coalescing frames that happen to have both arrived); watermarks
//! **ride event frames** instead of traveling alone, so mid-stream frames
//! always carry events and the consumer's event offset fully determines
//! its consumption point; and the spool keeps frames as they were sent,
//! so a reconnect re-sends the frames the consumer has not wholly
//! consumed, cut where they were cut and with their watermarks — only a
//! frame the resume offset falls inside is re-encoded, from that offset
//! on. A poll cuts a frame at the same events whether the frame came
//! whole or re-encoded from the resume offset, so for byte-identical
//! resume keep the consumer's poll batch size fixed (not adaptive) and
//! checkpoint at poll boundaries — which is the only place the driver
//! checkpoints anyway; the producer's `batch_events` need not match it.
//!
//! [`PipelineCheckpoint`]: onesql_core::driver::PipelineCheckpoint
//! [`PartitionedSource`]: onesql_core::connect::PartitionedSource
//! [`PartitionedSource::ack`]: onesql_core::connect::PartitionedSource::ack
//! [`Sink`]: onesql_core::connect::Sink

mod frame;
mod publisher;
mod source;
#[cfg(test)]
mod tests;

use std::time::Duration as StdDuration;

pub use frame::NetAddr;
pub use publisher::{NetPublisher, NetPublisherStats, NetSink};
pub use source::{NetPartStats, NetSource, PartitionedNetSource};

/// First bytes of every connection: `b"OSQW"` (onesql wire).
pub const WIRE_MAGIC: [u8; 4] = *b"OSQW";
/// Protocol version carried right after the magic; bumped on any change
/// to the frame layout. Version 3 carries a `BATCH` frame's events as
/// columns: one `onesql_tvr::lanes` run per (stream, arity) and an order
/// lane that interleaves them, where version 2 tagged every value of
/// every event. Producers write [`WIRE_VERSION`] and consumers accept
/// nothing else: any other announced version is refused at the preamble.
pub const WIRE_VERSION: u16 = 3;
/// Upper bound on a frame body; larger length prefixes are rejected as
/// corruption before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

pub(super) const KIND_HELLO: u8 = 1;
pub(super) const KIND_HELLO_ACK: u8 = 2;
pub(super) const KIND_BATCH: u8 = 3;
pub(super) const KIND_ACK: u8 = 4;
pub(super) const KIND_FINISH: u8 = 5;
pub(super) const KIND_KEEPALIVE: u8 = 6;

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`, as appended to
/// every frame body. One checksum definition serves both the wire format
/// and the durable checkpoint format: this is the shared implementation
/// from `onesql_state::codec`.
pub use onesql_state::codec::crc32;

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Tuning for both ends of a network pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Producer: events per `BATCH` frame. A consumer polls at most one
    /// frame at a time, so frames smaller than its poll batch size make
    /// its rounds smaller too; see the module docs on determinism.
    pub batch_events: usize,
    /// Producer: bound on the replay spool (items retained until the
    /// consumer acknowledges them). When full, sends wait up to
    /// [`NetConfig::ack_wait`] for acks before erroring: a consumer that
    /// never checkpoints cannot force unbounded producer memory.
    pub spool_events: usize,
    /// Producer: total window for establishing (or re-establishing) a
    /// connection, covering connect retries and the handshake reply.
    pub connect_timeout: StdDuration,
    /// Consumer: how long a poll waits for the next frame before
    /// reporting an idle batch.
    ///
    /// This wait is what keeps a consumer's scheduling rounds a function
    /// of the byte stream rather than of arrival timing (the determinism
    /// contract in the module docs) — but it is paid per quiet partition
    /// per round, so a connected-but-silent producer throttles the whole
    /// driver to one round per `poll_wait`. Lower it (or accept idle
    /// batches) for latency-sensitive multi-partition deployments that
    /// do not need byte-identical replays.
    pub poll_wait: StdDuration,
    /// Producer: how long a send may wait for acknowledgements when the
    /// replay spool is full.
    pub ack_wait: StdDuration,
    /// Producer: minimum interval between `KEEPALIVE` frames sent by
    /// [`NetPublisher::keepalive`]. `None` (the default) disables
    /// keepalives entirely. Keepalives carry no events and do not move
    /// offsets; they only prove the producer process is alive while it
    /// has nothing to say.
    pub keepalive: Option<StdDuration>,
    /// Consumer: declare a **claimed, unfinished** partition's producer
    /// dead when nothing (no data frame, no keepalive) has been heard
    /// from it for this long, surfacing an error instead of idling
    /// forever. `None` (the default) never gives up — a silent producer
    /// and a dead one then look the same, which is exactly what
    /// keepalives plus this limit disambiguate.
    pub silence_limit: Option<StdDuration>,
    /// Consumer: tolerate producer restarts. When set, a connection
    /// whose transport dies mid-stream (clean close, mid-frame
    /// disconnect, read error — including during the handshake window)
    /// *releases* its partition instead of poisoning the pipeline: the
    /// next producer to claim it resumes exactly at the consumer's
    /// delivered offset (the handshake floor drops everything already
    /// delivered, so a restarted deterministic producer just
    /// re-publishes from the start). Corrupt bytes (bad CRC, over-bound
    /// frame length) and in-frame protocol violations — offset gaps,
    /// undeclared streams, a FINISH miscount — still poison: those are
    /// *wrong* producers, not dead ones, and a deterministic wrong
    /// producer would otherwise replay the same bad frame forever. Off
    /// by default: a vanished producer is an error unless the
    /// deployment plans for restarts.
    pub producer_restarts: bool,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            batch_events: 256,
            spool_events: 1 << 16,
            connect_timeout: StdDuration::from_secs(10),
            poll_wait: StdDuration::from_secs(2),
            ack_wait: StdDuration::from_secs(10),
            keepalive: None,
            silence_limit: None,
            producer_restarts: false,
        }
    }
}
