//! Network connectors: pipelines that span processes.
//!
//! A producer process pushes `SourceBatch`-shaped data — row changes,
//! watermark assertions, end-of-stream — through a length-prefixed,
//! CRC-protected binary framing over TCP or unix sockets; a consumer
//! process accepts those connections as the partitions of a
//! [`PartitionedNetSource`] feeding a (sharded) pipeline. The partition /
//! offset / watermark model of [`PartitionedSource`] is already
//! wire-shaped, so the protocol only has to carry it faithfully:
//!
//! - **Writer side**: [`NetPublisher`] (raw event/watermark publishing,
//!   one connection = one partition) and [`NetSink`] (a [`Sink`] adapter
//!   so one pipeline's output changelog becomes another process's input
//!   stream). Every event the publisher sends is retained in a **bounded
//!   replay spool** until the consumer acknowledges it, so a consumer
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
//! its consumption point; and every spooled watermark records which frame
//! carried it, so a reconnect replays exactly the watermarks the consumer
//! never consumed, at their original stream positions. Frame boundaries
//! themselves are the producer's batching decision, so for byte-identical
//! resume keep the producer's `batch_events` aligned with the consumer's
//! poll batch size (fixed, not adaptive), and checkpoint at poll
//! boundaries — which is the only place the driver checkpoints
//! anyway.
//!
//! [`PipelineCheckpoint`]: onesql_core::driver::PipelineCheckpoint

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use onesql_core::connect::{
    PartitionedSource, PartitionedVec, Sink, Source, SourceBatch, SourceEvent, SourceStatus,
    WrapsPartitioned,
};
use onesql_core::observe;
use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_tvr::Change;
use onesql_types::{Error, Result, Row, Ts, Value};

/// First bytes of every connection: `b"OSQW"` (onesql wire).
pub const WIRE_MAGIC: [u8; 4] = *b"OSQW";
/// Protocol version carried right after the magic; bumped on any change
/// to the frame layout. Version 2 appended two optional trailing sections
/// to version-1 bodies: `BATCH` gained a trace-context field (`u8` flag +
/// `u64` producer span id) so consumer-side spans can stitch into the
/// producer's trace, and `KEEPALIVE` gained the producer's current
/// watermark (`u8` flag + `i64` millis) so lag attribution survives idle
/// stretches. Producers write [`WIRE_VERSION`] and consumers accept
/// nothing else: any other announced version is refused at the preamble.
pub const WIRE_VERSION: u16 = 2;
/// Upper bound on a frame body; larger length prefixes are rejected as
/// corruption before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_ACK: u8 = 4;
const KIND_FINISH: u8 = 5;
const KIND_KEEPALIVE: u8 = 6;

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`, as appended to
/// every frame body. One checksum definition serves both the wire format
/// and the durable checkpoint format: this is the shared implementation
/// from `onesql_state::codec`.
pub use onesql_state::codec::crc32;

// ---------------------------------------------------------------------------
// Addresses, connections, listeners: TCP and unix sockets behind one face.
// ---------------------------------------------------------------------------

/// Where a network endpoint lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    /// A TCP address in `host:port` form.
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl NetAddr {
    /// A TCP address, e.g. `NetAddr::tcp("127.0.0.1:9400")`.
    pub fn tcp(addr: impl Into<String>) -> NetAddr {
        NetAddr::Tcp(addr.into())
    }

    /// A unix-domain socket path.
    pub fn unix(path: impl Into<PathBuf>) -> NetAddr {
        NetAddr::Unix(path.into())
    }

    fn connect(&self) -> std::io::Result<NetConn> {
        match self {
            NetAddr::Tcp(addr) => TcpStream::connect(addr.as_str()).map(NetConn::Tcp),
            NetAddr::Unix(path) => UnixStream::connect(path).map(NetConn::Unix),
        }
    }

    fn bind(&self) -> std::io::Result<NetListener> {
        match self {
            NetAddr::Tcp(addr) => TcpListener::bind(addr.as_str()).map(NetListener::Tcp),
            NetAddr::Unix(path) => {
                // A previous consumer instance leaves its socket file
                // behind; rebinding the same path is the normal restart
                // flow, so replace a stale file rather than failing.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                UnixListener::bind(path).map(NetListener::Unix)
            }
        }
    }
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            NetAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

enum NetConn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl NetConn {
    fn try_clone(&self) -> std::io::Result<NetConn> {
        match self {
            NetConn::Tcp(s) => s.try_clone().map(NetConn::Tcp),
            NetConn::Unix(s) => s.try_clone().map(NetConn::Unix),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            NetConn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            NetConn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, dur: Option<StdDuration>) -> std::io::Result<()> {
        match self {
            NetConn::Tcp(s) => s.set_read_timeout(dur),
            NetConn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for NetConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetConn::Tcp(s) => s.read(buf),
            NetConn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetConn::Tcp(s) => s.write(buf),
            NetConn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetConn::Tcp(s) => s.flush(),
            NetConn::Unix(s) => s.flush(),
        }
    }
}

enum NetListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl NetListener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            NetListener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<NetConn> {
        match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetConn::Tcp(s)),
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetConn::Unix(s)),
        }
    }

    fn local_addr(&self, bound: &NetAddr) -> NetAddr {
        match self {
            NetListener::Tcp(l) => match l.local_addr() {
                Ok(addr) => NetAddr::Tcp(addr.to_string()),
                Err(_) => bound.clone(),
            },
            NetListener::Unix(_) => bound.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec: values, events, frames.
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_TS: u8 = 5;
const TAG_INTERVAL: u8 = 6;

/// One event as it crosses the wire: a change to one of the handshake's
/// declared streams at a processing time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireEvent {
    stream: u16,
    ptime: Ts,
    diff: i64,
    row: Row,
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Ts(t) => {
            buf.push(TAG_TS);
            put_i64(buf, t.millis());
        }
        Value::Interval(d) => {
            buf.push(TAG_INTERVAL);
            put_i64(buf, d.millis());
        }
    }
}

fn put_event(buf: &mut Vec<u8>, event: &WireEvent) {
    put_u16(buf, event.stream);
    put_i64(buf, event.ptime.millis());
    put_i64(buf, event.diff);
    put_u16(buf, event.row.arity() as u16);
    for value in event.row.values() {
        put_value(buf, value);
    }
}

/// Encoded size of one event, for bounding frame bodies before encoding.
fn event_encoded_len(event: &WireEvent) -> usize {
    let values: usize = event
        .row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 9,
            Value::Str(s) => 5 + s.len(),
        })
        .sum();
    2 + 8 + 8 + 2 + values
}

/// Soft cap on a frame body the producer assembles: comfortably inside
/// [`MAX_FRAME_LEN`] so legal data can never produce a frame the consumer
/// rejects as corruption. Frames close early when the next event would
/// cross it — a deterministic function of the event stream, so the
/// determinism contract is unaffected.
const FRAME_BODY_SOFT_CAP: usize = (MAX_FRAME_LEN as usize) - 4096;

/// A bounds-checked little-endian reader over a frame body.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| Error::exec("malformed frame: body shorter than its fields"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.u8()? != 0),
            TAG_INT => Value::Int(self.i64()?),
            TAG_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            TAG_STR => {
                let len = self.u32()? as usize;
                let bytes = self.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| Error::exec("malformed frame: string is not UTF-8"))?;
                Value::str(s)
            }
            TAG_TS => Value::Ts(Ts(self.i64()?)),
            TAG_INTERVAL => Value::Interval(onesql_types::Duration(self.i64()?)),
            tag => return Err(Error::exec(format!("malformed frame: value tag {tag}"))),
        })
    }

    fn event(&mut self) -> Result<WireEvent> {
        let stream = self.u16()?;
        let ptime = Ts(self.i64()?);
        let diff = self.i64()?;
        let arity = self.u16()? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(WireEvent {
            stream,
            ptime,
            diff,
            row: Row::new(values),
        })
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::exec("malformed frame: trailing bytes after payload"))
        }
    }
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::exec(format!("{context}: {e}"))
}

/// Write one frame: `len | body | crc32(body)`.
fn write_frame(conn: &mut NetConn, context: &str, body: &[u8]) -> Result<()> {
    let mut wire = Vec::with_capacity(body.len() + 8);
    put_u32(&mut wire, body.len() as u32);
    wire.extend_from_slice(body);
    put_u32(&mut wire, crc32(body));
    conn.write_all(&wire)
        .and_then(|()| conn.flush())
        .map_err(|e| io_err(context, e))
}

/// How reading one frame ended, classified so restart-tolerant readers
/// can tell a *dead* peer (transport gone) from a *wrong* one (bytes
/// arrived but are corrupt).
enum FrameRead {
    /// A whole, CRC-verified frame body.
    Frame(Vec<u8>),
    /// Clean end-of-stream exactly on a frame boundary.
    Eof,
    /// The transport died mid-frame (partial bytes then EOF, or a read
    /// error): a dead peer.
    Death(String),
    /// The bytes themselves are wrong (over-bound length prefix, CRC
    /// mismatch): a buggy or corrupted peer — never tolerable, or a
    /// deterministic producer would replay the same bad frame forever.
    Corrupt(String),
}

/// Read and classify one frame: `len | body | crc32(body)`.
fn read_frame_raw(conn: &mut NetConn, context: &str) -> FrameRead {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match conn.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return FrameRead::Eof;
                }
                return FrameRead::Death(format!(
                    "{context}: disconnected inside a frame length prefix \
                     ({got} of 4 bytes)"
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return FrameRead::Death(io_err(context, e).to_string()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return FrameRead::Corrupt(format!(
            "{context}: frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound \
             (corrupt length prefix?)"
        ));
    }
    let mut body = vec![0u8; len as usize + 4];
    if let Err(e) = conn.read_exact(&mut body) {
        return FrameRead::Death(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            format!("{context}: disconnected mid-frame")
        } else {
            io_err(context, e).to_string()
        });
    }
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&body[len as usize..]);
    let crc_wire = u32::from_le_bytes(crc_bytes);
    body.truncate(len as usize);
    let crc_body = crc32(&body);
    if crc_wire != crc_body {
        return FrameRead::Corrupt(format!(
            "{context}: CRC mismatch (frame says {crc_wire:#010x}, body hashes \
             to {crc_body:#010x})"
        ));
    }
    FrameRead::Frame(body)
}

/// Read one frame body, verifying the length bound and the CRC.
///
/// `Ok(None)` is a clean end-of-stream: the peer closed exactly on a
/// frame boundary. EOF anywhere else — inside the length prefix, the
/// body, or the trailing CRC — is a mid-frame disconnect and errors, as
/// does corruption.
fn read_frame(conn: &mut NetConn, context: &str) -> Result<Option<Vec<u8>>> {
    match read_frame_raw(conn, context) {
        FrameRead::Frame(body) => Ok(Some(body)),
        FrameRead::Eof => Ok(None),
        FrameRead::Death(msg) | FrameRead::Corrupt(msg) => Err(Error::exec(msg)),
    }
}

/// How a connection preamble read ended. Protocol violations (bad
/// magic, wrong version) stay `Err`: the peer *spoke* and got it wrong.
enum Preamble {
    /// Magic matched and the version is the one this build speaks.
    Valid,
    /// The peer never sent a byte — it closed cleanly or sat silent
    /// past the handshake read timeout. That is a port scan, a
    /// load-balancer health check, or a stray `nc`, not a producer;
    /// such connections are dropped silently.
    Silent,
    /// The transport died mid-preamble (partial bytes then EOF, or a
    /// read error): a dead peer, not a wrong one. Carries the message
    /// to surface when producer restarts are *not* tolerated.
    Died(String),
}

/// Read and classify the connection preamble (magic + version).
fn read_preamble(conn: &mut NetConn, context: &str) -> Result<Preamble> {
    let mut preamble = [0u8; 6];
    let mut got = 0usize;
    while got < preamble.len() {
        match conn.read(&mut preamble[got..]) {
            Ok(0) if got == 0 => return Ok(Preamble::Silent),
            Ok(0) => {
                return Ok(Preamble::Died(format!(
                    "{context}: disconnected inside the preamble"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(Preamble::Silent)
            }
            Err(e) => return Ok(Preamble::Died(io_err(context, e).to_string())),
        }
    }
    if preamble[..4] != WIRE_MAGIC {
        return Err(Error::exec(format!(
            "{context}: bad magic {:02x?} (expected {WIRE_MAGIC:02x?})",
            &preamble[..4]
        )));
    }
    let mut version_bytes = [0u8; 2];
    version_bytes.copy_from_slice(&preamble[4..6]);
    let version = u16::from_le_bytes(version_bytes);
    if version != WIRE_VERSION {
        return Err(Error::exec(format!(
            "{context}: wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    Ok(Preamble::Valid)
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Tuning for both ends of a network pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Producer: events per `BATCH` frame. For byte-identical
    /// kill/restore keep this equal to the consumer driver's (fixed) poll
    /// batch size — see the module docs on determinism.
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

// ---------------------------------------------------------------------------
// Writer side: NetPublisher and NetSink.
// ---------------------------------------------------------------------------

/// An item in the producer's replay spool. Watermarks are spooled inline
/// at their positions between events and each remembers which frame
/// delivered it, so a reconnect replays exactly the watermarks the
/// consumer has not seen: a resume offset alone cannot distinguish a
/// watermark that rode the frame *ending* at that offset (delivered)
/// from one still waiting to ride the next frame (not delivered) — the
/// recorded frame end does.
#[derive(Debug, Clone)]
enum SpoolItem {
    Event(WireEvent),
    Watermark {
        wm: Ts,
        /// End offset of the frame that carried this watermark to the
        /// consumer; `None` until it has been sent.
        sent_frame_end: Option<u64>,
    },
}

/// The producer half of a network pipeline: connects to a
/// [`PartitionedNetSource`] (or [`NetSource`]) and pushes events,
/// watermarks, and end-of-stream for **one** partition.
///
/// Exactly-once machinery: every item sent is retained in a bounded spool
/// until the consumer acknowledges it (acks are sent when the consuming
/// driver checkpoints, and once more when it finishes). If the consumer
/// dies, the next send notices, reconnects within
/// [`NetConfig::connect_timeout`], learns the consumer's resume offset
/// from the handshake reply, and replays the spool from there — so a
/// consumer restored from a checkpoint seamlessly continues mid-stream.
pub struct NetPublisher {
    addr: NetAddr,
    partition: u32,
    streams: Vec<String>,
    config: NetConfig,
    conn: Option<NetConn>,
    /// Set by the ack-reader thread when its connection dies.
    conn_dead: Arc<AtomicBool>,
    /// Highest offset the consumer has acknowledged (monotone).
    acked: Arc<AtomicU64>,
    /// Items not yet acknowledged, oldest first.
    spool: VecDeque<SpoolItem>,
    /// Offset of the first event in the spool (== trim floor).
    spool_base: u64,
    /// Trailing spool items not yet written to the current connection.
    unsent: usize,
    /// Offset of the next event to write on the current connection (the
    /// base offset of the next frame); kept in step with `unsent` so
    /// frames need no spool rescans to learn their base.
    send_cursor: u64,
    /// Offset the next appended event will get.
    next_offset: u64,
    /// `finish` was called; replays re-send the FINISH frame too.
    finished: bool,
    /// FINISH has been written to the *current* connection.
    finish_sent: bool,
    /// When the last KEEPALIVE frame went out.
    last_keepalive: Option<Instant>,
    /// Highest watermark published so far; carried on KEEPALIVE frames
    /// (wire v2) so consumer-side lag attribution survives idle
    /// stretches.
    last_wm: Option<Ts>,
    /// Telemetry; see [`NetPublisherStats`].
    stats: NetPublisherStats,
}

/// Wire telemetry of one [`NetPublisher`], via [`NetPublisher::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetPublisherStats {
    /// Frames written (data, FINISH, KEEPALIVE), over all connections.
    pub frames: u64,
    /// Payload bytes of those frames.
    pub bytes: u64,
    /// Connections established (handshake completed); every one past
    /// the first was a reconnect.
    pub connections: u64,
    /// Spool items a reconnect rewound for re-sending: how much work
    /// exactly-once recovery actually re-did.
    pub replayed: u64,
}

impl NetPublisher {
    /// A publisher for `partition` of the consumer at `addr`, declaring
    /// `streams` (which must match the consumer's declaration exactly).
    /// The connection is established lazily on the first send.
    pub fn new(
        addr: NetAddr,
        partition: usize,
        streams: Vec<String>,
        config: NetConfig,
    ) -> NetPublisher {
        NetPublisher {
            addr,
            partition: partition as u32,
            streams,
            config,
            conn: None,
            conn_dead: Arc::new(AtomicBool::new(false)),
            acked: Arc::new(AtomicU64::new(0)),
            spool: VecDeque::new(),
            spool_base: 0,
            unsent: 0,
            send_cursor: 0,
            next_offset: 0,
            finished: false,
            finish_sent: false,
            last_keepalive: None,
            last_wm: None,
            stats: NetPublisherStats::default(),
        }
    }

    /// The offset the next event will be assigned (== events published).
    pub fn offset(&self) -> u64 {
        self.next_offset
    }

    /// Wire telemetry so far: frames/bytes written, connections made,
    /// spool items replayed by reconnects.
    pub fn stats(&self) -> NetPublisherStats {
        self.stats
    }

    /// Record one frame of `bytes` payload put on the wire.
    fn note_frame(&mut self, bytes: usize) {
        self.stats.frames += 1;
        self.stats.bytes += bytes as u64;
    }

    /// Highest offset the consumer has acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Publish a change on `stream` (an index into the declared stream
    /// list) at processing time `ptime`.
    pub fn send(&mut self, stream: usize, ptime: Ts, change: Change) -> Result<()> {
        if self.finished {
            return Err(Error::exec(format!(
                "net publisher {}#{}: send after finish",
                self.addr, self.partition
            )));
        }
        if stream >= self.streams.len() {
            return Err(Error::exec(format!(
                "net publisher {}#{}: stream index {stream} out of range \
                 ({} declared)",
                self.addr,
                self.partition,
                self.streams.len()
            )));
        }
        // The consumer's handshake may have acknowledged offsets this
        // publisher never sent — a restarted producer deterministically
        // re-publishing its stream to a consumer that already checkpointed
        // part of it. Those events are provably durable downstream: count
        // them, send nothing.
        if self.next_offset < self.acked() {
            self.next_offset += 1;
            return Ok(());
        }
        let event = WireEvent {
            stream: stream as u16,
            ptime,
            diff: change.diff,
            row: change.row,
        };
        // Reject rows that cannot fit any legal frame *before* spooling
        // them: once spooled they would be replayed forever, and the
        // consumer would misdiagnose the oversized frame as corruption.
        // The 32 bytes mirror the header slack frame collection reserves.
        let encoded = event_encoded_len(&event);
        if encoded + 32 > FRAME_BODY_SOFT_CAP {
            return Err(Error::exec(format!(
                "net publisher {}#{}: a single event encodes to {encoded} bytes, \
                 beyond the {FRAME_BODY_SOFT_CAP}-byte frame bound",
                self.addr, self.partition
            )));
        }
        self.reserve_spool_slot()?;
        if self.spool.is_empty() {
            // Everything before this event is acked (or was never
            // spooled, for a restarted producer below the ack floor).
            self.spool_base = self.next_offset;
        }
        self.spool.push_back(SpoolItem::Event(event));
        self.unsent += 1;
        self.next_offset += 1;
        self.pump(false)
    }

    /// Insert `row` on `stream` at `ptime` (diff `+1`).
    pub fn insert(&mut self, stream: usize, ptime: Ts, row: Row) -> Result<()> {
        self.send(stream, ptime, Change::insert(row))
    }

    /// Assert that all future events (on every declared stream) have
    /// event times strictly greater than `wm`. Flushes the pending frame
    /// so the watermark's position in the stream is exactly here.
    pub fn watermark(&mut self, wm: Ts) -> Result<()> {
        if self.finished {
            return Err(Error::exec(format!(
                "net publisher {}#{}: watermark after finish",
                self.addr, self.partition
            )));
        }
        // Below the acknowledged floor the consumer already heard a
        // watermark at this position (see the same check in `send`); at
        // or above it, send — a duplicate watermark is absorbed by the
        // consumer's monotone ledger, a missing one would stall gates.
        self.last_wm = Some(self.last_wm.map_or(wm, |prev| prev.max(wm)));
        if self.next_offset < self.acked() {
            return Ok(());
        }
        self.reserve_spool_slot()?;
        if self.spool.is_empty() {
            self.spool_base = self.next_offset;
        }
        self.spool.push_back(SpoolItem::Watermark {
            wm,
            sent_frame_end: None,
        });
        self.unsent += 1;
        self.pump(false)
    }

    /// Send any buffered partial frame now.
    pub fn flush(&mut self) -> Result<()> {
        self.pump(true)
    }

    /// Send a `KEEPALIVE` frame when one is due: at most once per
    /// [`NetConfig::keepalive`] interval. A no-op when keepalives are
    /// disabled. Call this from the producer's idle loop; paired with
    /// the consumer's [`NetConfig::silence_limit`], it makes a *silent*
    /// producer distinguishable from a *dead* one.
    ///
    /// Keepalives carry no events and move no offsets, and frames only
    /// ever reach the wire whole — so sending one between data frames
    /// is always legal, including while a *partial* data frame is still
    /// buffered waiting to fill (buffered bytes the consumer has never
    /// seen prove nothing about liveness).
    ///
    /// The first call also establishes the connection (claiming the
    /// partition), so a producer with nothing to say yet still
    /// announces itself. Write failures drop the connection and report
    /// the error; the next data send (or keepalive) reconnects.
    pub fn keepalive(&mut self) -> Result<()> {
        let Some(interval) = self.config.keepalive else {
            return Ok(());
        };
        if self.finished && self.finish_sent {
            return Ok(());
        }
        let now = Instant::now();
        if self
            .last_keepalive
            .is_some_and(|last| now.duration_since(last) < interval)
        {
            return Ok(());
        }
        let had_conn = self.conn.is_some() && !self.conn_dead.load(Ordering::Acquire);
        let deadline = now + self.config.connect_timeout;
        self.ensure_conn(deadline)?;
        if !had_conn && self.unsent > 0 {
            // Reconnecting rewound unacknowledged items: replaying them
            // is better proof of life than an empty keepalive.
            self.last_keepalive = Some(Instant::now());
            return self.pump(true);
        }
        let context = format!("net publisher {}#{}", self.addr, self.partition);
        let mut body = Vec::with_capacity(18);
        body.push(KIND_KEEPALIVE);
        put_u64(&mut body, self.send_cursor);
        // Wire v2: carry the current watermark so the consumer's
        // watermark-lag attribution keeps working while we idle.
        match self.last_wm {
            Some(wm) => {
                body.push(1);
                put_i64(&mut body, wm.millis());
            }
            None => {
                body.push(0);
                put_i64(&mut body, 0);
            }
        }
        let Some(mut conn) = self.conn.take() else {
            return Err(Error::exec(format!(
                "{context}: connection vanished after ensure"
            )));
        };
        let result = write_frame(&mut conn, &context, &body);
        match result {
            Ok(()) => {
                self.note_frame(body.len());
                self.conn = Some(conn);
            }
            Err(_) => conn.shutdown(),
        }
        self.last_keepalive = Some(Instant::now());
        result
    }

    /// Declare the partition complete: flush everything and send the
    /// `FINISH` frame. The publisher stays usable for
    /// [`NetPublisher::wait_drained`] (and will re-send spool + FINISH if
    /// the consumer reconnects), but accepts no new events.
    pub fn finish(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.pump(true)?;
        self.finished = true;
        self.pump(true)
    }

    /// One drain maintenance step: reconnect-and-replay if the connection
    /// died, then report whether the consumer has acknowledged every
    /// published event (a consuming pipeline checkpointed or finished
    /// past them).
    ///
    /// A producer feeding **several** partitions must interleave this
    /// across its publishers rather than blocking on one at a time: the
    /// final acks only flow once the consuming pipeline finishes, and it
    /// cannot finish until *every* partition has replayed — waiting
    /// serially would deadlock against a consumer restored mid-stream.
    pub fn poll_drained(&mut self) -> Result<bool> {
        self.trim();
        if self.acked() >= self.next_offset {
            return Ok(true);
        }
        if self.conn.is_none() || self.conn_dead.load(Ordering::Acquire) {
            self.pump(true)?;
        }
        self.trim();
        Ok(self.acked() >= self.next_offset)
    }

    /// Block until [`NetPublisher::poll_drained`] reports drained or
    /// `timeout` elapses. Reconnects and replays as needed, so this is
    /// the producer-side way to outlive consumer crashes: keep waiting
    /// and the restored consumer will come back for the rest. For
    /// multi-partition producers, drive `poll_drained` over all
    /// publishers in one loop instead (see there for why).
    pub fn wait_drained(&mut self, timeout: StdDuration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.poll_drained()? {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::exec(format!(
                    "net publisher {}#{}: consumer acknowledged only {} of {} \
                     events within the drain timeout",
                    self.addr,
                    self.partition,
                    self.acked(),
                    self.next_offset
                )));
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    /// Drop spool items the consumer has acknowledged.
    fn trim(&mut self) {
        let acked = self.acked();
        while self.spool.len() > self.unsent {
            match self.spool.front() {
                Some(SpoolItem::Event(_)) if self.spool_base < acked => {
                    self.spool.pop_front();
                    self.spool_base += 1;
                }
                // A watermark is disposable once the frame that carried
                // it is fully acknowledged.
                Some(SpoolItem::Watermark { sent_frame_end, .. })
                    if sent_frame_end.is_some_and(|end| end <= acked) =>
                {
                    self.spool.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Make room for one more spool item, waiting for acks when the
    /// bounded spool is full.
    fn reserve_spool_slot(&mut self) -> Result<()> {
        if self.spool.len() < self.config.spool_events {
            return Ok(());
        }
        let deadline = Instant::now() + self.config.ack_wait;
        loop {
            // Acks only move when a connection is alive to carry them.
            if self.conn.is_none() || self.conn_dead.load(Ordering::Acquire) {
                self.pump(false)?;
            }
            self.trim();
            if self.spool.len() < self.config.spool_events {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::exec(format!(
                    "net publisher {}#{}: replay spool full ({} items) and the \
                     consumer is not acknowledging — is it checkpointing?",
                    self.addr,
                    self.partition,
                    self.spool.len()
                )));
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    /// Ensure a live connection, then encode-and-send unsent spool items
    /// as frames. Frames break only at `batch_events`; watermarks ride
    /// the frame containing them (applied after its events — delaying a
    /// monotone lower bound is always legal), so every mid-stream frame
    /// carries at least one event and the consumer's event offset fully
    /// determines what it has consumed. A trailing partial frame is held
    /// back unless `force` is set (or `finish` was called). On a broken
    /// connection the whole cycle — reconnect, handshake, rewind to the
    /// consumer's resume offset, re-send — retries until
    /// [`NetConfig::connect_timeout`] elapses.
    fn pump(&mut self, force: bool) -> Result<()> {
        let deadline = Instant::now() + self.config.connect_timeout;
        loop {
            match self.try_pump(force, deadline) {
                Ok(()) => {
                    self.trim();
                    return Ok(());
                }
                Err(e) => {
                    // The connection died mid-write: drop it and retry the
                    // full reconnect cycle within the deadline.
                    if let Some(conn) = self.conn.take() {
                        conn.shutdown();
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(StdDuration::from_millis(5));
                }
            }
        }
    }

    fn try_pump(&mut self, force: bool, deadline: Instant) -> Result<()> {
        let finish_pending = self.finished && !self.finish_sent;
        if self.unsent == 0
            && !finish_pending
            && self.conn.is_some()
            && !self.conn_dead.load(Ordering::Acquire)
        {
            return Ok(());
        }
        // A frame needs `batch_events` events before it closes (and
        // unsent counts watermark items too, so it is an upper bound on
        // pending events): until then a non-forced pump has nothing to
        // do, and skipping the scan keeps the per-send cost O(1) instead
        // of rescanning the partial frame on every append.
        if !force && !self.finished && self.unsent < self.config.batch_events {
            return Ok(());
        }
        self.ensure_conn(deadline)?;
        let context = format!("net publisher {}#{}", self.addr, self.partition);
        while self.unsent > 0 {
            let start = self.spool.len() - self.unsent;
            // Collect one frame: up to `batch_events` events (or the
            // frame-body byte cap, whichever closes first), absorbing
            // every watermark item encountered (leading, interleaved, or
            // immediately trailing) into the frame's single watermark
            // field — watermarks are monotone, so the max wins.
            let mut events: Vec<&WireEvent> = Vec::new();
            let mut watermark: Option<Ts> = None;
            let mut items = 0usize;
            let mut bytes = 32usize; // frame header slack
            let mut capped = false;
            for item in self.spool.iter().skip(start) {
                match item {
                    SpoolItem::Event(e) => {
                        if events.len() == self.config.batch_events {
                            break;
                        }
                        let len = event_encoded_len(e);
                        if bytes + len > FRAME_BODY_SOFT_CAP {
                            capped = !events.is_empty();
                            break;
                        }
                        bytes += len;
                        events.push(e);
                        items += 1;
                    }
                    SpoolItem::Watermark { wm, .. } => {
                        watermark = Some(watermark.map_or(*wm, |prev| prev.max(*wm)));
                        items += 1;
                    }
                }
            }
            let full = events.len() == self.config.batch_events || capped;
            if !(full || force || self.finished) {
                break; // partial frame: wait for more data
            }
            if items == 0 {
                break;
            }
            let base_offset = self.send_cursor;
            let frame_end = base_offset + events.len() as u64;
            let mut body = Vec::with_capacity(64 + events.len() * 32);
            body.push(KIND_BATCH);
            put_u64(&mut body, base_offset);
            match watermark {
                Some(wm) => {
                    body.push(1);
                    put_i64(&mut body, wm.millis());
                }
                None => {
                    body.push(0);
                    put_i64(&mut body, 0);
                }
            }
            put_u32(&mut body, events.len() as u32);
            for event in &events {
                put_event(&mut body, event);
            }
            drop(events);
            // Wire v2: trace context. The span current on this thread is
            // the producer-side span responsible for putting the frame on
            // the wire (the driver's emit span when pumped inline from a
            // sink write); 0 when tracing is off or the root was
            // unsampled, shipped as "absent" so the consumer never
            // parents onto a span nobody recorded.
            let trace_span = observe::current_span();
            if trace_span != 0 {
                body.push(1);
                put_u64(&mut body, trace_span);
            } else {
                body.push(0);
                put_u64(&mut body, 0);
            }
            let Some(mut conn) = self.conn.take() else {
                return Err(Error::exec(format!(
                    "{context}: connection vanished after ensure"
                )));
            };
            let result = write_frame(&mut conn, &context, &body);
            self.conn = Some(conn);
            result?;
            self.note_frame(body.len());
            // The frame is on the wire: record which frame carried each
            // watermark (what reconnect rewinds key on) and advance the
            // send cursor past the frame's events.
            for item in self.spool.range_mut(start..start + items) {
                if let SpoolItem::Watermark { sent_frame_end, .. } = item {
                    *sent_frame_end = Some(frame_end);
                }
            }
            self.send_cursor = frame_end;
            self.unsent -= items;
        }
        if self.finished && !self.finish_sent && self.unsent == 0 {
            let mut body = Vec::with_capacity(9);
            body.push(KIND_FINISH);
            put_u64(&mut body, self.next_offset);
            let Some(mut conn) = self.conn.take() else {
                return Err(Error::exec(format!(
                    "{context}: connection vanished after ensure"
                )));
            };
            let result = write_frame(&mut conn, &context, &body);
            self.conn = Some(conn);
            result?;
            self.note_frame(body.len());
            self.finish_sent = true;
        }
        Ok(())
    }

    /// Connect (with retries until `deadline`), run the handshake, rewind
    /// the unsent cursor to the consumer's resume offset, and spawn the
    /// ack-reader thread for the new connection.
    fn ensure_conn(&mut self, deadline: Instant) -> Result<()> {
        if self.conn.is_some() && !self.conn_dead.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
        let context = format!("net publisher {}#{}", self.addr, self.partition);
        let mut conn = loop {
            match self.addr.connect() {
                Ok(conn) => break conn,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(Error::exec(format!(
                            "{context}: cannot connect within the timeout: {e}"
                        )));
                    }
                    std::thread::sleep(StdDuration::from_millis(5));
                }
            }
        };
        // Preamble + HELLO (the schema header: which streams this
        // connection feeds, and which partition it claims).
        let mut opening = Vec::with_capacity(64);
        opening.extend_from_slice(&WIRE_MAGIC);
        opening.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        conn.write_all(&opening).map_err(|e| io_err(&context, e))?;
        let mut body = Vec::with_capacity(64);
        body.push(KIND_HELLO);
        put_u32(&mut body, self.partition);
        put_u16(&mut body, self.streams.len() as u16);
        for stream in &self.streams {
            put_u16(&mut body, stream.len() as u16);
            body.extend_from_slice(stream.as_bytes());
        }
        write_frame(&mut conn, &context, &body)?;

        // HELLO_ACK tells us where to resume. The consumer holds the
        // reply until its driver has restored (so a checkpointed resume
        // offset can land first); bound the wait by the remaining window.
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .unwrap_or(StdDuration::from_millis(1));
        conn.set_read_timeout(Some(remaining))
            .map_err(|e| io_err(&context, e))?;
        let body = read_frame(&mut conn, &context)?
            .ok_or_else(|| Error::exec(format!("{context}: consumer closed during handshake")))?;
        let mut reader = FrameReader::new(&body);
        let kind = reader.u8()?;
        if kind != KIND_HELLO_ACK {
            return Err(Error::exec(format!(
                "{context}: expected HELLO_ACK, got frame kind {kind}"
            )));
        }
        let resume = reader.u64()?;
        reader.done()?;
        if resume < self.spool_base {
            return Err(Error::exec(format!(
                "{context}: consumer asks to resume at {resume} but the spool \
                 was already trimmed to {} (acked earlier); cannot replay",
                self.spool_base
            )));
        }
        conn.set_read_timeout(None)
            .map_err(|e| io_err(&context, e))?;

        // The resume offset is also an acknowledgement: the consumer
        // durably checkpointed everything below it and will never ask for
        // it again. (It may even exceed what *this* publisher instance has
        // published — a restarted producer re-publishing its deterministic
        // stream — in which case sends below the floor are dropped.)
        self.acked.fetch_max(resume, Ordering::AcqRel);

        // Rewind: everything the consumer has not consumed is unsent for
        // this connection — events at or past `resume`, and watermarks
        // that were never sent or whose carrying frame ended past
        // `resume` (the recorded frame end, not the watermark's position,
        // decides: the consumer consumed a watermark iff it consumed the
        // whole frame that carried it). Scanning backwards finds the
        // longest consumed prefix; in the misaligned-resume corner (a
        // checkpoint taken mid-frame) an ambiguous watermark is dropped
        // rather than risking an offset gap — losing a watermark only
        // delays releases, never data.
        let mut offset = self.spool_base
            + self
                .spool
                .iter()
                .filter(|i| matches!(i, SpoolItem::Event(_)))
                .count() as u64;
        let mut first_unsent = 0;
        for (idx, item) in self.spool.iter().enumerate().rev() {
            let consumed = match item {
                SpoolItem::Event(_) => {
                    offset -= 1;
                    offset < resume
                }
                SpoolItem::Watermark { sent_frame_end, .. } => {
                    sent_frame_end.is_some_and(|end| end <= resume)
                }
            };
            if consumed {
                first_unsent = idx + 1;
                break;
            }
        }
        let was_unsent = self.unsent;
        self.unsent = self.spool.len() - first_unsent;
        // Items the rewind re-opened had already been written once:
        // that is the replay work this reconnect costs.
        let replayed = self.unsent.saturating_sub(was_unsent) as u64;
        self.stats.replayed += replayed;
        self.stats.connections += 1;
        self.send_cursor = resume;
        self.finish_sent = false;

        // Fresh liveness flag per connection so a stale reader thread
        // cannot mark the new connection dead.
        let dead = Arc::new(AtomicBool::new(false));
        self.conn_dead = dead.clone();
        let acked = self.acked.clone();
        let mut reader_conn = conn.try_clone().map_err(|e| io_err(&context, e))?;
        std::thread::spawn(move || loop {
            match read_frame(&mut reader_conn, "net ack reader") {
                Ok(Some(body)) => {
                    let mut reader = FrameReader::new(&body);
                    if let (Ok(KIND_ACK), Ok(offset)) = (reader.u8(), reader.u64()) {
                        acked.fetch_max(offset, Ordering::AcqRel);
                    }
                }
                Ok(None) | Err(_) => {
                    dead.store(true, Ordering::Release);
                    return;
                }
            }
        });
        self.conn = Some(conn);
        Ok(())
    }
}

impl Drop for NetPublisher {
    fn drop(&mut self) {
        // The ack-reader thread holds a dup of the socket; shutdown (not
        // just close) reaches every dup, so the reader exits and the
        // consumer sees end-of-stream instead of a silent idle hang.
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
    }
}

impl std::fmt::Debug for NetPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetPublisher")
            .field("addr", &self.addr)
            .field("partition", &self.partition)
            .field("offset", &self.next_offset)
            .field("acked", &self.acked())
            .field("spooled", &self.spool.len())
            .finish()
    }
}

/// A [`Sink`] that ships a pipeline's output changelog to another process
/// over the wire, where a [`NetSource`] re-ingests it as a stream: the
/// glue that chains pipelines across processes.
///
/// Each output [`StreamRow`] crosses as one wire event — the data row
/// with `diff = -1` for an `undo` and `+1` otherwise, at the row's
/// materialization `ptime`. `ver` numbering is *not* shipped: the
/// downstream pipeline derives its own revision numbers from the changes
/// it ingests, exactly as it would for any other source. Output
/// watermarks are forwarded as watermark frames, and pipeline finish
/// becomes end-of-stream.
pub struct NetSink {
    name: String,
    publisher: NetPublisher,
}

impl NetSink {
    /// A sink feeding the consumer at `addr`, declaring its rows as
    /// downstream stream `stream` on partition `partition`. Connects
    /// lazily on the first write.
    pub fn connect(
        addr: NetAddr,
        stream: impl Into<String>,
        partition: usize,
        config: NetConfig,
    ) -> NetSink {
        let stream = stream.into();
        NetSink {
            name: format!("net:{addr}#{partition}"),
            publisher: NetPublisher::new(addr, partition, vec![stream], config),
        }
    }
}

impl Sink for NetSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        for sr in rows {
            let change = Change::with_diff(sr.row.clone(), if sr.undo { -1 } else { 1 });
            self.publisher.send(0, sr.ptime, change)?;
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Watermark) -> Result<()> {
        self.publisher.watermark(wm.ts())
    }

    fn flush(&mut self) -> Result<()> {
        self.publisher.finish()
    }
}

// ---------------------------------------------------------------------------
// Reader side: PartitionedNetSource and NetSource.
// ---------------------------------------------------------------------------

/// What a connection's reader thread hands the polling source.
enum Decoded {
    Batch {
        events: Vec<SourceEvent>,
        watermark: Option<Ts>,
        /// Producer-side span id carried in the frame (wire v2); the
        /// ingesting driver parents its ingest span on it so both sides
        /// stitch into one trace.
        trace: Option<u64>,
    },
    /// A `KEEPALIVE` frame: the producer is alive but has nothing to
    /// say. Carries no events and moves no offsets; it refreshes the
    /// partition's silence clock, and (wire v2) may restate the
    /// producer's current watermark — a duplicate is absorbed by the
    /// consumer's monotone ledger.
    Keepalive {
        watermark: Option<Ts>,
    },
    Finished,
    Failed(String),
}

/// Per-partition shared state between the acceptor/reader threads and the
/// polling source.
struct PartSlot {
    tx: Sender<Decoded>,
    /// Write half of the accepted connection, for `ACK` frames.
    writer: Mutex<Option<NetConn>>,
    /// At most one connection may hold a partition at a time. Without
    /// [`NetConfig::producer_restarts`] the claim is for the source's
    /// lifetime; with it, a dead connection releases the claim so a
    /// restarted producer can take over.
    claimed: AtomicBool,
    /// Offset announced in the handshake reply: set by seek before the
    /// first poll (0 for a fresh start), and advanced past every
    /// delivered frame when producer restarts are tolerated, so a
    /// reconnecting producer resumes exactly where the last one stopped.
    resume: AtomicU64,
    /// The partition's FINISH arrived; no reconnect can ever matter.
    finished: AtomicBool,
    /// Telemetry: post-handshake frames delivered on this partition.
    frames: AtomicU64,
    /// Telemetry: payload bytes of those frames.
    bytes: AtomicU64,
    /// Telemetry: producer connections that completed the handshake
    /// (`connections - 1` is the partition's reconnect count).
    connections: AtomicU64,
}

/// Per-partition wire telemetry of a net source: what arrived, and how
/// many producer incarnations delivered it. Snapshot via
/// [`PartitionedNetSource::part_stats`] / [`NetSource::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetPartStats {
    /// Post-handshake frames (data, FINISH, KEEPALIVE) delivered.
    pub frames: u64,
    /// Payload bytes of those frames.
    pub bytes: u64,
    /// Producer connections that completed the handshake; every one
    /// past the first was a reconnect.
    pub connections: u64,
}

struct ListenerShared {
    name: String,
    /// Expected stream declaration; producers must match it exactly.
    streams: Vec<String>,
    parts: Vec<PartSlot>,
    /// Handshake replies wait for this: the driver had its chance to seek
    /// (restore) before the first poll flips it.
    ready: (Mutex<bool>, Condvar),
    /// Failures that cannot be attributed to a claimed partition (bad
    /// preamble, version mismatch, bogus HELLO): surfaced by every poll.
    failure: Mutex<Option<String>>,
    /// [`NetConfig::producer_restarts`].
    allow_restart: bool,
    shutdown: AtomicBool,
}

impl ListenerShared {
    fn fail(&self, msg: String) {
        let mut slot = self
            .failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(msg);
        }
    }
}

/// One partition of a [`PartitionedNetSource`], as a [`Source`] the
/// [`PartitionedVec`] adapter can fold. Polls deliver **at most one wire
/// frame each** (see the module docs on determinism), waiting up to
/// [`NetConfig::poll_wait`] for it before reporting idle.
struct NetPartition {
    name: String,
    streams: Vec<String>,
    /// This partition's index into `shared.parts`.
    slot: usize,
    rx: Receiver<Decoded>,
    shared: Arc<ListenerShared>,
    /// Events of the frame currently being emitted.
    pending: VecDeque<SourceEvent>,
    /// The frame's watermark, emitted with its last events.
    pending_wm: Option<Ts>,
    /// The frame's producer-side trace span (wire v2), attached to every
    /// batch that drains the frame's events.
    pending_trace: Option<u64>,
    finished: bool,
    failed: Option<String>,
    poll_wait: StdDuration,
    /// [`NetConfig::silence_limit`].
    silence_limit: Option<StdDuration>,
    /// Last time anything (frame or keepalive) arrived from a claimed
    /// producer; starts when the claim is first observed.
    last_heard: Option<Instant>,
}

impl NetPartition {
    fn check_failures(&mut self) -> Result<()> {
        if let Some(msg) = &self.failed {
            return Err(Error::exec(msg.clone()));
        }
        if let Some(msg) = self
            .shared
            .failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
        {
            self.failed = Some(msg.clone());
            return Err(Error::exec(msg));
        }
        Ok(())
    }

    /// Enforce [`NetConfig::silence_limit`]: once a producer has claimed
    /// this partition, it must keep talking (data or keepalives). Called
    /// when a poll comes up empty.
    fn check_silence(&mut self) -> Result<()> {
        let Some(limit) = self.silence_limit else {
            return Ok(());
        };
        if self.finished || !self.shared.parts[self.slot].claimed.load(Ordering::Acquire) {
            // An unclaimed partition is *waiting*, not silent: no
            // producer has promised liveness yet (or the old one died
            // and a restart is being tolerated).
            self.last_heard = None;
            return Ok(());
        }
        let since = self.last_heard.get_or_insert_with(Instant::now).elapsed();
        if since > limit {
            let msg = format!(
                "{}: producer silent for {since:?} (silence limit {limit:?}); \
                 presumed dead — enable keepalives on the producer if it is \
                 legitimately quiet",
                self.name
            );
            self.failed = Some(msg.clone());
            return Err(Error::exec(msg));
        }
        Ok(())
    }
}

impl Source for NetPartition {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        // First poll: the driver is running, so any checkpoint restore
        // (seek) already happened — release the handshake replies.
        {
            let (lock, cvar) = &self.shared.ready;
            let mut ready = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !*ready {
                *ready = true;
                cvar.notify_all();
            }
        }
        self.check_failures()?;
        if self.finished && self.pending.is_empty() {
            return Ok(SourceBatch::empty(SourceStatus::Finished));
        }
        if self.pending.is_empty() {
            match self.rx.recv_timeout(self.poll_wait) {
                Ok(Decoded::Batch {
                    events,
                    watermark,
                    trace,
                }) => {
                    self.pending.extend(events);
                    self.pending_wm = watermark;
                    self.pending_trace = trace;
                    self.last_heard = Some(Instant::now());
                }
                Ok(Decoded::Keepalive { watermark }) => {
                    // Proof of life; a v2 keepalive may also restate the
                    // producer's watermark (duplicates are absorbed by
                    // the driver's monotone ledger).
                    self.last_heard = Some(Instant::now());
                    let mut batch = SourceBatch::empty(SourceStatus::Idle);
                    batch.watermark = watermark;
                    return Ok(batch);
                }
                Ok(Decoded::Finished) => {
                    self.finished = true;
                    self.last_heard = Some(Instant::now());
                }
                Ok(Decoded::Failed(msg)) => {
                    self.failed = Some(msg.clone());
                    return Err(Error::exec(msg));
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.check_silence()?;
                    return Ok(SourceBatch::empty(SourceStatus::Idle));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let msg = format!("{}: reader threads are gone", self.name);
                    self.failed = Some(msg.clone());
                    return Err(Error::exec(msg));
                }
            }
        }
        let take = max_events.min(self.pending.len());
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        batch.events.extend(self.pending.drain(..take));
        if !batch.events.is_empty() {
            batch.trace_parent = self.pending_trace;
        }
        if self.pending.is_empty() {
            batch.watermark = self.pending_wm.take();
            self.pending_trace = None;
            // The frame is used up. Unless the reader thread has already
            // queued the next one, the next poll waits for the peer (up to
            // `poll_wait`), and `Ready` would promise that it does not.
            batch.status = if self.finished {
                SourceStatus::Finished
            } else if self.rx.is_empty() {
                SourceStatus::Idle
            } else {
                SourceStatus::Ready
            };
        }
        Ok(batch)
    }
}

/// The consumer half of a network pipeline: binds a TCP or unix-socket
/// listener and exposes N partitions, **one per accepted connection** —
/// each producer's handshake claims the partition it feeds.
///
/// Replayability across the process boundary comes from the offset-ack
/// handshake rather than local re-reading: a fresh instance seeked to a
/// checkpointed offset announces that offset in its handshake reply, and
/// the producer's bounded spool (trimmed only by the acks this source
/// sends at checkpoints) replays exactly the missing suffix. See the
/// module docs for the full recovery story.
pub struct PartitionedNetSource {
    inner: PartitionedVec<NetPartition>,
    shared: Arc<ListenerShared>,
    local: NetAddr,
}

impl PartitionedNetSource {
    /// Bind `addr` and accept up to `partitions` producer connections
    /// feeding the declared `streams`. Accepting happens on a background
    /// thread; partitions with no producer yet simply poll as idle.
    pub fn bind(
        addr: NetAddr,
        streams: Vec<String>,
        partitions: usize,
        config: NetConfig,
    ) -> Result<PartitionedNetSource> {
        if partitions == 0 {
            return Err(Error::plan("net source needs at least one partition"));
        }
        if streams.is_empty() {
            return Err(Error::plan("net source declares no streams"));
        }
        let name = format!("net:{addr}");
        let listener = addr
            .bind()
            .map_err(|e| Error::exec(format!("{name}: cannot bind: {e}")))?;
        let local = listener.local_addr(&addr);
        let mut parts = Vec::with_capacity(partitions);
        let mut receivers = Vec::with_capacity(partitions);
        for _ in 0..partitions {
            // Bounded: a producer far ahead of the consumer blocks its
            // reader thread here, pushing backpressure into the socket
            // instead of buffering the whole stream in memory.
            let (tx, rx) = bounded::<Decoded>(256);
            parts.push(PartSlot {
                tx,
                writer: Mutex::new(None),
                claimed: AtomicBool::new(false),
                resume: AtomicU64::new(0),
                finished: AtomicBool::new(false),
                frames: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                connections: AtomicU64::new(0),
            });
            receivers.push(rx);
        }
        let shared = Arc::new(ListenerShared {
            name: name.clone(),
            streams: streams.clone(),
            parts,
            ready: (Mutex::new(false), Condvar::new()),
            failure: Mutex::new(None),
            allow_restart: config.producer_restarts,
            shutdown: AtomicBool::new(false),
        });
        spawn_acceptor(listener, shared.clone());
        let partitions: Vec<NetPartition> = receivers
            .into_iter()
            .enumerate()
            .map(|(p, rx)| NetPartition {
                name: format!("{name}#{p}"),
                streams: streams.clone(),
                slot: p,
                rx,
                shared: shared.clone(),
                pending: VecDeque::new(),
                pending_wm: None,
                pending_trace: None,
                finished: false,
                failed: None,
                poll_wait: config.poll_wait,
                silence_limit: config.silence_limit,
                last_heard: None,
            })
            .collect();
        Ok(PartitionedNetSource {
            inner: PartitionedVec::new(name, partitions)?,
            shared,
            local,
        })
    }

    /// The bound address. For `NetAddr::Tcp` with port 0 this is the
    /// actual ephemeral address producers should connect to.
    pub fn local_addr(&self) -> NetAddr {
        self.local.clone()
    }

    /// Snapshot the per-partition wire telemetry, in partition order.
    pub fn part_stats(&self) -> Vec<NetPartStats> {
        self.shared
            .parts
            .iter()
            .map(|slot| NetPartStats {
                frames: slot.frames.load(Ordering::Acquire),
                bytes: slot.bytes.load(Ordering::Acquire),
                connections: slot.connections.load(Ordering::Acquire),
            })
            .collect()
    }
}

impl WrapsPartitioned for PartitionedNetSource {
    fn parts(&self) -> &dyn PartitionedSource {
        &self.inner
    }

    fn parts_mut(&mut self) -> &mut dyn PartitionedSource {
        &mut self.inner
    }

    /// Seeking records the resume offset the handshake reply announces to
    /// the producer, whose spool replays from there — no local replay.
    /// Only possible before the first poll (the handshake is held back
    /// until then, precisely so a checkpoint restore can land first);
    /// afterwards only the current offset is accepted.
    fn seek_parts(&mut self, partition: usize, offset: u64) -> Result<()> {
        if offset == self.inner.offset(partition) && offset == 0 {
            // Fresh source, fresh start: the default resume of 0 stands.
            return Ok(());
        }
        let started = *self
            .shared
            .ready
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if started {
            if offset == self.inner.offset(partition) {
                return Ok(());
            }
            return Err(Error::exec(format!(
                "{}: partition {partition} is already streaming; a checkpoint \
                 can only be restored into a freshly bound net source",
                self.inner.name()
            )));
        }
        self.shared.parts[partition]
            .resume
            .store(offset, Ordering::Release);
        self.inner.set_offset(partition, offset);
        Ok(())
    }

    /// Forward the checkpoint acknowledgement to the producer as an `ACK`
    /// frame so it can trim its replay spool. Best-effort by design: with
    /// no producer connected (or one that just died) there is nothing to
    /// trim — the handshake's resume offset will catch it up instead —
    /// so transport errors clear the stored writer and succeed.
    fn ack_parts(&mut self, partition: usize, offset: u64) -> Result<()> {
        let slot = &self.shared.parts[partition];
        let mut writer = slot
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(conn) = writer.as_mut() {
            let mut body = Vec::with_capacity(9);
            body.push(KIND_ACK);
            put_u64(&mut body, offset);
            if write_frame(conn, "net ack", &body).is_err() {
                *writer = None;
            }
        }
        Ok(())
    }
}

impl Drop for PartitionedNetSource {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake handshake threads parked on the ready condvar...
        self.shared.ready.1.notify_all();
        // ...and unblock reader threads parked on their sockets.
        for slot in &self.shared.parts {
            if let Some(conn) = slot
                .writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                conn.shutdown();
            }
        }
    }
}

fn spawn_acceptor(listener: NetListener, shared: Arc<ListenerShared>) {
    std::thread::spawn(move || {
        if listener.set_nonblocking(true).is_err() {
            shared.fail(format!("{}: cannot poll the listener", shared.name));
            return;
        }
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Stop polling (and close the listener) once no further
            // accept can ever be useful: with restarts tolerated, that
            // is when every partition has FINISHed; without, one
            // connection per partition per source lifetime suffices.
            let done = if shared.allow_restart {
                shared
                    .parts
                    .iter()
                    .all(|p| p.finished.load(Ordering::Acquire))
            } else {
                shared
                    .parts
                    .iter()
                    .all(|p| p.claimed.load(Ordering::Acquire))
            };
            if done {
                return;
            }
            match listener.accept() {
                Ok(conn) => {
                    let shared = shared.clone();
                    std::thread::spawn(move || serve_connection(conn, shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(StdDuration::from_millis(10));
                }
                Err(_) => {
                    std::thread::sleep(StdDuration::from_millis(20));
                }
            }
        }
    });
}

/// Handshake + frame pump for one accepted connection. Protocol errors
/// before a partition is claimed go to the source-level failure slot;
/// after that they poison the partition's channel. The one exception: a
/// peer that closes cleanly without sending a byte (port scanner, health
/// probe) is dropped silently — it never spoke the protocol, so it
/// cannot have violated it.
fn serve_connection(mut conn: NetConn, shared: Arc<ListenerShared>) {
    let context = shared.name.clone();
    // The handshake must finish within a bounded window, so a source
    // dropped while a connection dangles does not leak this thread
    // forever.
    let _ = conn.set_read_timeout(Some(StdDuration::from_secs(30)));
    match read_preamble(&mut conn, &context) {
        Ok(Preamble::Valid) => {}
        Ok(Preamble::Silent) => {
            conn.shutdown();
            return;
        }
        // A transport death this early claimed nothing: with restarts
        // tolerated the producer's next incarnation simply reconnects,
        // so there is nothing to fail.
        Ok(Preamble::Died(msg)) => {
            if !shared.allow_restart {
                shared.fail(msg);
            }
            conn.shutdown();
            return;
        }
        Err(e) => {
            shared.fail(e.to_string());
            conn.shutdown();
            return;
        }
    }
    let hello = match read_frame_raw(&mut conn, &context) {
        FrameRead::Frame(body) => body,
        // Same classification as the preamble: dying between preamble
        // and HELLO is a dead peer (tolerable), not a wrong one.
        FrameRead::Eof => {
            if !shared.allow_restart {
                shared.fail(format!("{context}: peer closed before HELLO"));
            }
            conn.shutdown();
            return;
        }
        FrameRead::Death(msg) => {
            if !shared.allow_restart {
                shared.fail(msg);
            }
            conn.shutdown();
            return;
        }
        // Corrupt bytes are a wrong peer, restarts or not.
        FrameRead::Corrupt(msg) => {
            shared.fail(msg);
            conn.shutdown();
            return;
        }
    };
    let (partition, declared) = match parse_hello(&hello) {
        Ok(parsed) => parsed,
        Err(e) => {
            shared.fail(format!("{context}: {e}"));
            conn.shutdown();
            return;
        }
    };
    if partition >= shared.parts.len() {
        shared.fail(format!(
            "{context}: peer claims partition {partition}, but only {} exist",
            shared.parts.len()
        ));
        conn.shutdown();
        return;
    }
    if declared != shared.streams {
        shared.fail(format!(
            "{context}: peer declares streams {declared:?}, this source \
             expects {:?}",
            shared.streams
        ));
        conn.shutdown();
        return;
    }
    let slot = &shared.parts[partition];
    if slot.claimed.swap(true, Ordering::AcqRel)
        // A FINISHed partition keeps its claim forever, but a restarted
        // producer may legitimately reconnect to it (it re-publishes its
        // whole deterministic stream): serve it — the resume floor equals
        // the final offset, so nothing replays and its FINISH
        // re-validates against the same count.
        && !(shared.allow_restart && slot.finished.load(Ordering::Acquire))
    {
        // With restarts tolerated, the replacement producer may connect
        // before the dead connection's reader has released the claim:
        // give the release a bounded window before calling it a genuine
        // double-claim.
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let acquired = shared.allow_restart
            && loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    conn.shutdown();
                    return;
                }
                if !slot.claimed.swap(true, Ordering::AcqRel) {
                    break true;
                }
                if shared.allow_restart && slot.finished.load(Ordering::Acquire) {
                    break true; // FINISH raced the wait: serve (above)
                }
                if Instant::now() >= deadline {
                    break false;
                }
                std::thread::sleep(StdDuration::from_millis(5));
            };
        if !acquired {
            shared.fail(format!(
                "{context}: partition {partition} claimed by a second connection"
            ));
            conn.shutdown();
            return;
        }
    }

    // Hold the reply until the consumer driver is running: a checkpoint
    // restore seeks before the first poll, and the resume offset must
    // include it.
    {
        let (lock, cvar) = &shared.ready;
        let mut ready = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*ready {
            if shared.shutdown.load(Ordering::Acquire) {
                conn.shutdown();
                return;
            }
            let (guard, _) = cvar
                .wait_timeout(ready, StdDuration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            ready = guard;
        }
    }
    let resume = slot.resume.load(Ordering::Acquire);
    let tx = slot.tx.clone();
    // Release this connection's claim so a restarted producer can take
    // over mid-stream: record where delivery stopped (the handshake
    // floor for the next connection), drop the ack writer, then free the
    // claim — strictly in that order, since a new connection may claim
    // the instant the flag drops and must read the updated resume.
    let release_for_restart = |expected: u64| {
        slot.resume.store(expected, Ordering::Release);
        *slot
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        slot.claimed.store(false, Ordering::Release);
    };
    match conn.try_clone() {
        Ok(writer) => {
            *slot
                .writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(writer)
        }
        Err(e) => {
            if shared.allow_restart {
                release_for_restart(resume);
            } else {
                let _ = tx.send(Decoded::Failed(format!("{context}: {e}")));
            }
            conn.shutdown();
            return;
        }
    }
    let mut body = Vec::with_capacity(9);
    body.push(KIND_HELLO_ACK);
    put_u64(&mut body, resume);
    if let Err(e) = write_frame(&mut conn, &context, &body) {
        // The producer died before hearing HELLO_ACK: nothing was
        // delivered on this connection, so with restarts tolerated the
        // partition is simply released for its next incarnation.
        if shared.allow_restart {
            release_for_restart(resume);
        } else {
            let _ = tx.send(Decoded::Failed(e.to_string()));
        }
        conn.shutdown();
        return;
    }
    let _ = conn.set_read_timeout(None);

    let context = format!("{context}#{partition}");
    slot.connections.fetch_add(1, Ordering::AcqRel);
    let mut expected = resume;
    loop {
        match read_frame_raw(&mut conn, &context) {
            FrameRead::Frame(body) => {
                slot.frames.fetch_add(1, Ordering::AcqRel);
                slot.bytes.fetch_add(body.len() as u64, Ordering::AcqRel);
                match parse_data_frame(&body, &context, &mut expected, &shared) {
                    Ok(Some(decoded)) => {
                        let finished = matches!(decoded, Decoded::Finished);
                        if tx.send(decoded).is_err() {
                            return; // source dropped
                        }
                        if finished {
                            // Publish the final offset as the resume floor
                            // first, so a restarted producer reconnecting to
                            // this finished partition replays nothing.
                            slot.resume.store(expected, Ordering::Release);
                            slot.finished.store(true, Ordering::Release);
                            return; // writer half stays in the slot for acks
                        }
                    }
                    Ok(None) => {}
                    // An in-frame protocol violation (offset gap, undeclared
                    // stream, FINISH miscount): the producer is *wrong*, not
                    // merely gone — always poison, restarts or not.
                    Err(e) => {
                        let _ = tx.send(Decoded::Failed(e.to_string()));
                        conn.shutdown();
                        return;
                    }
                }
            }
            // Transport-level death — clean close or a failed read. With
            // restarts tolerated the partition is released for the
            // producer's next incarnation (offset continuity is still
            // enforced: its frames must resume at `expected`); otherwise
            // the pipeline poisons.
            FrameRead::Eof => {
                if shared.allow_restart {
                    release_for_restart(expected);
                    return;
                }
                let _ = tx.send(Decoded::Failed(format!(
                    "{context}: producer disconnected before FINISH \
                     (offset {expected})"
                )));
                return;
            }
            FrameRead::Death(msg) => {
                if shared.allow_restart {
                    conn.shutdown();
                    release_for_restart(expected);
                    return;
                }
                let _ = tx.send(Decoded::Failed(msg));
                conn.shutdown();
                return;
            }
            // Corrupt bytes always poison: releasing instead would let a
            // deterministic producer replay the same bad frame forever,
            // stalling the pipeline with zero diagnostics.
            FrameRead::Corrupt(msg) => {
                let _ = tx.send(Decoded::Failed(msg));
                conn.shutdown();
                return;
            }
        }
    }
}

fn parse_hello(body: &[u8]) -> Result<(usize, Vec<String>)> {
    let mut reader = FrameReader::new(body);
    let kind = reader.u8()?;
    if kind != KIND_HELLO {
        return Err(Error::exec(format!(
            "expected HELLO, got frame kind {kind}"
        )));
    }
    let partition = reader.u32()? as usize;
    let nstreams = reader.u16()? as usize;
    let mut streams = Vec::with_capacity(nstreams);
    for _ in 0..nstreams {
        let len = reader.u16()? as usize;
        let bytes = reader.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| Error::exec("malformed HELLO: stream name is not UTF-8"))?;
        streams.push(s.to_string());
    }
    reader.done()?;
    Ok((partition, streams))
}

/// Decode a post-handshake frame into a channel message, enforcing offset
/// continuity. `Ok(None)` means "nothing to forward".
fn parse_data_frame(
    body: &[u8],
    context: &str,
    expected: &mut u64,
    shared: &ListenerShared,
) -> Result<Option<Decoded>> {
    let mut reader = FrameReader::new(body);
    match reader.u8()? {
        KIND_BATCH => {
            let base = reader.u64()?;
            let has_wm = reader.u8()? != 0;
            let wm_millis = reader.i64()?;
            let count = reader.u32()? as usize;
            if base != *expected {
                return Err(Error::exec(format!(
                    "{context}: offset gap — batch starts at {base}, expected \
                     {expected} (events lost or replayed out of order)"
                )));
            }
            // `count` is the peer's claim: reserve no more than a frame can
            // hold, and let the reader refuse a body shorter than it.
            let mut events = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let event = reader.event()?;
                if event.stream as usize >= shared.streams.len() {
                    return Err(Error::exec(format!(
                        "{context}: event references stream index {}, but only \
                         {} streams were declared",
                        event.stream,
                        shared.streams.len()
                    )));
                }
                events.push(SourceEvent {
                    stream: event.stream as usize,
                    ptime: event.ptime,
                    change: Change::with_diff(event.row, event.diff),
                });
            }
            let has_trace = reader.u8()? != 0;
            let span = reader.u64()?;
            let trace = (has_trace && span != 0).then_some(span);
            reader.done()?;
            *expected += count as u64;
            Ok(Some(Decoded::Batch {
                events,
                watermark: has_wm.then_some(Ts(wm_millis)),
                trace,
            }))
        }
        KIND_FINISH => {
            let final_offset = reader.u64()?;
            reader.done()?;
            if final_offset != *expected {
                return Err(Error::exec(format!(
                    "{context}: FINISH claims {final_offset} events, consumer \
                     counted {expected}"
                )));
            }
            Ok(Some(Decoded::Finished))
        }
        KIND_KEEPALIVE => {
            // Proof of life: the payload (the producer's send cursor) is
            // informational and the frame moves no offsets. It may restate
            // the producer's current watermark.
            let _cursor = reader.u64()?;
            let has_wm = reader.u8()? != 0;
            let wm_millis = reader.i64()?;
            reader.done()?;
            Ok(Some(Decoded::Keepalive {
                watermark: has_wm.then_some(Ts(wm_millis)),
            }))
        }
        kind => Err(Error::exec(format!(
            "{context}: unexpected frame kind {kind} after handshake"
        ))),
    }
}

/// The single-partition network source: one listener, one producer
/// connection, a plain [`Source`] for the [`PipelineDriver`].
///
/// A plain [`Source`] has no ack hook for checkpoints to drive, and most
/// consumers of one never checkpoint — holding the producer's spool
/// hostage for them buys nothing. This source therefore **acknowledges
/// as it consumes**: every poll that advances the offset sends an `ACK`,
/// so the producer's bounded spool trims continuously and
/// [`NetPublisher::wait_drained`] completes when the consumer catches
/// up. The price is that a restored consumer has nothing to replay, so
/// the source reports itself not [`replayable`](Source::replayable): a
/// restore past offset 0 is refused (lint OSQL004 warns ahead of time).
/// When crash recovery matters, use
/// [`PartitionedNetSource`], whose acks track durable checkpoints
/// instead.
///
/// [`PipelineDriver`]: onesql_core::driver::PipelineDriver
pub struct NetSource {
    inner: PartitionedNetSource,
    acked: u64,
}

impl NetSource {
    /// Bind `addr` and accept one producer feeding `streams`.
    pub fn bind(addr: NetAddr, streams: Vec<String>, config: NetConfig) -> Result<NetSource> {
        Ok(NetSource {
            inner: PartitionedNetSource::bind(addr, streams, 1, config)?,
            acked: 0,
        })
    }

    /// The bound address (resolves TCP port 0 to the ephemeral port).
    pub fn local_addr(&self) -> NetAddr {
        self.inner.local_addr()
    }

    /// Wire telemetry of the single partition.
    pub fn stats(&self) -> NetPartStats {
        self.inner.part_stats()[0]
    }
}

impl Source for NetSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn streams(&self) -> &[String] {
        self.inner.streams()
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        let batch = self.inner.poll_partition(0, max_events)?;
        // No checkpoints, no replay: consumed == durable. Ack eagerly so
        // the producer's spool stays trimmed over unbounded streams.
        let offset = self.inner.offset(0);
        if offset > self.acked {
            self.inner.ack(0, offset)?;
            self.acked = offset;
        }
        Ok(batch)
    }

    /// Acked on consume: the producer has already trimmed what a restore
    /// would ask it to re-send.
    fn replayable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    fn test_config() -> NetConfig {
        NetConfig {
            batch_events: 4,
            poll_wait: StdDuration::from_millis(200),
            connect_timeout: StdDuration::from_secs(5),
            ..NetConfig::default()
        }
    }

    fn tcp_source(streams: &[&str], partitions: usize) -> PartitionedNetSource {
        PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            streams.iter().map(|s| s.to_string()).collect(),
            partitions,
            test_config(),
        )
        .unwrap()
    }

    /// Raw client: preamble + HELLO for partition 0, then read HELLO_ACK.
    /// Blocks until the source side is polled (which releases the reply).
    fn raw_handshake(addr: &NetAddr, streams: &[&str]) -> NetConn {
        let mut conn = addr.connect().unwrap();
        conn.write_all(&WIRE_MAGIC).unwrap();
        conn.write_all(&WIRE_VERSION.to_le_bytes()).unwrap();
        let mut body = vec![KIND_HELLO];
        put_u32(&mut body, 0);
        put_u16(&mut body, streams.len() as u16);
        for s in streams {
            put_u16(&mut body, s.len() as u16);
            body.extend_from_slice(s.as_bytes());
        }
        write_frame(&mut conn, "test client", &body).unwrap();
        let ack = read_frame(&mut conn, "test client").unwrap().unwrap();
        assert_eq!(ack[0], KIND_HELLO_ACK);
        conn
    }

    /// Poll partition 0 until it errors; panics if it never does.
    fn poll_until_err(source: &mut PartitionedNetSource) -> String {
        for _ in 0..100 {
            if let Err(e) = source.poll_partition(0, 64) {
                return e.to_string();
            }
        }
        panic!("source never surfaced an error");
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_and_event_codec_roundtrip() {
        let event = WireEvent {
            stream: 2,
            ptime: Ts(123_456),
            diff: -3,
            row: row!(
                Value::Null,
                true,
                -42i64,
                1.5f64,
                "héllo\nworld",
                Ts(-7),
                onesql_types::Duration(99)
            ),
        };
        let mut buf = Vec::new();
        put_event(&mut buf, &event);
        let mut reader = FrameReader::new(&buf);
        let decoded = reader.event().unwrap();
        reader.done().unwrap();
        assert_eq!(decoded, event);
    }

    #[test]
    fn nan_floats_survive_the_wire() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Float(f64::NAN));
        let mut reader = FrameReader::new(&buf);
        // Value's Eq is total (bitwise for NaN), so equality holds.
        assert_eq!(reader.value().unwrap(), Value::Float(f64::NAN));
    }

    #[test]
    fn publisher_roundtrip_over_tcp() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
            for i in 0..10i64 {
                publisher.insert(0, Ts(i), row!(i, i * 2)).unwrap();
            }
            publisher.watermark(Ts(9)).unwrap();
            publisher.finish().unwrap();
            publisher.offset()
        });
        let mut events = Vec::new();
        let mut watermark = None;
        for _ in 0..200 {
            let batch = source.poll_partition(0, 3).unwrap();
            events.extend(batch.events);
            if let Some(wm) = batch.watermark {
                watermark = Some(wm);
            }
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        assert_eq!(producer.join().unwrap(), 10);
        assert_eq!(events.len(), 10);
        assert_eq!(source.offset(0), 10);
        assert_eq!(events[3].change.row, row!(3i64, 6i64));
        assert_eq!(watermark, Some(Ts(9)));
    }

    #[test]
    fn ready_is_answered_only_over_a_backlog() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
            // One whole frame, then silence until the consumer says so.
            for i in 0..4i64 {
                publisher.insert(0, Ts(i), row!(i, i)).unwrap();
            }
            wait.recv().unwrap();
            publisher.finish().unwrap();
        });
        let mut polled = Vec::new();
        while polled.len() < 2 {
            let batch = source.poll_partition(0, 3).unwrap();
            if !batch.events.is_empty() {
                polled.push((batch.events.len(), batch.status));
            }
        }
        // The frame's remainder is buffered: the next poll returns it
        // without a look at the socket. Once it is used up and the peer is
        // silent, the next poll would wait out `poll_wait`.
        assert_eq!(polled, [(3, SourceStatus::Ready), (1, SourceStatus::Idle)]);
        go.send(()).unwrap();
        producer.join().unwrap();
    }

    #[test]
    fn any_other_wire_version_is_refused() {
        // 1 is what an old producer announces: nothing writes that
        // dialect any more, so it is refused like 0 or a future version.
        for version in [0u16, 1, 99] {
            let mut source = tcp_source(&["S"], 1);
            let addr = source.local_addr();
            let client = std::thread::spawn(move || {
                let mut conn = addr.connect().unwrap();
                conn.write_all(&WIRE_MAGIC).unwrap();
                conn.write_all(&version.to_le_bytes()).unwrap();
            });
            let err = poll_until_err(&mut source);
            client.join().unwrap();
            let refusal = format!("wire version {version} (this build speaks 2)");
            assert!(err.contains(&refusal), "{err}");
        }
    }

    #[test]
    fn v2_batch_trace_context_reaches_source_batch() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            // Frame 1: trace context present.
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 0);
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, 1);
            put_event(
                &mut body,
                &WireEvent {
                    stream: 0,
                    ptime: Ts(1),
                    diff: 1,
                    row: row!(1i64),
                },
            );
            body.push(1);
            put_u64(&mut body, 0xABC0_0001);
            write_frame(&mut conn, "v2 client", &body).unwrap();
            // Frame 2: trace context absent (flag 0).
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 1);
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, 1);
            put_event(
                &mut body,
                &WireEvent {
                    stream: 0,
                    ptime: Ts(2),
                    diff: 1,
                    row: row!(2i64),
                },
            );
            body.push(0);
            put_u64(&mut body, 0);
            write_frame(&mut conn, "v2 client", &body).unwrap();
            let mut body = vec![KIND_FINISH];
            put_u64(&mut body, 2);
            write_frame(&mut conn, "v2 client", &body).unwrap();
        });
        let mut traces = Vec::new();
        for _ in 0..200 {
            let batch = source.poll_partition(0, 16).unwrap();
            if !batch.events.is_empty() {
                traces.push(batch.trace_parent);
            }
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        client.join().unwrap();
        assert_eq!(traces, vec![Some(0xABC0_0001), None]);
    }

    #[test]
    fn v2_keepalive_carries_watermark() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut body = vec![KIND_KEEPALIVE];
            put_u64(&mut body, 0);
            body.push(1);
            put_i64(&mut body, 777);
            write_frame(&mut conn, "v2 client", &body).unwrap();
            let mut body = vec![KIND_FINISH];
            put_u64(&mut body, 0);
            write_frame(&mut conn, "v2 client", &body).unwrap();
        });
        let mut watermark = None;
        for _ in 0..200 {
            let batch = source.poll_partition(0, 16).unwrap();
            if let Some(wm) = batch.watermark {
                watermark = Some(wm);
            }
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        client.join().unwrap();
        assert_eq!(watermark, Some(Ts(777)));
    }

    #[test]
    fn publisher_keepalive_restates_watermark() {
        // A real publisher's keepalive (wire v2) carries the highest
        // watermark published so far, so an idle producer keeps the
        // consumer's lag attribution alive.
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_producer = stop.clone();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(
                addr,
                0,
                vec!["S".to_string()],
                NetConfig {
                    keepalive: Some(StdDuration::from_millis(10)),
                    ..test_config()
                },
            );
            publisher.insert(0, Ts(5), row!(5i64)).unwrap();
            publisher.watermark(Ts(5)).unwrap();
            publisher.flush().unwrap();
            while !stop_producer.load(Ordering::Acquire) {
                publisher.keepalive().unwrap();
                std::thread::sleep(StdDuration::from_millis(5));
            }
            publisher.finish().unwrap();
        });
        // Drain the data frame, then look for a keepalive-borne
        // watermark on an otherwise idle poll.
        let mut keepalive_wm = None;
        let mut saw_events = 0usize;
        for _ in 0..400 {
            let batch = source.poll_partition(0, 16).unwrap();
            saw_events += batch.events.len();
            if batch.events.is_empty() && batch.watermark == Some(Ts(5)) && saw_events > 0 {
                keepalive_wm = batch.watermark;
                break;
            }
        }
        stop.store(true, Ordering::Release);
        producer.join().unwrap();
        assert_eq!(saw_events, 1);
        assert_eq!(keepalive_wm, Some(Ts(5)));
    }

    #[test]
    fn truncated_length_prefix_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            // Two bytes of a four-byte length prefix, then gone.
            conn.write_all(&[0x05, 0x00]).unwrap();
            conn.shutdown();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("length prefix"), "{err}");
    }

    #[test]
    fn bad_crc_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 0);
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, 0);
            let mut wire = Vec::new();
            put_u32(&mut wire, body.len() as u32);
            wire.extend_from_slice(&body);
            put_u32(&mut wire, crc32(&body) ^ 0xDEAD_BEEF);
            conn.write_all(&wire).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn mid_frame_disconnect_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut wire = Vec::new();
            put_u32(&mut wire, 100); // frame claims 100 bytes...
            wire.extend_from_slice(&[0u8; 10]); // ...but only 10 arrive
            conn.write_all(&wire).unwrap();
            conn.shutdown();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("disconnected mid-frame"), "{err}");
    }

    #[test]
    fn clean_disconnect_before_finish_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let conn = raw_handshake(&addr, &["S"]);
            conn.shutdown(); // frame boundary, but no FINISH was sent
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("before FINISH"), "{err}");
    }

    #[test]
    fn a_batch_claiming_u32_max_events_is_a_short_body() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 0);
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, u32::MAX);
            write_frame(&mut conn, "test client", &body).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("body shorter than its fields"), "{err}");
    }

    proptest::proptest! {
        /// Whatever body a peer sends, HELLO and data-frame decoding answer
        /// `Ok` or `Err` and never panic: raw bytes behind any frame kind,
        /// and BATCH headers claiming any event count.
        #[test]
        fn decoding_arbitrary_bodies_never_panics(
            kind in 0u8..8,
            count in proptest::prelude::any::<u32>(),
            batch_header in proptest::prelude::any::<bool>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let mut body = vec![kind];
            if batch_header {
                body[0] = KIND_BATCH;
                put_u64(&mut body, 0);
                body.push(1);
                put_i64(&mut body, 0);
                put_u32(&mut body, count);
            }
            body.extend_from_slice(&tail);
            let shared = ListenerShared {
                name: "fuzz".to_string(),
                streams: vec!["S".to_string()],
                parts: Vec::new(),
                ready: (Mutex::new(false), Condvar::new()),
                failure: Mutex::new(None),
                allow_restart: false,
                shutdown: AtomicBool::new(false),
            };
            let _ = parse_hello(&body);
            let _ = parse_data_frame(&body, "fuzz", &mut 0, &shared);
        }
    }

    #[test]
    fn offset_gap_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 7); // expected offset is 0
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, 0);
            write_frame(&mut conn, "test client", &body).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("offset gap"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_surfaces_as_error() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut wire = Vec::new();
            put_u32(&mut wire, MAX_FRAME_LEN + 1);
            conn.write_all(&wire).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn wrong_stream_declaration_is_rejected() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = addr.connect().unwrap();
            conn.write_all(&WIRE_MAGIC).unwrap();
            conn.write_all(&WIRE_VERSION.to_le_bytes()).unwrap();
            let mut body = vec![KIND_HELLO];
            put_u32(&mut body, 0);
            put_u16(&mut body, 1);
            put_u16(&mut body, 5);
            body.extend_from_slice(b"Other");
            write_frame(&mut conn, "test client", &body).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("declares streams"), "{err}");
    }

    #[test]
    fn bounded_spool_errors_without_acks() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        // Consumer polls (so the handshake completes and frames drain)
        // but never checkpoints, so no acks ever flow.
        let consumer = std::thread::spawn(move || {
            for _ in 0..400 {
                if source.poll_partition(0, 64).is_err() {
                    break;
                }
                std::thread::sleep(StdDuration::from_millis(1));
            }
        });
        let mut publisher = NetPublisher::new(
            addr,
            0,
            vec!["S".to_string()],
            NetConfig {
                batch_events: 2,
                spool_events: 4,
                ack_wait: StdDuration::from_millis(100),
                ..test_config()
            },
        );
        let mut failed = None;
        for i in 0..64i64 {
            if let Err(e) = publisher.insert(0, Ts(i), row!(i)) {
                failed = Some(e.to_string());
                break;
            }
        }
        let err = failed.expect("spool bound never tripped");
        assert!(err.contains("replay spool full"), "{err}");
        // Closing the producer unblocks the consumer's poll loop (it sees
        // the mid-stream disconnect and stops).
        drop(publisher);
        consumer.join().unwrap();
    }

    #[test]
    fn seek_after_streaming_is_rejected() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
            publisher.insert(0, Ts(0), row!(1i64)).unwrap();
            publisher.finish().unwrap();
        });
        for _ in 0..100 {
            if source.poll_partition(0, 16).unwrap().status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert!(source.seek(0, 1).is_ok(), "current offset is fine");
        let err = source.seek(0, 0).unwrap_err().to_string();
        assert!(err.contains("already streaming"), "{err}");
    }

    #[test]
    fn seek_before_streaming_sets_resume_offset() {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        source.seek(0, 6).unwrap();
        assert_eq!(source.offset(0), 6);
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
            // Publish 10, pretend 6 were consumed pre-crash: the
            // handshake must make the publisher replay only 6..10.
            for i in 0..10i64 {
                publisher.insert(0, Ts(i), row!(i)).unwrap();
            }
            publisher.finish().unwrap();
        });
        let mut events = Vec::new();
        for _ in 0..200 {
            let batch = source.poll_partition(0, 16).unwrap();
            events.extend(batch.events);
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(events.len(), 4, "only the unconsumed suffix replays");
        assert_eq!(events[0].change.row, row!(6i64));
        assert_eq!(source.offset(0), 10);
    }

    #[test]
    fn undelivered_watermark_replays_after_resume() {
        // Regression: a watermark the producer issued right at the
        // consumer's checkpoint offset — but which never reached the
        // consumer (it was waiting to ride the next frame) — must be
        // re-sent after a resume at exactly that offset. An offset-equal
        // watermark is only skippable when the frame that carried it was
        // consumed; this one was never sent at all.
        let dir = std::env::temp_dir().join("onesql_net_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wm-resume-{}.sock", std::process::id()));
        let addr = NetAddr::unix(&path);

        let consumer_died = Arc::new(AtomicBool::new(false));
        let producer = {
            let addr = addr.clone();
            let consumer_died = consumer_died.clone();
            std::thread::spawn(move || {
                let mut publisher = NetPublisher::new(
                    addr,
                    0,
                    vec!["S".to_string()],
                    NetConfig {
                        batch_events: 4,
                        connect_timeout: StdDuration::from_secs(10),
                        ..NetConfig::default()
                    },
                );
                // One full frame of 4 events goes out; the watermark has
                // no frame to ride yet and stays spooled unsent.
                for i in 0..4i64 {
                    publisher.insert(0, Ts(i), row!(i)).unwrap();
                }
                publisher.watermark(Ts(3)).unwrap();
                while !consumer_died.load(Ordering::Acquire) {
                    std::thread::sleep(StdDuration::from_millis(1));
                }
                // finish() notices the dead connection, reconnects to the
                // restored consumer (resume offset 4), and must replay
                // the watermark before FINISH.
                publisher.finish().unwrap();
            })
        };

        let mut first =
            PartitionedNetSource::bind(addr.clone(), vec!["S".to_string()], 1, test_config())
                .unwrap();
        let mut consumed = 0;
        while consumed < 4 {
            consumed += first.poll_partition(0, 16).unwrap().events.len();
        }
        assert_eq!(first.offset(0), 4);
        drop(first); // the crash, checkpointed at offset 4
        let mut restored =
            PartitionedNetSource::bind(addr, vec!["S".to_string()], 1, test_config()).unwrap();
        restored.seek(0, 4).unwrap();
        consumer_died.store(true, Ordering::Release);

        let mut watermark = None;
        for _ in 0..200 {
            let batch = restored.poll_partition(0, 16).unwrap();
            assert!(batch.events.is_empty(), "no events were outstanding");
            if let Some(wm) = batch.watermark {
                watermark = Some(wm);
            }
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(
            watermark,
            Some(Ts(3)),
            "the undelivered watermark must replay on resume"
        );
    }

    #[test]
    fn plain_net_source_acks_as_it_consumes() {
        // Nothing checkpoints through a plain Source, so NetSource acks eagerly:
        // a producer's wait_drained must complete (and its spool trim)
        // without any checkpoint in the picture.
        let mut source = NetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            test_config(),
        )
        .unwrap();
        let addr = source.local_addr();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(
                addr,
                0,
                vec!["S".to_string()],
                NetConfig {
                    batch_events: 2,
                    spool_events: 8, // far fewer than the 64 events sent
                    ..test_config()
                },
            );
            for i in 0..64i64 {
                publisher.insert(0, Ts(i), row!(i)).unwrap();
            }
            publisher.finish().unwrap();
            publisher.wait_drained(StdDuration::from_secs(10)).unwrap();
            publisher.acked()
        });
        let mut events = 0;
        for _ in 0..400 {
            let batch = source.poll_batch(16).unwrap();
            events += batch.events.len();
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        assert_eq!(events, 64);
        assert_eq!(producer.join().unwrap(), 64, "drained without checkpoints");
    }

    #[test]
    fn silent_claimed_producer_trips_silence_limit() {
        // A producer that handshakes and then says nothing must become
        // an error once silence_limit elapses — that is what makes a
        // hung producer distinguishable from a merely quiet one.
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            1,
            NetConfig {
                poll_wait: StdDuration::from_millis(50),
                silence_limit: Some(StdDuration::from_millis(250)),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let conn = raw_handshake(&addr, &["S"]);
            std::thread::sleep(StdDuration::from_secs(3));
            conn.shutdown();
        });
        let err = poll_until_err(&mut source);
        assert!(err.contains("silent"), "{err}");
        assert!(err.contains("presumed dead"), "{err}");
        client.join().unwrap();
    }

    #[test]
    fn keepalives_keep_a_quiet_producer_alive() {
        // The same silence limit, but the producer sends KEEPALIVE
        // frames while it has nothing to say: no error, and the data it
        // eventually sends arrives normally. The quiet phase holds a
        // *partial* data frame (1 event < batch_events) — buffered bytes
        // the consumer has never seen must not suppress keepalives.
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            1,
            NetConfig {
                poll_wait: StdDuration::from_millis(50),
                silence_limit: Some(StdDuration::from_millis(400)),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = source.local_addr();
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(
                addr,
                0,
                vec!["S".to_string()],
                NetConfig {
                    keepalive: Some(StdDuration::from_millis(50)),
                    ..test_config() // batch_events = 4
                },
            );
            // Announce first (connection + claim), then buffer one
            // event of an unclosed frame.
            publisher.keepalive().unwrap();
            publisher.insert(0, Ts(0), row!(0i64)).unwrap();
            // Quiet for well past the silence limit, but heartbeating,
            // with the partial frame still buffered.
            let quiet_until = Instant::now() + StdDuration::from_millis(900);
            while Instant::now() < quiet_until {
                publisher.keepalive().unwrap();
                std::thread::sleep(StdDuration::from_millis(20));
            }
            for i in 1..4i64 {
                publisher.insert(0, Ts(i), row!(i)).unwrap();
            }
            publisher.finish().unwrap();
        });
        let mut events = 0;
        for _ in 0..400 {
            let batch = source.poll_partition(0, 16).unwrap();
            events += batch.events.len();
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(events, 4, "the deferred events still arrived");
    }

    #[test]
    fn corruption_poisons_even_with_producer_restarts() {
        // Restart tolerance forgives dead peers, never wrong ones: a
        // corrupt frame must poison, or a deterministic producer would
        // replay the same bad bytes forever with zero diagnostics.
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            1,
            NetConfig {
                producer_restarts: true,
                ..test_config()
            },
        )
        .unwrap();
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = raw_handshake(&addr, &["S"]);
            let mut body = vec![KIND_BATCH];
            put_u64(&mut body, 0);
            body.push(0);
            put_i64(&mut body, 0);
            put_u32(&mut body, 0);
            let mut wire = Vec::new();
            put_u32(&mut wire, body.len() as u32);
            wire.extend_from_slice(&body);
            put_u32(&mut wire, crc32(&body) ^ 0xBAD_C0DE);
            conn.write_all(&wire).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        assert!(err.contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn producer_restart_resumes_at_delivered_offset() {
        // With producer_restarts, a producer that dies mid-stream
        // releases its partition; its restarted (deterministic)
        // incarnation re-publishes from the start and the handshake
        // floor drops everything already delivered.
        let config = NetConfig {
            producer_restarts: true,
            ..test_config()
        };
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            1,
            config,
        )
        .unwrap();
        let addr = source.local_addr();
        // Incarnation 1: exactly one full frame (batch_events = 4),
        // then killed without FINISH.
        let first = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut publisher =
                    NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
                for i in 0..4i64 {
                    publisher.insert(0, Ts(i), row!(i)).unwrap();
                }
                // Dropped here: the crash.
            })
        };
        let mut events = Vec::new();
        while events.len() < 4 {
            events.extend(source.poll_partition(0, 16).unwrap().events);
        }
        first.join().unwrap();

        // Incarnation 2: regenerates the whole stream and finishes.
        let second = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut publisher =
                    NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
                for i in 0..8i64 {
                    publisher.insert(0, Ts(i), row!(i)).unwrap();
                }
                publisher.finish().unwrap();
            })
        };
        for _ in 0..400 {
            let batch = source.poll_partition(0, 16).unwrap();
            events.extend(batch.events);
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        second.join().unwrap();
        let values: Vec<i64> = events
            .iter()
            .map(|e| e.change.row.value(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(
            values,
            (0..8).collect::<Vec<i64>>(),
            "already-delivered events must not replay, later ones must"
        );
        assert_eq!(source.offset(0), 8);
    }

    #[test]
    fn restarted_producer_reconnecting_to_finished_partition_is_served() {
        // A producer FINISHes partition 0 but dies with partition 1
        // mid-stream; its restarted incarnation re-publishes its whole
        // deterministic stream — *including* the already-finished
        // partition 0. That reconnect must be served (floor == final
        // offset, FINISH re-validates), not treated as a double-claim
        // that poisons the still-streaming partition 1.
        let config = NetConfig {
            producer_restarts: true,
            ..test_config()
        };
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            2,
            config,
        )
        .unwrap();
        let addr = source.local_addr();
        let first = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut p0 =
                    NetPublisher::new(addr.clone(), 0, vec!["S".to_string()], test_config());
                let mut p1 = NetPublisher::new(addr, 1, vec!["S".to_string()], test_config());
                for i in 0..4i64 {
                    p0.insert(0, Ts(i), row!(i)).unwrap();
                }
                p0.finish().unwrap();
                for i in 0..4i64 {
                    p1.insert(0, Ts(i), row!(i)).unwrap();
                }
                // p1 never finishes: the whole producer dies here.
            })
        };
        let (mut done0, mut got1) = (false, 0usize);
        while !done0 || got1 < 4 {
            let b0 = source.poll_partition(0, 16).unwrap();
            done0 |= b0.status == SourceStatus::Finished;
            got1 += source.poll_partition(1, 16).unwrap().events.len();
        }
        first.join().unwrap();

        // The restart: republish everything on both partitions.
        let second = std::thread::spawn(move || {
            let mut p0 = NetPublisher::new(addr.clone(), 0, vec!["S".to_string()], test_config());
            let mut p1 = NetPublisher::new(addr, 1, vec!["S".to_string()], test_config());
            for i in 0..4i64 {
                p0.insert(0, Ts(i), row!(i)).unwrap();
            }
            p0.finish().unwrap();
            for i in 0..8i64 {
                p1.insert(0, Ts(i), row!(i)).unwrap();
            }
            p1.finish().unwrap();
            (p0.acked(), p1.acked())
        });
        let mut events1 = got1;
        for _ in 0..400 {
            let batch = source.poll_partition(1, 16).unwrap();
            events1 += batch.events.len();
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        let (acked0, _acked1) = second.join().unwrap();
        assert_eq!(acked0, 4, "floor covered partition 0's replay");
        assert_eq!(events1, 8, "partition 1 resumed at its delivered offset");
        // Partition 0 is still cleanly finished — nothing replayed, no
        // poison anywhere.
        let batch = source.poll_partition(0, 16).unwrap();
        assert_eq!(batch.status, SourceStatus::Finished);
        assert!(batch.events.is_empty());
        assert_eq!(source.offset(0), 4);
        assert_eq!(source.offset(1), 8);
    }

    #[test]
    fn handshake_window_death_tolerated_with_producer_restarts() {
        // A producer killed between the preamble and HELLO (or before
        // hearing HELLO_ACK) claimed nothing durable; with restarts
        // tolerated its next incarnation must simply work — no poison.
        let mut source = PartitionedNetSource::bind(
            NetAddr::tcp("127.0.0.1:0"),
            vec!["S".to_string()],
            1,
            NetConfig {
                producer_restarts: true,
                ..test_config()
            },
        )
        .unwrap();
        let addr = source.local_addr();
        {
            // Dies right after the preamble.
            let mut conn = addr.connect().unwrap();
            conn.write_all(&WIRE_MAGIC).unwrap();
            conn.write_all(&WIRE_VERSION.to_le_bytes()).unwrap();
            conn.shutdown();
        }
        std::thread::sleep(StdDuration::from_millis(50));
        let producer = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut publisher =
                    NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
                publisher.insert(0, Ts(0), row!(1i64)).unwrap();
                publisher.finish().unwrap();
            })
        };
        let mut events = 0;
        for _ in 0..200 {
            let batch = source.poll_partition(0, 16).unwrap();
            events += batch.events.len();
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(events, 1, "the restarted producer streams normally");
    }

    #[test]
    fn zero_byte_probe_connection_is_ignored() {
        // A port scanner / health probe connects and closes without
        // sending a byte: the pipeline must shrug, not poison.
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        {
            let probe = addr.connect().unwrap();
            probe.shutdown();
        }
        // Give the reader thread time to observe the clean close.
        std::thread::sleep(StdDuration::from_millis(50));
        let producer = std::thread::spawn(move || {
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
            publisher.insert(0, Ts(0), row!(1i64)).unwrap();
            publisher.finish().unwrap();
        });
        let mut events = 0;
        for _ in 0..200 {
            let batch = source.poll_partition(0, 16).unwrap();
            events += batch.events.len();
            if batch.status == SourceStatus::Finished {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(events, 1, "the real producer still works after a probe");
    }
}
