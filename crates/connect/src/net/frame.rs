//! Framing: addresses, connections and listeners behind one face, the
//! `BATCH` frame codec over `onesql_tvr::lanes`, and reading and writing
//! whole frames.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration as StdDuration;

use onesql_core::connect::SourceColumns;
use onesql_tvr::lanes::{self, RunWriter};
use onesql_tvr::ChangeBatch;
use onesql_types::{Error, Result, Ts};

use super::{crc32, KIND_BATCH, KIND_HELLO, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};

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

    pub(super) fn connect(&self) -> std::io::Result<NetConn> {
        match self {
            NetAddr::Tcp(addr) => TcpStream::connect(addr.as_str()).map(NetConn::Tcp),
            NetAddr::Unix(path) => UnixStream::connect(path).map(NetConn::Unix),
        }
    }

    pub(super) fn bind(&self) -> std::io::Result<NetListener> {
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

pub(super) enum NetConn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl NetConn {
    pub(super) fn try_clone(&self) -> std::io::Result<NetConn> {
        match self {
            NetConn::Tcp(s) => s.try_clone().map(NetConn::Tcp),
            NetConn::Unix(s) => s.try_clone().map(NetConn::Unix),
        }
    }

    pub(super) fn shutdown(&self) {
        let _ = match self {
            NetConn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            NetConn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    pub(super) fn set_read_timeout(&self, dur: Option<StdDuration>) -> std::io::Result<()> {
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

pub(super) enum NetListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl NetListener {
    pub(super) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            NetListener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    pub(super) fn accept(&self) -> std::io::Result<NetConn> {
        match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetConn::Tcp(s)),
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetConn::Unix(s)),
        }
    }

    pub(super) fn local_addr(&self, bound: &NetAddr) -> NetAddr {
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
// BATCH frames: events as lane-codec runs (`onesql_tvr::lanes`).
// ---------------------------------------------------------------------------

pub(super) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(super) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A frame body of `kind` and one offset: `HELLO_ACK`, `ACK`, `FINISH`.
pub(super) fn offset_body(kind: u8, offset: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(9);
    body.push(kind);
    put_u64(&mut body, offset);
    body
}

/// The `HELLO` body: the partition a connection claims and the streams it
/// feeds.
pub(super) fn hello_body(partition: u32, streams: &[String]) -> Vec<u8> {
    let mut body = vec![KIND_HELLO];
    put_u32(&mut body, partition);
    put_u16(&mut body, streams.len() as u16);
    for stream in streams {
        put_u16(&mut body, stream.len() as u16);
        body.extend_from_slice(stream.as_bytes());
    }
    body
}

/// An optional field as the wire writes it: a `u8` flag and the value, or
/// zeros.
pub(super) fn put_flagged(buf: &mut Vec<u8>, v: Option<i64>) {
    buf.push(u8::from(v.is_some()));
    put_i64(buf, v.unwrap_or(0));
}

/// Soft cap on a frame body the producer assembles: comfortably inside
/// [`MAX_FRAME_LEN`] so legal data can never produce a frame the consumer
/// rejects as corruption. Frames close early when the next event would
/// cross it — a deterministic function of the event stream, so the
/// determinism contract is unaffected.
pub(super) const FRAME_BODY_SOFT_CAP: usize = (MAX_FRAME_LEN as usize) - 4096;

/// What a BATCH body's fixed fields take: kind, base offset, watermark,
/// event and run counts, trace context.
const BATCH_FIXED: usize = 1 + 8 + 9 + 4 + 2 + 9;

/// What one run adds to a body beyond its events: its stream, and its
/// header and column headers.
fn run_overhead(arity: usize) -> usize {
    2 + lanes::run_bound(arity, 0, 0)
}

/// What an event adds to a body beyond its values' [`lanes::value_len`]s:
/// [`lanes::ROW_BOUND`] and its order-lane slot.
const EVENT_OVERHEAD: usize = lanes::ROW_BOUND + 2;

/// A `BATCH` frame being filled: one lane-codec run per (stream, arity),
/// in order of first arrival, the order lane that interleaves them, and
/// the frame's watermark. Writers are kept from frame to frame, so a
/// publisher in a steady state encodes without allocating.
#[derive(Default)]
pub(super) struct FrameBuilder {
    runs: Vec<(u16, RunWriter)>,
    /// Each run's index in `runs`, by (stream, arity).
    index: HashMap<(u16, usize), usize>,
    /// Writers of earlier frames, kept for their buffers.
    spare: Vec<RunWriter>,
    /// Per event, the index of its run.
    order: Vec<u16>,
    /// The run the last event went to.
    last: usize,
    /// The highest watermark asserted while the frame was open.
    pub(super) watermark: Option<Ts>,
    /// The highest ptime so far: a later event's is raised to it, so a
    /// frame's ptimes never fall in arrival order.
    clock: Option<Ts>,
    /// A bound on the encoded body beyond [`BATCH_FIXED`].
    bytes: usize,
}

impl FrameBuilder {
    /// Events in the frame.
    pub(super) fn events(&self) -> usize {
        self.order.len()
    }

    /// Whether the frame holds neither an event nor a watermark.
    pub(super) fn is_empty(&self) -> bool {
        self.order.is_empty() && self.watermark.is_none()
    }

    /// A bound on the body this frame encodes to.
    pub(super) fn bound(&self) -> usize {
        BATCH_FIXED + self.bytes
    }

    /// Whether [`FrameBuilder::bound`] stays within
    /// [`FRAME_BODY_SOFT_CAP`] with `n` more events of `arity` columns
    /// whose values' [`lanes::value_len`]s sum to `values`.
    pub(super) fn fits(&self, arity: usize, n: usize, values: usize) -> bool {
        self.bound() + run_overhead(arity) + n * EVENT_OVERHEAD + values <= FRAME_BODY_SOFT_CAP
    }

    /// Raise the frame's watermark to `wm`.
    pub(super) fn watermark(&mut self, wm: Ts) {
        self.watermark = Some(self.watermark.map_or(wm, |prev| prev.max(wm)));
    }

    /// Append `times.len()` events of `stream` with `arity` columns, each
    /// at its `(ptime, diff)`: `cells` pushes all their values into the
    /// run, whose [`lanes::value_len`]s sum to `values`.
    pub(super) fn push(
        &mut self,
        stream: u16,
        arity: usize,
        times: &[(Ts, i64)],
        values: usize,
        cells: impl FnOnce(&mut RunWriter),
    ) -> Result<()> {
        let fits = |(s, run): &(u16, RunWriter)| *s == stream && run.arity() == arity;
        if !self.runs.get(self.last).is_some_and(fits) {
            self.last = match self.index.get(&(stream, arity)) {
                Some(&r) => r,
                // The run count and the order lane's indices are u16s.
                None if self.runs.len() >= usize::from(u16::MAX) => {
                    return Err(Error::exec(format!(
                        "a frame mixes more than {} (stream, arity) pairs",
                        u16::MAX
                    )))
                }
                None => {
                    let mut run = self.spare.pop().unwrap_or_default();
                    run.reset(arity);
                    self.runs.push((stream, run));
                    self.index.insert((stream, arity), self.runs.len() - 1);
                    self.bytes += run_overhead(arity);
                    self.runs.len() - 1
                }
            };
        }
        let run = &mut self.runs[self.last].1;
        cells(run);
        for &(ptime, diff) in times {
            let ptime = self.clock.map_or(ptime, |clock| clock.max(ptime));
            self.clock = Some(ptime);
            run.end_row(ptime, diff);
        }
        self.order
            .resize(self.order.len() + times.len(), self.last as u16);
        self.bytes += times.len() * EVENT_OVERHEAD + values;
        Ok(())
    }

    /// Append the frame's `BATCH` body, as it starts at `base` and was put
    /// together under the producer-side span `trace` (0: none), to `out`;
    /// the builder is left empty.
    pub(super) fn encode(&mut self, base: u64, trace: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.bound());
        out.push(KIND_BATCH);
        put_u64(out, base);
        put_flagged(out, self.watermark.take().map(Ts::millis));
        put_u32(out, self.order.len() as u32);
        put_u16(out, self.runs.len() as u16);
        for (stream, run) in &self.runs {
            put_u16(out, *stream);
            run.encode_into(out);
        }
        if self.runs.len() > 1 {
            for &r in &self.order {
                put_u16(out, r);
            }
        }
        // The trace context: the span current on the producer when the
        // frame closed (the driver's emit span, for a sink write); 0 when
        // tracing is off or the root was unsampled, shipped as "absent"
        // so the consumer never parents onto a span nobody recorded.
        put_flagged(out, (trace != 0).then_some(trace as i64));
        debug_assert!(out.len() - start <= self.bound());
        self.spare.extend(self.runs.drain(..).map(|(_, run)| run));
        self.index.clear();
        self.order.clear();
        self.last = 0;
        self.clock = None;
        self.bytes = 0;
    }

    /// Refill an empty builder with `frame`'s events from the `skip`-th on
    /// (in arrival order) and its watermark.
    pub(super) fn refill(&mut self, frame: &BatchFrame, skip: usize) -> Result<()> {
        let batches = frame.columns.batches();
        let mut next = vec![0usize; batches.len()];
        for k in 0..frame.columns.len() {
            let b = frame
                .columns
                .order()
                .map_or(0, |order| usize::from(order[k]));
            let (stream, batch) = &batches[b];
            let i = next[b];
            next[b] += 1;
            if k < skip {
                continue;
            }
            let at = batch.phys(i);
            let values = batch.columns().iter().map(|c| lanes::cell_len(c, at)).sum();
            let times = [(batch.ptime(i), batch.diff(i))];
            self.push(*stream as u16, batch.arity(), &times, values, |run| {
                for (c, column) in batch.columns().iter().enumerate() {
                    run.push_cell(c, column, at);
                }
            })?;
        }
        self.watermark = frame.watermark;
        Ok(())
    }
}

/// A decoded `BATCH` frame.
pub(super) struct BatchFrame {
    pub(super) watermark: Option<Ts>,
    /// Its events: a dense batch per (stream, arity), interleaved by the
    /// order lane; ptimes never fall in arrival order.
    pub(super) columns: SourceColumns,
    /// The producer-side span it was put together under.
    pub(super) trace: Option<u64>,
}

/// Decode a `BATCH` body whose kind byte `reader` has read; the base offset
/// is the caller's to check. Counts are checked against the bytes left
/// before anything is sized by them.
pub(super) fn parse_batch(reader: &mut FrameReader<'_>) -> Result<BatchFrame> {
    reader.u64()?;
    let has_wm = reader.u8()? != 0;
    let wm = reader.i64()?;
    let events = reader.u32()? as usize;
    let runs = reader.u16()? as usize;
    if (runs == 0) != (events == 0) {
        return Err(Error::exec(format!(
            "malformed frame: {events} events in {runs} runs"
        )));
    }
    let mut batches = Vec::with_capacity(runs.min(reader.left() / 2));
    let mut rows = 0usize;
    for _ in 0..runs {
        let stream = usize::from(reader.u16()?);
        let batch = reader.run()?;
        if batch.is_empty() {
            return Err(Error::exec("malformed frame: an empty run"));
        }
        rows += batch.len();
        batches.push((stream, batch));
    }
    if rows != events {
        return Err(Error::exec(format!(
            "malformed frame: runs hold {rows} events, the header says {events}"
        )));
    }
    let columns = if runs > 1 {
        let lane = reader.take(events * 2)?;
        let order = lane
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .collect();
        SourceColumns::interleaved(batches, order)?
    } else {
        batches
            .pop()
            .map_or_else(SourceColumns::default, |(s, b)| SourceColumns::single(s, b))
    };
    check_ptimes(&columns)?;
    let has_trace = reader.u8()? != 0;
    let span = reader.u64()?;
    reader.done()?;
    Ok(BatchFrame {
        watermark: has_wm.then_some(Ts(wm)),
        columns,
        trace: (has_trace && span != 0).then_some(span),
    })
}

/// Refuse interleaved runs whose ptimes fall in arrival order, against
/// [`SourceColumns`]' contract: a writer raises them as it goes
/// ([`FrameBuilder`]), and each run's come decoded that way.
fn check_ptimes(columns: &SourceColumns) -> Result<()> {
    let (Some(order), batches) = (columns.order(), columns.batches()) else {
        return Ok(());
    };
    let mut next = vec![0usize; batches.len()];
    let mut clock = Ts::MIN;
    for &b in order {
        let b = usize::from(b);
        let ptime = batches[b].1.ptime(next[b]);
        next[b] += 1;
        if ptime < clock {
            return Err(Error::exec("malformed frame: ptimes fall between runs"));
        }
        clock = ptime;
    }
    Ok(())
}

/// A bounds-checked little-endian reader over a frame body.
pub(super) struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    pub(super) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| Error::exec("malformed frame: body shorter than its fields"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(super) fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(super) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    pub(super) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    pub(super) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub(super) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub(super) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// One lane-codec run.
    fn run(&mut self) -> Result<ChangeBatch> {
        let mut rest = &self.buf[self.pos..];
        let batch = lanes::decode_run(&mut rest)
            .map_err(|e| Error::exec(format!("malformed frame: {e}")))?;
        self.pos = self.buf.len() - rest.len();
        Ok(batch)
    }

    pub(super) fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::exec("malformed frame: trailing bytes after payload"))
        }
    }
}

pub(super) fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::exec(format!("{context}: {e}"))
}

/// Close a frame assembled in `wire` behind four reserved bytes: fill in
/// the body's length and append its CRC, giving `len | body | crc32(body)`.
pub(super) fn seal_frame(wire: &mut Vec<u8>) {
    let len = (wire.len() - 4) as u32;
    wire[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&wire[4..]);
    put_u32(wire, crc);
}

/// Put a sealed frame on the wire.
pub(super) fn write_wire(conn: &mut NetConn, context: &str, wire: &[u8]) -> Result<()> {
    conn.write_all(wire)
        .and_then(|()| conn.flush())
        .map_err(|e| io_err(context, e))
}

/// Write one frame: `len | body | crc32(body)`.
pub(super) fn write_frame(conn: &mut NetConn, context: &str, body: &[u8]) -> Result<()> {
    let mut wire = Vec::with_capacity(body.len() + 8);
    wire.extend_from_slice(&[0; 4]);
    wire.extend_from_slice(body);
    seal_frame(&mut wire);
    write_wire(conn, context, &wire)
}

/// How reading one frame ended, classified so restart-tolerant readers
/// can tell a *dead* peer (transport gone) from a *wrong* one (bytes
/// arrived but are corrupt).
pub(super) enum FrameRead {
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
pub(super) fn read_frame_raw(conn: &mut NetConn, context: &str) -> FrameRead {
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
pub(super) fn read_frame(conn: &mut NetConn, context: &str) -> Result<Option<Vec<u8>>> {
    match read_frame_raw(conn, context) {
        FrameRead::Frame(body) => Ok(Some(body)),
        FrameRead::Eof => Ok(None),
        FrameRead::Death(msg) | FrameRead::Corrupt(msg) => Err(Error::exec(msg)),
    }
}

/// How a connection preamble read ended. Protocol violations (bad
/// magic, wrong version) stay `Err`: the peer *spoke* and got it wrong.
pub(super) enum Preamble {
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
pub(super) fn read_preamble(conn: &mut NetConn, context: &str) -> Result<Preamble> {
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
