//! The writer side: [`NetPublisher`] and [`NetSink`].

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use onesql_core::connect::Sink;
use onesql_core::observe;
use onesql_exec::{Cells, StreamBatch, StreamRow};
use onesql_time::Watermark;
use onesql_tvr::lanes::{self, RunWriter};
use onesql_tvr::Change;
use onesql_types::{Error, Result, Row, Ts, Value};

use super::frame::*;
use super::*;

/// A closed frame in the producer's replay spool: its bytes as they go on
/// the wire (`len | body | crc`), kept until the consumer acknowledges
/// every event in it. A resume at a frame boundary re-sends them as they
/// are; only a resume inside a frame decodes it and re-encodes the rest.
struct SpooledFrame {
    /// The offset of its first event.
    base: u64,
    events: u64,
    /// The watermark it carries, applied after its events: the consumer
    /// has seen it iff it consumed the whole frame.
    watermark: Option<Ts>,
    /// Whether it went out on some connection: one that never did cannot
    /// have been consumed, whatever the resume offset says.
    sent: bool,
    wire: Vec<u8>,
}

impl SpooledFrame {
    fn end(&self) -> u64 {
        self.base + self.events
    }

    /// What the spool bound counts it as: its events, and a watermark-only
    /// frame as one.
    fn weight(&self) -> usize {
        (self.events as usize).max(1)
    }

    fn decode(&self) -> Result<BatchFrame> {
        let mut reader = FrameReader::new(&self.wire[4..self.wire.len() - 4]);
        reader.u8()?;
        parse_batch(&mut reader)
    }
}

/// Spare frame buffers kept for reuse, at most.
const SPARE_FRAMES: usize = 8;

/// The producer half of a network pipeline: connects to a
/// [`PartitionedNetSource`] (or [`NetSource`]) and pushes events,
/// watermarks, and end-of-stream for **one** partition.
///
/// Events go straight into the typed lanes of the open frame; a frame
/// closes at [`NetConfig::batch_events`] events (or the byte cap), is
/// encoded once, and its bytes are what goes on the wire and into the
/// replay spool. Watermarks ride the frame that is open when they are
/// asserted.
///
/// Exactly-once machinery: every frame sent is retained in a bounded spool
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
    /// `net publisher <addr>#<partition>`, for errors.
    context: String,
    conn: Option<NetConn>,
    /// Set by the ack-reader thread when its connection dies.
    conn_dead: Arc<AtomicBool>,
    /// Highest offset the consumer has acknowledged (monotone).
    acked: Arc<AtomicU64>,
    /// Closed frames not yet acknowledged, oldest first.
    spool: VecDeque<SpooledFrame>,
    /// Trailing spool frames not yet written to the current connection.
    unsent: usize,
    /// The spool's weight plus the open frame's events: what
    /// [`NetConfig::spool_events`] bounds.
    spooled: usize,
    /// The frame being filled; its events are the last `events()` offsets.
    open: FrameBuilder,
    /// Buffers of trimmed frames, for the next ones.
    spare: Vec<Vec<u8>>,
    /// Offset the next appended event will get.
    next_offset: u64,
    /// `finish` was called; replays re-send the FINISH frame too.
    finished: bool,
    /// FINISH has been written to the *current* connection.
    finish_sent: bool,
    /// When the last KEEPALIVE frame went out.
    last_keepalive: Option<Instant>,
    /// Highest watermark published so far; carried on KEEPALIVE frames
    /// so consumer-side lag attribution survives idle stretches.
    last_wm: Option<Ts>,
    /// Telemetry; see [`NetPublisherStats`].
    stats: NetPublisherStats,
    /// The `(ptime, diff)` of the events [`NetPublisher::append_entries`]
    /// is gathering, kept for its buffer.
    times: Vec<(Ts, i64)>,
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
    /// Events a reconnect rewound for re-sending: how much work
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
            context: format!("net publisher {addr}#{partition}"),
            addr,
            partition: partition as u32,
            streams,
            config,
            conn: None,
            conn_dead: Arc::new(AtomicBool::new(false)),
            acked: Arc::new(AtomicU64::new(0)),
            spool: VecDeque::new(),
            unsent: 0,
            spooled: 0,
            open: FrameBuilder::default(),
            spare: Vec::new(),
            next_offset: 0,
            finished: false,
            finish_sent: false,
            last_keepalive: None,
            last_wm: None,
            stats: NetPublisherStats::default(),
            times: Vec::new(),
        }
    }

    /// The offset the next event will be assigned (== events published).
    pub fn offset(&self) -> u64 {
        self.next_offset
    }

    /// Wire telemetry so far: frames/bytes written, connections made,
    /// events replayed by reconnects.
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
        self.append_row(stream, ptime, change.diff, change.row.values())
    }

    /// Insert `row` on `stream` at `ptime` (diff `+1`).
    pub fn insert(&mut self, stream: usize, ptime: Ts, row: Row) -> Result<()> {
        self.append_row(stream, ptime, 1, row.values())
    }

    /// Publish one change whose values are `values`.
    fn append_row(&mut self, stream: usize, ptime: Ts, diff: i64, values: &[Value]) -> Result<()> {
        let bytes = values.iter().map(lanes::value_len).sum();
        self.append(stream, values.len(), &[(ptime, diff)], bytes, |run| {
            for (c, value) in values.iter().enumerate() {
                run.push_value(c, value);
            }
        })
    }

    /// Publish row `i` of `batch` on `stream` and as many rows after it as
    /// are the next entries of the same columns and fit the open frame,
    /// their values copied column by column; how many.
    fn append_entries(
        &mut self,
        stream: usize,
        batch: &StreamBatch<'_>,
        i: usize,
    ) -> Result<usize> {
        let diff = |undo: bool| if undo { -1 } else { 1 };
        let first = batch.get(i);
        let (columns, at) = match first.cells {
            Cells::Columns(columns, at) => (columns, at),
            Cells::Row(row) => {
                let diff = diff(first.undo);
                return self
                    .append_row(stream, first.ptime, diff, row.values())
                    .map(|()| 1);
            }
        };
        let room = self.config.batch_events.saturating_sub(self.open.events());
        let mut times = std::mem::take(&mut self.times);
        times.clear();
        times.push((first.ptime, diff(first.undo)));
        while times.len() < room && i + times.len() < batch.len() {
            let next = batch.get(i + times.len());
            match next.cells {
                Cells::Columns(c, a) if std::ptr::eq(c, columns) && a == at + times.len() => {
                    times.push((next.ptime, diff(next.undo)));
                }
                _ => break,
            }
        }
        let n = times.len();
        let bytes = columns.iter().map(|c| lanes::range_len(c, at, n)).sum();
        // One copy per column, unless the events must go one at a time.
        let result = if n == 1 || self.takes(stream, columns.len(), n, bytes) {
            self.append(stream, columns.len(), &times, bytes, |run| {
                for (c, column) in columns.iter().enumerate() {
                    run.push_range(c, column, at, n);
                }
            })
        } else {
            times.iter().enumerate().try_for_each(|(k, time)| {
                let bytes = columns.iter().map(|c| lanes::cell_len(c, at + k)).sum();
                self.append(stream, columns.len(), &[*time], bytes, |run| {
                    for (c, column) in columns.iter().enumerate() {
                        run.push_cell(c, column, at + k);
                    }
                })
            })
        };
        self.times = times;
        result.map(|()| n)
    }

    /// Whether `n` events of `stream` with `arity` columns, their values'
    /// [`lanes::value_len`]s summing to `bytes`, go into the open frame as
    /// they are: the publisher is not finished, the stream is declared,
    /// they are not below a restarted producer's floor, and the spool and
    /// the open frame have room for them.
    fn takes(&self, stream: usize, arity: usize, n: usize, bytes: usize) -> bool {
        !self.finished
            && stream < self.streams.len()
            && self.next_offset >= self.acked()
            && self.spooled + n <= self.config.spool_events
            && self.open.fits(arity, n, bytes)
    }

    /// Append events to the open frame — `times` are their `(ptime,
    /// diff)`s, `cells` pushes their `arity` values, `bytes` sums those
    /// values' [`lanes::value_len`]s — closing and sending the frame once
    /// it is full. Several events go in only when the open frame
    /// [`takes`](NetPublisher::takes) them; one is made room for.
    fn append(
        &mut self,
        stream: usize,
        arity: usize,
        times: &[(Ts, i64)],
        bytes: usize,
        cells: impl FnOnce(&mut RunWriter),
    ) -> Result<()> {
        if !self.takes(stream, arity, times.len(), bytes) {
            debug_assert_eq!(times.len(), 1);
            if self.finished {
                return Err(Error::exec(format!("{}: send after finish", self.context)));
            }
            if stream >= self.streams.len() {
                return Err(Error::exec(format!(
                    "{}: stream index {stream} out of range ({} declared)",
                    self.context,
                    self.streams.len()
                )));
            }
            // The consumer's handshake may have acknowledged offsets this
            // publisher never sent — a restarted producer deterministically
            // re-publishing its stream to a consumer that already
            // checkpointed part of it. Those events are provably durable
            // downstream: count them, send nothing.
            if self.next_offset < self.acked() && self.open.events() == 0 {
                self.next_offset += 1;
                return Ok(());
            }
            // Reject rows that cannot fit any legal frame *before* spooling
            // them: once spooled they would be replayed forever, and the
            // consumer would misdiagnose the oversized frame as corruption.
            if !FrameBuilder::default().fits(arity, 1, bytes) {
                return Err(Error::exec(format!(
                    "{}: a single event encodes to {bytes} bytes, beyond the \
                     {FRAME_BODY_SOFT_CAP}-byte frame bound",
                    self.context
                )));
            }
            self.reserve_spool_slot()?;
            if !self.open.fits(arity, 1, bytes) {
                self.close_open();
                self.pump()?;
            }
        }
        self.open.push(stream as u16, arity, times, bytes, cells)?;
        self.next_offset += times.len() as u64;
        self.spooled += times.len();
        self.close_full()
    }

    /// Close and send the open frame once it holds `batch_events` events.
    fn close_full(&mut self) -> Result<()> {
        if self.open.events() < self.config.batch_events {
            return Ok(());
        }
        self.close_open();
        self.pump()
    }

    /// Assert that all future events (on every declared stream) have
    /// event times strictly greater than `wm`. It rides the open frame,
    /// applied after that frame's events.
    pub fn watermark(&mut self, wm: Ts) -> Result<()> {
        if self.finished {
            return Err(Error::exec(format!(
                "{}: watermark after finish",
                self.context
            )));
        }
        // Below the acknowledged floor the consumer already heard a
        // watermark at this position (see the same check in `append`); at
        // or above it, send — a duplicate watermark is absorbed by the
        // consumer's monotone ledger, a missing one would stall gates.
        self.last_wm = Some(self.last_wm.map_or(wm, |prev| prev.max(wm)));
        if self.next_offset < self.acked() {
            return Ok(());
        }
        self.open.watermark(wm);
        Ok(())
    }

    /// Send any buffered partial frame now.
    pub fn flush(&mut self) -> Result<()> {
        if !self.open.is_empty() {
            self.close_open();
        }
        self.pump()
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
            // Reconnecting rewound unacknowledged frames: replaying them
            // is better proof of life than an empty keepalive.
            self.last_keepalive = Some(Instant::now());
            return self.pump();
        }
        // The offset of the next event to go out on this connection
        // (informational), and the current watermark, so the consumer's
        // watermark-lag attribution keeps working while we idle.
        let cursor = match self.spool.len().checked_sub(self.unsent) {
            Some(first) if self.unsent > 0 => self.spool[first].base,
            _ => self.next_offset - self.open.events() as u64,
        };
        let mut body = Vec::with_capacity(18);
        body.push(KIND_KEEPALIVE);
        put_u64(&mut body, cursor);
        put_flagged(&mut body, self.last_wm.map(Ts::millis));
        let Some(mut conn) = self.conn.take() else {
            return Err(Error::exec(format!(
                "{}: connection vanished after ensure",
                self.context
            )));
        };
        let result = write_frame(&mut conn, &self.context, &body);
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
        self.flush()?;
        self.finished = true;
        self.pump()
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
            self.flush()?;
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
                    "{}: consumer acknowledged only {} of {} events within the \
                     drain timeout",
                    self.context,
                    self.acked(),
                    self.next_offset
                )));
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    /// Close the open frame: encode it once into the spool.
    fn close_open(&mut self) {
        let events = self.open.events() as u64;
        let base = self.next_offset - events;
        let watermark = self.open.watermark;
        let mut wire = self.spare.pop().unwrap_or_default();
        wire.clear();
        wire.extend_from_slice(&[0; 4]);
        self.open.encode(base, observe::current_span(), &mut wire);
        seal_frame(&mut wire);
        let frame = SpooledFrame {
            base,
            events,
            watermark,
            sent: false,
            wire,
        };
        self.spooled += frame.weight() - events as usize;
        self.spool.push_back(frame);
        self.unsent += 1;
    }

    /// Drop spool frames the consumer has acknowledged.
    fn trim(&mut self) {
        let acked = self.acked();
        while self.spool.len() > self.unsent {
            match self.spool.front() {
                Some(frame) if frame.end() <= acked => {
                    self.spooled -= frame.weight();
                    if let Some(frame) = self.spool.pop_front() {
                        self.recycle(frame.wire);
                    }
                }
                _ => break,
            }
        }
    }

    fn recycle(&mut self, wire: Vec<u8>) {
        if self.spare.len() < SPARE_FRAMES {
            self.spare.push(wire);
        }
    }

    /// Make room for one more event, waiting for acks when the bounded
    /// spool is full.
    fn reserve_spool_slot(&mut self) -> Result<()> {
        if self.spooled < self.config.spool_events {
            return Ok(());
        }
        let deadline = Instant::now() + self.config.ack_wait;
        loop {
            // Acks only move when a connection is alive to carry them.
            if self.conn.is_none() || self.conn_dead.load(Ordering::Acquire) {
                self.pump()?;
            }
            self.trim();
            if self.spooled < self.config.spool_events {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::exec(format!(
                    "{}: replay spool full ({} events) and the consumer is not \
                     acknowledging — is it checkpointing?",
                    self.context, self.spooled
                )));
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    /// Ensure a live connection, then write the unsent spool frames (and
    /// FINISH, once finished). On a broken connection the whole cycle —
    /// reconnect, handshake, rewind to the consumer's resume offset,
    /// re-send — retries until [`NetConfig::connect_timeout`] elapses.
    fn pump(&mut self) -> Result<()> {
        let deadline = Instant::now() + self.config.connect_timeout;
        loop {
            match self.try_pump(deadline) {
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

    fn try_pump(&mut self, deadline: Instant) -> Result<()> {
        let finish_pending = self.finished && !self.finish_sent;
        if self.unsent == 0
            && !finish_pending
            && self.conn.is_some()
            && !self.conn_dead.load(Ordering::Acquire)
        {
            return Ok(());
        }
        self.ensure_conn(deadline)?;
        let Some(mut conn) = self.conn.take() else {
            return Err(Error::exec(format!(
                "{}: connection vanished after ensure",
                self.context
            )));
        };
        let result = self.write_unsent(&mut conn);
        self.conn = Some(conn);
        result
    }

    fn write_unsent(&mut self, conn: &mut NetConn) -> Result<()> {
        while self.unsent > 0 {
            let at = self.spool.len() - self.unsent;
            let frame = &mut self.spool[at];
            write_wire(conn, &self.context, &frame.wire)?;
            frame.sent = true;
            let bytes = frame.wire.len() - 8;
            self.note_frame(bytes);
            self.unsent -= 1;
        }
        if self.finished && !self.finish_sent {
            let body = offset_body(KIND_FINISH, self.next_offset);
            write_frame(conn, &self.context, &body)?;
            self.note_frame(body.len());
            self.finish_sent = true;
        }
        Ok(())
    }

    /// Connect (with retries until `deadline`), run the handshake, rewind
    /// the spool to the consumer's resume offset, and spawn the ack-reader
    /// thread for the new connection.
    fn ensure_conn(&mut self, deadline: Instant) -> Result<()> {
        if self.conn.is_some() && !self.conn_dead.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
        let context = self.context.clone();
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
        let body = hello_body(self.partition, &self.streams);
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
        let floor = self
            .spool
            .front()
            .map_or(self.next_offset - self.open.events() as u64, |f| f.base);
        if resume < floor {
            return Err(Error::exec(format!(
                "{context}: consumer asks to resume at {resume} but the spool \
                 was already trimmed to {floor} (acked earlier); cannot replay"
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
        self.rewind(resume)?;
        self.stats.connections += 1;
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

    /// Make everything the consumer has not consumed unsent for the new
    /// connection. A frame was consumed iff it went out and ended at or
    /// before `resume` (its watermark is applied after its events, so only
    /// a whole frame delivers it). A frame that starts at or past `resume`
    /// goes out again as it is; one that `resume` cuts — a checkpoint
    /// taken inside a frame — is decoded, sliced at `resume` and
    /// re-encoded, keeping its watermark, and so is the open frame.
    fn rewind(&mut self, resume: u64) -> Result<()> {
        let old = std::mem::take(&mut self.spool);
        let mut replayed = 0;
        for frame in old {
            if frame.end() <= resume && (frame.sent || frame.watermark.is_none()) {
                self.recycle(frame.wire);
                continue;
            }
            let frame = if frame.base < resume {
                let decoded = frame.decode()?;
                let mut sliced = FrameBuilder::default();
                sliced.refill(&decoded, (resume - frame.base) as usize)?;
                let mut wire = vec![0; 4];
                sliced.encode(resume, decoded.trace.unwrap_or(0), &mut wire);
                seal_frame(&mut wire);
                SpooledFrame {
                    base: resume,
                    events: frame.end().saturating_sub(resume),
                    watermark: frame.watermark,
                    sent: frame.sent,
                    wire,
                }
            } else {
                frame
            };
            if frame.sent {
                replayed += frame.events;
            }
            self.spool.push_back(frame);
        }
        let open_base = self.next_offset - self.open.events() as u64;
        if open_base < resume && self.open.events() > 0 {
            // A restarted producer whose first handshake finds events of
            // its open frame already delivered: keep the rest.
            let mut body = Vec::new();
            self.open.encode(open_base, 0, &mut body);
            let mut reader = FrameReader::new(&body);
            reader.u8()?;
            let decoded = parse_batch(&mut reader)?;
            self.open.refill(&decoded, (resume - open_base) as usize)?;
        }
        self.unsent = self.spool.len();
        self.spooled =
            self.spool.iter().map(SpooledFrame::weight).sum::<usize>() + self.open.events();
        self.stats.replayed += replayed;
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
            .field("spooled", &self.spooled)
            .finish()
    }
}

/// A [`Sink`] that ships a pipeline's output changelog to another process
/// over the wire, where a [`NetSource`] re-ingests it as a stream: the
/// glue that chains pipelines across processes.
///
/// Each output row crosses as one wire event — the data row with
/// `diff = -1` for an `undo` and `+1` otherwise, at the row's
/// materialization `ptime` — written from the operator's columns into the
/// frame's lanes, no row built. `ver` numbering is *not* shipped: the
/// downstream pipeline derives its own revision numbers from the changes
/// it ingests, exactly as it would for any other source. Output
/// watermarks are forwarded on the frames, and pipeline finish becomes
/// end-of-stream.
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
            let diff = if sr.undo { -1 } else { 1 };
            self.publisher
                .append_row(0, sr.ptime, diff, sr.row.values())?;
        }
        Ok(())
    }

    fn write_batch(&mut self, batch: &StreamBatch<'_>) -> Result<()> {
        let mut i = 0;
        while i < batch.len() {
            i += self.publisher.append_entries(0, batch, i)?;
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
