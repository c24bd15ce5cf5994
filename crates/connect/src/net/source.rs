//! The reader side: [`PartitionedNetSource`] and [`NetSource`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use onesql_core::connect::{
    ColumnarBatch, PartitionedSource, PartitionedVec, Source, SourceBatch, SourceColumns,
    SourceStatus, WrapsPartitioned,
};
use onesql_types::{Error, Result, Ts};

use super::frame::*;
use super::*;

/// What a connection's reader thread hands the polling source.
pub(super) enum Decoded {
    /// A decoded `BATCH` frame.
    Batch(Pending),
    /// A `KEEPALIVE` frame: the producer is alive but has nothing to
    /// say. Carries no events and moves no offsets; it refreshes the
    /// partition's silence clock, and may restate the
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
pub(super) struct PartSlot {
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

pub(super) struct ListenerShared {
    pub(super) name: String,
    /// Expected stream declaration; producers must match it exactly.
    pub(super) streams: Vec<String>,
    pub(super) parts: Vec<PartSlot>,
    /// Handshake replies wait for this: the driver had its chance to seek
    /// (restore) before the first poll flips it.
    pub(super) ready: (Mutex<bool>, Condvar),
    /// Failures that cannot be attributed to a claimed partition (bad
    /// preamble, version mismatch, bogus HELLO): surfaced by every poll.
    pub(super) failure: Mutex<Option<String>>,
    /// [`NetConfig::producer_restarts`].
    pub(super) allow_restart: bool,
    pub(super) shutdown: AtomicBool,
}

impl ListenerShared {
    pub(super) fn fail(&self, msg: String) {
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
pub(super) struct NetPartition {
    name: String,
    streams: Vec<String>,
    /// This partition's index into `shared.parts`.
    slot: usize,
    rx: Receiver<Decoded>,
    shared: Arc<ListenerShared>,
    /// The frame currently being emitted.
    pending: Option<Pending>,
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

    /// The row adapter over [`Source::poll_columns`]: the same poll, its
    /// events built as rows.
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        let batch = self.poll(max_events)?;
        Ok(SourceBatch {
            events: batch.columns.events(),
            watermark: batch.watermark,
            status: batch.status,
            trace_parent: batch.trace_parent,
        })
    }

    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        self.poll(max_events).map(Some)
    }
}

impl NetPartition {
    /// Up to `max_events` events of the pending frame — the whole frame's
    /// batches as they were decoded when it fits — waiting for the next
    /// frame when none is pending.
    fn poll(&mut self, max_events: usize) -> Result<ColumnarBatch> {
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
        let idle = |watermark| ColumnarBatch {
            watermark,
            status: SourceStatus::Idle,
            ..ColumnarBatch::default()
        };
        if self.pending.is_none() && !self.finished {
            match self.rx.recv_timeout(self.poll_wait) {
                Ok(Decoded::Batch(frame)) => {
                    self.pending = Some(frame);
                    self.last_heard = Some(Instant::now());
                }
                Ok(Decoded::Keepalive { watermark }) => {
                    // Proof of life; a keepalive may also restate the
                    // producer's watermark (duplicates are absorbed by
                    // the driver's monotone ledger).
                    self.last_heard = Some(Instant::now());
                    return Ok(idle(watermark));
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
                    return Ok(idle(None));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let msg = format!("{}: reader threads are gone", self.name);
                    self.failed = Some(msg.clone());
                    return Err(Error::exec(msg));
                }
            }
        }
        let mut batch = ColumnarBatch {
            status: SourceStatus::Ready,
            ..ColumnarBatch::default()
        };
        if let Some(pending) = &mut self.pending {
            batch.columns = pending.take(max_events)?;
            if !batch.columns.is_empty() {
                batch.trace_parent = pending.frame.trace;
            }
            if pending.taken < pending.len {
                return Ok(batch);
            }
            batch.watermark = pending.frame.watermark;
            self.pending = None;
        }
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
        Ok(batch)
    }
}

/// A decoded `BATCH` frame waiting to be polled. Its watermark goes out
/// with its last events; its trace span with every batch of its events,
/// so the ingesting driver parents its ingest span on the producer's.
pub(super) struct Pending {
    frame: BatchFrame,
    len: usize,
    /// Events already polled.
    taken: usize,
}

impl Pending {
    fn new(frame: BatchFrame) -> Pending {
        let len = frame.columns.len();
        Pending {
            frame,
            len,
            taken: 0,
        }
    }

    /// The next `max_events` events (fewer at the frame's end): the
    /// decoded batches themselves when that is all of them, else views.
    fn take(&mut self, max_events: usize) -> Result<SourceColumns> {
        let (from, n) = (self.taken, max_events.min(self.len - self.taken));
        self.taken += n;
        let columns = &mut self.frame.columns;
        if from == 0 && n == self.len {
            return Ok(std::mem::take(columns));
        }
        let batches = columns.batches();
        let Some(order) = columns.order() else {
            let (stream, batch) = &batches[0];
            return Ok(SourceColumns::single(*stream, batch.slice(from, from + n)));
        };
        // Each batch's rows before `from`, and in the taken range.
        let mut start = vec![0usize; batches.len()];
        for &b in &order[..from] {
            start[usize::from(b)] += 1;
        }
        let mut count = vec![0usize; batches.len()];
        for &b in &order[from..from + n] {
            count[usize::from(b)] += 1;
        }
        // Keep the batches the range reaches, renumbered.
        let mut renumber = vec![0u16; batches.len()];
        let mut kept = Vec::new();
        for (b, (stream, batch)) in batches.iter().enumerate() {
            if count[b] > 0 {
                renumber[b] = kept.len() as u16;
                kept.push((*stream, batch.slice(start[b], start[b] + count[b])));
            }
        }
        let order = order[from..from + n]
            .iter()
            .map(|&b| renumber[usize::from(b)])
            .collect();
        SourceColumns::interleaved(kept, order)
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
                pending: None,
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
            let body = offset_body(KIND_ACK, offset);
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

pub(super) fn spawn_acceptor(listener: NetListener, shared: Arc<ListenerShared>) {
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
pub(super) fn serve_connection(mut conn: NetConn, shared: Arc<ListenerShared>) {
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
    let body = offset_body(KIND_HELLO_ACK, resume);
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

pub(super) fn parse_hello(body: &[u8]) -> Result<(usize, Vec<String>)> {
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
pub(super) fn parse_data_frame(
    body: &[u8],
    context: &str,
    expected: &mut u64,
    shared: &ListenerShared,
) -> Result<Option<Decoded>> {
    let mut reader = FrameReader::new(body);
    match reader.u8()? {
        KIND_BATCH => {
            let base = FrameReader::new(&body[1..]).u64()?;
            if base != *expected {
                return Err(Error::exec(format!(
                    "{context}: offset gap — batch starts at {base}, expected \
                     {expected} (events lost or replayed out of order)"
                )));
            }
            let frame = parse_batch(&mut reader)?;
            if let Some((stream, _)) =
                (frame.columns.batches().iter()).find(|(stream, _)| *stream >= shared.streams.len())
            {
                return Err(Error::exec(format!(
                    "{context}: event references stream index {stream}, but only \
                     {} streams were declared",
                    shared.streams.len()
                )));
            }
            *expected += frame.columns.len() as u64;
            Ok(Some(Decoded::Batch(Pending::new(frame))))
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

    /// No checkpoints, no replay: consumed == durable. Ack eagerly so the
    /// producer's spool stays trimmed over unbounded streams.
    fn ack_consumed(&mut self) -> Result<()> {
        let offset = self.inner.offset(0);
        if offset > self.acked {
            self.inner.ack(0, offset)?;
            self.acked = offset;
        }
        Ok(())
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
        self.ack_consumed()?;
        Ok(batch)
    }

    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        let batch = self.inner.poll_partition_columns(0, max_events)?;
        self.ack_consumed()?;
        Ok(Some(batch))
    }

    /// Acked on consume: the producer has already trimmed what a restore
    /// would ask it to re-send.
    fn replayable(&self) -> bool {
        false
    }
}
