//! Unit tests of the wire: codec, framing, handshake, replay.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

use onesql_core::connect::{PartitionedSource, Source, SourceStatus};
use onesql_tvr::lanes::{self, RunWriter};
use onesql_types::{Result, Row, Ts, Value};

use super::frame::*;
use super::source::*;
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
    let streams: Vec<String> = streams.iter().map(|s| s.to_string()).collect();
    write_frame(&mut conn, "test client", &hello_body(0, &streams)).unwrap();
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

/// A `BATCH` body at `base` holding `events` (stream, ptime, diff, row),
/// built as a publisher builds one.
fn batch_body(base: u64, wm: Option<Ts>, events: &[(u16, Ts, i64, Row)], trace: u64) -> Vec<u8> {
    let mut frame = FrameBuilder::default();
    for (stream, ptime, diff, row) in events {
        push_row(&mut frame, *stream, *ptime, *diff, row).unwrap();
    }
    if let Some(wm) = wm {
        frame.watermark(wm);
    }
    let mut body = Vec::new();
    frame.encode(base, trace, &mut body);
    body
}

/// Push `row` into `frame` as `NetPublisher::send` does.
fn push_row(frame: &mut FrameBuilder, stream: u16, ptime: Ts, diff: i64, row: &Row) -> Result<()> {
    let values = row.values();
    let bytes = values.iter().map(lanes::value_len).sum();
    frame.push(stream, values.len(), &[(ptime, diff)], bytes, |run| {
        for (c, value) in values.iter().enumerate() {
            run.push_value(c, value);
        }
    })
}

#[test]
fn null_heavy_frames_stay_within_their_bound() {
    // The publisher pushes an event only while the frame's bound stays
    // within FRAME_BODY_SOFT_CAP, so a body within its bound is within
    // the cap. NULLs in typed lanes take a placeholder and a bitmap bit.
    let text: Arc<str> = Arc::from("x".repeat(900));
    let mut ints = vec![Value::Str(text.clone())];
    ints.extend((0..20).map(Value::Int));
    let mut nulls = vec![Value::Str(text)];
    nulls.extend((0..20).map(|_| Value::Null));
    let mut lone = vec![Row::from_values(ints.clone())];
    lone.extend((1..200).map(|_| Row::from_values(nulls.clone())));
    let mixed = [
        // NULLs first, then the lanes' type, then values that demote
        // them to MIXED.
        Row::from_values(nulls),
        Row::from_values(ints),
        row!(Value::Null, true),
        row!(1.5f64, Value::Null),
        row!("s", Value::Null),
    ];
    // Typed lanes that fill with NULLs after one value; and NULL-first,
    // demoted lanes over two streams.
    let shapes = [lone, mixed.iter().cycle().take(200).cloned().collect()];
    for rows in shapes {
        let mut frame = FrameBuilder::default();
        for (i, row) in rows.iter().enumerate() {
            push_row(&mut frame, (i % 2) as u16, Ts(i as i64), 1, row).unwrap();
        }
        let bound = frame.bound();
        let mut body = Vec::new();
        frame.encode(0, 0, &mut body);
        assert!(
            body.len() <= bound,
            "{} bytes over a bound of {bound}",
            body.len()
        );
        assert_eq!(parse(&body).unwrap().columns.len(), 200);
    }
}

#[test]
fn a_frame_holds_at_most_u16_max_runs() {
    let mut frame = FrameBuilder::default();
    let times = [(Ts(0), 1)];
    for stream in 0..u16::MAX {
        frame.push(stream, 0, &times, 0, |_| {}).unwrap();
    }
    let err = frame.push(0, 1, &times, 0, |_| {}).unwrap_err().to_string();
    assert!(err.contains("more than 65535"), "{err}");
    // A run already open still takes events.
    frame.push(7, 0, &times, 0, |_| {}).unwrap();
    let mut body = Vec::new();
    frame.encode(0, 0, &mut body);
    let columns = parse(&body).unwrap().columns;
    assert_eq!(columns.batches().len(), usize::from(u16::MAX));
    assert_eq!(columns.len(), usize::from(u16::MAX) + 1);
}

fn parse(body: &[u8]) -> Result<BatchFrame> {
    let mut reader = FrameReader::new(body);
    assert_eq!(reader.u8()?, KIND_BATCH);
    parse_batch(&mut reader)
}

#[test]
fn batch_frames_roundtrip_interleaved_streams_and_arities() {
    let events = vec![
        (0, Ts(1), 1, row!(1i64, "a")),
        (1, Ts(2), -1, row!(f64::NAN)),
        (0, Ts(2), 3, row!(Value::Null, "b,\"\n")),
        (0, Ts(3), 1, row!(7i64)),
        (1, Ts(3), 1, row!(-0.0f64)),
    ];
    let body = batch_body(40, Some(Ts(9)), &events, 0xAB);
    let frame = parse(&body).unwrap();
    assert_eq!(frame.watermark, Some(Ts(9)));
    assert_eq!(frame.trace, Some(0xAB));
    // Stream 0 holds two arities: a batch each, in order of arrival.
    assert_eq!(frame.columns.batches().len(), 3);
    let back: Vec<(u16, Ts, i64, Row)> = frame
        .columns
        .events()
        .into_iter()
        .map(|e| (e.stream as u16, e.ptime, e.change.diff, e.change.row))
        .collect();
    assert_eq!(back, events);
}

#[test]
fn interleaved_runs_whose_ptimes_fall_are_refused() {
    let run = |ptime: i64| {
        let mut run = RunWriter::new(1);
        run.push_value(0, &Value::Int(ptime));
        run.end_row(Ts(ptime), 1);
        let mut bytes = Vec::new();
        run.encode_into(&mut bytes);
        bytes
    };
    let mut body = vec![KIND_BATCH];
    put_u64(&mut body, 0);
    put_flagged(&mut body, None);
    put_u32(&mut body, 2);
    put_u16(&mut body, 2);
    for (stream, ptime) in [(0u16, 5), (1, 3)] {
        put_u16(&mut body, stream);
        body.extend(run(ptime));
    }
    body.extend([0, 0, 1, 0]); // the order lane: run 0, then run 1
    put_flagged(&mut body, None);
    let err = parse(&body).err().unwrap().to_string();
    assert!(err.contains("ptimes fall between runs"), "{err}");
}

#[test]
fn interleaved_ptimes_are_raised_in_arrival_order() {
    let events = vec![
        (0, Ts(5), 1, row!(1i64)),
        (1, Ts(3), 1, row!(2i64)),
        (0, Ts(6), 1, row!(3i64)),
    ];
    let frame = parse(&batch_body(0, None, &events, 0)).unwrap();
    let ptimes: Vec<Ts> = frame.columns.events().iter().map(|e| e.ptime).collect();
    assert_eq!(ptimes, [Ts(5), Ts(5), Ts(6)]);
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
    // 1 and 2 are what older producers announce: nothing writes those
    // dialects any more, so they are refused like 0 or a future version.
    for version in [0u16, 1, 2, 99] {
        let mut source = tcp_source(&["S"], 1);
        let addr = source.local_addr();
        let client = std::thread::spawn(move || {
            let mut conn = addr.connect().unwrap();
            conn.write_all(&WIRE_MAGIC).unwrap();
            conn.write_all(&version.to_le_bytes()).unwrap();
        });
        let err = poll_until_err(&mut source);
        client.join().unwrap();
        let refusal = format!("wire version {version} (this build speaks 3)");
        assert!(err.contains(&refusal), "{err}");
    }
}

#[test]
fn batch_trace_context_reaches_source_batch() {
    let mut source = tcp_source(&["S"], 1);
    let addr = source.local_addr();
    let client = std::thread::spawn(move || {
        let mut conn = raw_handshake(&addr, &["S"]);
        // Frame 1: trace context present; frame 2: absent.
        let body = batch_body(0, None, &[(0, Ts(1), 1, row!(1i64))], 0xABC0_0001);
        write_frame(&mut conn, "test client", &body).unwrap();
        let body = batch_body(1, None, &[(0, Ts(2), 1, row!(2i64))], 0);
        write_frame(&mut conn, "test client", &body).unwrap();
        let mut body = vec![KIND_FINISH];
        put_u64(&mut body, 2);
        write_frame(&mut conn, "test client", &body).unwrap();
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
fn keepalive_carries_watermark() {
    let mut source = tcp_source(&["S"], 1);
    let addr = source.local_addr();
    let client = std::thread::spawn(move || {
        let mut conn = raw_handshake(&addr, &["S"]);
        let mut body = vec![KIND_KEEPALIVE];
        put_u64(&mut body, 0);
        body.push(1);
        put_i64(&mut body, 777);
        write_frame(&mut conn, "test client", &body).unwrap();
        let mut body = vec![KIND_FINISH];
        put_u64(&mut body, 0);
        write_frame(&mut conn, "test client", &body).unwrap();
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

/// A `BATCH` body at offset 0 whose one run claims `rows` rows of four
/// INT columns over `lanes` bytes of lanes.
fn claiming_batch(rows: u32, lanes: &[u8]) -> Vec<u8> {
    let mut body = vec![KIND_BATCH];
    put_u64(&mut body, 0);
    put_flagged(&mut body, None);
    put_u32(&mut body, rows);
    put_u16(&mut body, 1); // one run
    put_u16(&mut body, 0); // of stream 0
    put_u32(&mut body, rows);
    put_u16(&mut body, 4);
    body.extend_from_slice(lanes);
    body
}

#[test]
fn a_batch_claiming_u32_max_rows_is_a_short_body() {
    let mut source = tcp_source(&["S"], 1);
    let addr = source.local_addr();
    let client = std::thread::spawn(move || {
        let mut conn = raw_handshake(&addr, &["S"]);
        let body = claiming_batch(u32::MAX, &[8, 1, 0, 0, 0, 0, 0, 0, 0]);
        write_frame(&mut conn, "test client", &body).unwrap();
    });
    let err = poll_until_err(&mut source);
    client.join().unwrap();
    assert!(err.contains("longer than the bytes left"), "{err}");
}

proptest::proptest! {
    /// Whatever body a peer sends, HELLO and data-frame decoding answer
    /// `Ok` or `Err` and never panic: raw bytes behind any frame kind,
    /// BATCH headers claiming any event and run counts, runs claiming any
    /// row count, arity and diff width, and real frames cut or corrupted
    /// anywhere.
    #[test]
    fn decoding_arbitrary_bodies_never_panics(
        kind in 0u8..8,
        shape in 0u8..4,
        count in proptest::prelude::any::<u32>(),
        runs in proptest::prelude::any::<u16>(),
        arity in proptest::prelude::any::<u16>(),
        width in 0u8..10,
        cut in proptest::prelude::any::<u16>(),
        flip in proptest::prelude::any::<u8>(),
        tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
    ) {
        let mut body = vec![kind];
        if shape > 0 {
            body[0] = KIND_BATCH;
            put_u64(&mut body, 0);
            put_flagged(&mut body, Some(0));
            put_u32(&mut body, count);
            put_u16(&mut body, runs);
        }
        if shape > 1 {
            put_u16(&mut body, 0);
            put_u32(&mut body, count);
            put_u16(&mut body, arity);
            body.push(width);
        }
        body.extend_from_slice(&tail);
        if shape == 3 {
            // A real two-stream frame, cut short and one byte changed.
            let events = [
                (0, Ts(1), 1, row!(1i64, "x", Value::Null)),
                (1, Ts(2), -1, row!(true, 2.5f64)),
                (0, Ts(2), 1, row!(Value::Null, "y", 3i64)),
            ];
            body = batch_body(0, Some(Ts(4)), &events, 7);
            body.truncate(usize::from(cut) % (body.len() + 1));
            if let Some(byte) = body.get_mut(usize::from(flip) % 64) {
                *byte ^= flip;
            }
        }
        let shared = ListenerShared {
            name: "fuzz".to_string(),
            streams: vec!["S".to_string(), "T".to_string()],
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
        // The expected offset is 0.
        let body = batch_body(7, None, &[(0, Ts(1), 1, row!(1i64))], 0);
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
        PartitionedNetSource::bind(addr.clone(), vec!["S".to_string()], 1, test_config()).unwrap();
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
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
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
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
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
            let mut p0 = NetPublisher::new(addr.clone(), 0, vec!["S".to_string()], test_config());
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
            let mut publisher = NetPublisher::new(addr, 0, vec!["S".to_string()], test_config());
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

/// The frames of the worked example in `docs/WIRE_FORMAT.md`, as this
/// build writes them: preamble, `HELLO`, `HELLO_ACK`, one `BATCH`,
/// `FINISH` and `ACK`.
fn worked_example() -> Vec<Vec<u8>> {
    let sealed = |body: &[u8]| {
        let mut wire = vec![0; 4];
        wire.extend_from_slice(body);
        seal_frame(&mut wire);
        wire
    };
    let mut preamble = WIRE_MAGIC.to_vec();
    preamble.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    let events = [(0, Ts(60_000), 1, row!(7i64, 42i64))];
    vec![
        preamble,
        sealed(&hello_body(0, &["Bid".to_string()])),
        sealed(&offset_body(KIND_HELLO_ACK, 0)),
        sealed(&batch_body(0, Some(Ts(59_999)), &events, 0)),
        sealed(&offset_body(KIND_FINISH, 1)),
        sealed(&offset_body(KIND_ACK, 1)),
    ]
}

/// The document's worked example is these bytes: each `text` block of
/// its "Worked example" section holds one frame, a line's bytes in hex
/// before two spaces and the line's comment.
#[test]
fn wire_format_example_matches_docs() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/WIRE_FORMAT.md"
    ))
    .unwrap();
    let example = &doc[doc.find("## Worked example").unwrap()..];
    let mut documented = Vec::new();
    let mut block: Option<Vec<u8>> = None;
    for line in example.lines() {
        match (line.trim(), &mut block) {
            ("```text", None) => block = Some(Vec::new()),
            ("```", Some(_)) => documented.extend(block.take()),
            (_, Some(bytes)) => {
                let hex = line.split("  ").next().unwrap_or("");
                bytes.extend(
                    hex.split_whitespace()
                        .map(|b| u8::from_str_radix(b, 16).unwrap()),
                );
            }
            _ => {}
        }
    }
    let hex = |frame: &[u8]| {
        let bytes: Vec<String> = frame.iter().map(|b| format!("{b:02x}")).collect();
        bytes.join(" ")
    };
    let written: Vec<String> = worked_example().iter().map(|f| hex(f)).collect();
    let documented: Vec<String> = documented.iter().map(|f| hex(f)).collect();
    assert_eq!(documented, written);
}
