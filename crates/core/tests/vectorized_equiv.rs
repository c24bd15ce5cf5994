//! Property test: the vectorized batch path is byte-identical to the
//! row-at-a-time oracle.
//!
//! Arbitrary expressions (filters, projections, aggregates over tumbling
//! and hopping windows, fallible projections and `HAVING` filters above
//! them), arbitrary event interleavings (inserts, retractions, watermarks,
//! rows an allowed lateness still admits or no longer does), arbitrary
//! batch boundaries down to batches of one, and an optional
//! checkpoint/restore in the middle of the stream: feeding the same changes
//! through [`RunningQuery::change_batch`] must produce exactly the
//! changelog and the clock the per-row [`RunningQuery::change`] oracle
//! produces — including the position and message of any runtime error
//! (division by zero), whose pre-error prefix must also match, with all
//! outputs of the failing event dropped.

use proptest::prelude::*;

use onesql_core::{Engine, StreamBuilder};
use onesql_tvr::{Change, ChangeBatch, TimedChange};
use onesql_types::{DataType, Duration, Row, Ts, Value};

/// An engine whose event-time groups stay open `lateness` minutes past the
/// watermark.
fn engine(lateness: i64) -> Engine {
    let mut e = Engine::new().with_allowed_lateness(Duration::from_minutes(lateness));
    e.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("ts")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .column("s", DataType::String),
    );
    e
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Depth-bounded integer-valued SQL expression over columns `a` and `b`.
/// Division and modulo keep zero denominators reachable so kernel errors
/// (and the split-and-repair path) are exercised.
fn int_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        (-3i64..4).prop_map(|n| n.to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = int_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} + {y})")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} - {y})")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} * {y})")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} / {y})")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} % {y})")),
        (bool_expr(depth - 1), sub.clone(), sub.clone())
            .prop_map(|(c, t, e)| format!("CASE WHEN {c} THEN {t} ELSE {e} END")),
    ]
    .boxed()
}

/// Depth-bounded boolean-valued SQL expression.
fn bool_expr(depth: u32) -> BoxedStrategy<String> {
    let cmp = prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
    ];
    let leaf = prop_oneof![
        (int_expr(0), cmp, int_expr(0)).prop_map(|(x, op, y)| format!("{x} {op} {y}")),
        Just("s = 'hot'".to_string()),
        Just("a IS NULL".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = bool_expr(depth - 1);
    prop_oneof![
        leaf,
        (int_expr(depth - 1), int_expr(depth - 1)).prop_map(|(x, y)| format!("{x} < {y}")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} AND {y})")),
        (sub.clone(), sub.clone()).prop_map(|(x, y)| format!("({x} OR {y})")),
        sub.clone().prop_map(|x| format!("NOT ({x})")),
    ]
    .boxed()
}

const TUMBLE: &str = "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(ts), \
                      dur => INTERVAL '10' MINUTE)";
/// Two window assignments per row: several aggregate inputs per event.
const HOP: &str = "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(ts), \
                   dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE)";

/// An arbitrary query over the Bid stream: filter/project, global
/// aggregate, or windowed or keyed aggregate — under a fallible projection
/// or `HAVING` filter or bare — with an arbitrary emit clause.
fn query(depth: u32) -> BoxedStrategy<String> {
    let emit = prop_oneof![
        Just("".to_string()),
        Just(" EMIT AFTER WATERMARK".to_string()),
        // Timer-driven emission: the executor refuses batches for this
        // plan and the fallback path must still be byte-identical.
        Just(" EMIT STREAM AFTER DELAY INTERVAL '1' MINUTE".to_string()),
    ]
    .boxed();
    prop_oneof![
        (int_expr(depth), int_expr(depth), bool_expr(depth))
            .prop_map(|(p1, p2, f)| format!("SELECT {p1}, {p2} FROM Bid WHERE {f}")),
        (int_expr(depth), bool_expr(depth), emit.clone())
            .prop_map(|(x, f, e)| format!("SELECT COUNT(*), SUM({x}) FROM Bid WHERE {f}{e}")),
        (int_expr(depth), emit.clone()).prop_map(|(x, e)| format!(
            "SELECT wend, COUNT(*), SUM({x}) FROM {TUMBLE} GROUP BY wend{e}"
        )),
        // Two grouping keys over a hopping window, every aggregate function.
        (int_expr(depth), emit.clone()).prop_map(|(x, e)| format!(
            "SELECT wend, s, COUNT(*), SUM({x}), MIN(a), MAX(b), AVG(a) \
             FROM {HOP} GROUP BY wend, s{e}"
        )),
        // Four groups at most: under retractions they empty and reappear
        // inside one batch.
        int_expr(depth).prop_map(|x| format!(
            "SELECT s, COUNT(a), SUM({x}), MIN(b), MAX(a), AVG(b) FROM Bid GROUP BY s"
        )),
        // A fallible projection above the aggregate: the insert of a
        // retract/insert pair can fail after its retract went through.
        (0i64..4, emit).prop_map(|(k, e)| format!(
            "SELECT wend, 10 / (COUNT(*) - {k}), MAX(a) FROM {TUMBLE} GROUP BY wend{e}"
        )),
        // A filter above the aggregate, fallible too.
        (0i64..4).prop_map(|k| format!(
            "SELECT wend, s, SUM(a) FROM {HOP} GROUP BY wend, s \
             HAVING 10 / (COUNT(*) - {k}) > 0"
        )),
    ]
    .boxed()
}

#[derive(Clone, Debug)]
enum Op {
    /// A row change: event-time minute, two nullable ints, a nullable
    /// string, and a diff (+1 insert / -1 retract).
    Data(i64, Option<i64>, Option<i64>, Option<&'static str>, i64),
    /// A stream watermark at the given minute (made monotone below).
    Watermark(i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let data = (
        0i64..60,
        prop::option::of(-3i64..4),
        prop::option::of(-3i64..4),
        prop_oneof![
            Just(None),
            Just(Some("hot")),
            Just(Some("cold")),
            Just(Some("")),
        ],
        prop_oneof![Just(1i64), Just(1), Just(1), Just(-1)],
    )
        .prop_map(|(m, a, b, s, d)| Op::Data(m, a, b, s, d))
        .boxed();
    let op = prop_oneof![
        data.clone(),
        data.clone(),
        data.clone(),
        data,
        (1i64..15).prop_map(Op::Watermark),
    ];
    prop::collection::vec(op, 0..=40).prop_map(|mut ops| {
        // Watermarks must advance: prefix-sum the generated deltas.
        let mut wm = 0;
        for op in &mut ops {
            if let Op::Watermark(delta) = op {
                wm += *delta;
                *delta = wm;
            }
        }
        ops
    })
}

fn op_row(op: &Op) -> (Ts, Change) {
    let Op::Data(minute, a, b, s, diff) = op else {
        unreachable!("watermarks carry no row")
    };
    let opt = |v: &Option<i64>| v.map_or(Value::Null, Value::Int);
    let row = Row::new(vec![
        Value::Ts(Ts::hm(0, *minute)),
        opt(a),
        opt(b),
        s.map_or(Value::Null, Value::str),
    ]);
    (Ts::hm(0, *minute), Change { row, diff: *diff })
}

// ---------------------------------------------------------------------------
// The two sides
// ---------------------------------------------------------------------------

/// Feed every op per-row; stop at the first error (drivers poison).
fn run_oracle(sql: &str, ops: &[Op], lateness: i64) -> (Vec<TimedChange>, Option<String>, Ts) {
    let mut q = engine(lateness)
        .execute(sql)
        .expect("generated SQL compiles");
    let mut failure = None;
    for (i, op) in ops.iter().enumerate() {
        let ptime = Ts(i as i64 * 1_000);
        let res = match op {
            Op::Data(..) => {
                let (_, change) = op_row(op);
                q.change("Bid", ptime, change)
            }
            Op::Watermark(m) => q.watermark("Bid", ptime, Ts::hm(0, *m)),
        };
        if let Err(e) = res {
            failure = Some(e.to_string());
            break;
        }
    }
    (q.changelog().entries().to_vec(), failure, q.now())
}

/// Feed the same ops through the columnar path: consecutive data ops
/// group into `ChangeBatch`es cut at watermarks, at the rotating chunk
/// sizes in `chunks`, and at the optional checkpoint/restore point.
fn run_vectorized(
    sql: &str,
    ops: &[Op],
    chunks: &[usize],
    restore_at: Option<usize>,
    lateness: i64,
) -> (Vec<TimedChange>, Option<String>, Ts) {
    let e = engine(lateness);
    let mut q = e.execute(sql).expect("generated SQL compiles");
    let mut pre: Vec<TimedChange> = Vec::new();
    let mut failure = None;
    let mut chunk_idx = 0;
    let mut i = 0;
    while i < ops.len() {
        if restore_at == Some(i) {
            // Kill-and-recover mid-stream: state moves through a
            // checkpoint into a fresh query; the changelog restarts.
            let cp = q.checkpoint().expect("checkpoint");
            pre.extend(q.changelog().entries().iter().cloned());
            q = e.execute(sql).expect("same SQL compiles");
            q.restore(&cp).expect("restore");
        }
        let res = match &ops[i] {
            Op::Watermark(m) => {
                let r = q.watermark("Bid", Ts(i as i64 * 1_000), Ts::hm(0, *m));
                i += 1;
                r
            }
            Op::Data(..) => {
                let limit = chunks[chunk_idx % chunks.len()].max(1);
                chunk_idx += 1;
                let mut run = Vec::new();
                while i < ops.len()
                    && run.len() < limit
                    // Cut the run at the restore point so the outer loop
                    // checkpoints mid-stream (a restore that already fired
                    // this index arrives here with an empty run).
                    && (restore_at != Some(i) || run.is_empty())
                    && matches!(ops[i], Op::Data(..))
                {
                    let (_, change) = op_row(&ops[i]);
                    run.push((Ts(i as i64 * 1_000), change));
                    i += 1;
                }
                let batch = ChangeBatch::from_changes(&run).expect("uniform arity");
                q.change_batch("Bid", &batch)
            }
        };
        if let Err(e) = res {
            failure = Some(e.to_string());
            break;
        }
    }
    pre.extend(q.changelog().entries().iter().cloned());
    (pre, failure, q.now())
}

/// Deterministic guard for the split-and-repair path: a division by zero
/// in the middle of a batch must surface the oracle's exact error, with
/// the rows before it fully processed and nothing after it.
#[test]
fn mid_batch_error_splits_exactly_like_the_oracle() {
    let sql = "SELECT (10 / a), b FROM Bid WHERE b >= 0";
    let ops: Vec<Op> = [1, 2, 0, 5]
        .iter()
        .enumerate()
        .map(|(i, &a)| Op::Data(i as i64, Some(a), Some(i as i64), None, 1))
        .collect();
    let oracle_log = assert_fails_like_the_oracle(sql, &ops);
    assert_eq!(oracle_log.len(), 2, "the two pre-error rows were emitted");
}

/// Both sides fail dividing by zero somewhere in `ops`, fed as one batch:
/// same changelog, same error, same clock. Returns the changelog.
fn assert_fails_like_the_oracle(sql: &str, ops: &[Op]) -> Vec<TimedChange> {
    let (oracle_log, oracle_err, oracle_now) = run_oracle(sql, ops, 0);
    let (vec_log, vec_err, vec_now) = run_vectorized(sql, ops, &[ops.len()], None, 0);
    assert!(
        oracle_err
            .as_deref()
            .is_some_and(|e| e.contains("division by zero")),
        "oracle error: {oracle_err:?}"
    );
    assert_eq!(vec_err, oracle_err);
    assert_eq!(vec_log, oracle_log);
    assert_eq!(vec_now, oracle_now);
    oracle_log
}

/// All outputs of one source event are recorded or none. A hopping window
/// makes two rows of an event; when the projection above fails on the
/// second, the first must not stay behind in the changelog.
#[test]
fn a_hop_event_failing_on_its_second_window_leaves_no_output() {
    let sql = "SELECT CASE WHEN wstart >= ts AND a = 0 THEN 10 / a ELSE b END FROM \
               Hop(data => TABLE(Bid), timecol => DESCRIPTOR(ts), \
               dur => INTERVAL '2' MINUTE, hopsize => INTERVAL '1' MINUTE)";
    let ops: Vec<Op> = [1, 2, 0, 5]
        .iter()
        .enumerate()
        .map(|(i, &a)| Op::Data(i as i64, Some(a), Some(i as i64), None, 1))
        .collect();
    let oracle_log = assert_fails_like_the_oracle(sql, &ops);
    assert_eq!(oracle_log.len(), 4, "two windows for each pre-error event");
}

/// The same rule for an aggregate's retract/insert pair: the second event
/// of a window retracts `COUNT(*) = 1` and inserts `COUNT(*) = 2`, on which
/// the projection above divides by zero — the retraction must go with it.
#[test]
fn a_failing_insert_takes_the_retraction_of_its_event_with_it() {
    let sql = format!("SELECT wend, 10 / (COUNT(*) - 2) FROM {TUMBLE} GROUP BY wend");
    let ops: Vec<Op> = (0..3)
        .map(|i| Op::Data(i, Some(i), None, None, 1))
        .collect();
    let oracle_log = assert_fails_like_the_oracle(&sql, &ops);
    assert_eq!(oracle_log.len(), 1, "the first event's insert alone");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vectorized_changelog_is_byte_identical(
        sql in query(2),
        ops in ops(),
        chunks in prop_oneof![
            prop::collection::vec(1usize..9, 1..=4).boxed(),
            // Batches of one, and whole runs between watermarks.
            Just(vec![1]).boxed(),
            Just(vec![64]).boxed(),
        ],
        restore_frac in prop::option::of(0usize..100),
        lateness in prop_oneof![Just(0i64), Just(0i64), 1i64..15],
    ) {
        let restore_at = restore_frac
            .filter(|_| !ops.is_empty())
            .map(|f| f * ops.len() / 100);
        let (oracle_log, oracle_err, oracle_now) = run_oracle(&sql, &ops, lateness);
        let (vec_log, vec_err, vec_now) =
            run_vectorized(&sql, &ops, &chunks, restore_at, lateness);
        prop_assert_eq!(&vec_err, &oracle_err, "error mismatch for {}", sql);
        prop_assert_eq!(&vec_log, &oracle_log, "changelog mismatch for {}", sql);
        prop_assert_eq!(vec_now, oracle_now, "clock mismatch for {}", sql);
    }
}
