//! The columnar `Changelog` against its oracle: the `Vec<TimedChange>` log
//! it replaced. Every snapshot, every entry read back, the length,
//! equality and the rendering agree, over every value kind a lane can
//! hold, arity changes and runs that cross segment boundaries; an append
//! older than the last entry is refused in every build.

use onesql_tvr::changelog::SEGMENT_ROWS;
use onesql_tvr::{Bag, Change, Changelog, OutOfOrder, TimedChange};
use onesql_types::{row, Duration, Row, Ts, Value};
use proptest::prelude::*;

/// The log `Changelog` replaced — one `TimedChange` per entry, replayed
/// up to the first later ptime — kept as the oracle its answers are
/// pinned to. It is handed only what the columnar log accepted.
mod old {
    use std::fmt;

    use super::*;

    #[derive(Default)]
    pub struct Changelog {
        pub entries: Vec<TimedChange>,
    }

    impl Changelog {
        pub fn push(&mut self, ptime: Ts, change: Change) {
            self.entries.push(TimedChange { ptime, change });
        }

        pub fn last_ptime(&self) -> Option<Ts> {
            self.entries.last().map(|e| e.ptime)
        }

        pub fn snapshot_at(&self, at: Ts) -> Bag {
            let mut bag = Bag::new();
            for e in &self.entries {
                if e.ptime > at {
                    break;
                }
                bag.update(e.change.clone());
            }
            bag
        }
    }

    impl fmt::Display for Changelog {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for e in &self.entries {
                writeln!(f, "{} {}", e.ptime, e.change)?;
            }
            Ok(())
        }
    }
}

/// One candidate value of every kind a column slot may take, and a roll;
/// the column's kind picks which candidate, so most lanes stay typed.
/// The floats are the ones total ordering tells apart: −0.0 and 0.0, and
/// NaN.
type Slot = (i64, f64, &'static str, i64, u8);

fn slot() -> impl Strategy<Value = Slot> {
    let float = prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(f64::NAN),
        Just(1.5),
        Just(-2.25)
    ];
    let string = prop_oneof![Just(""), Just("a"), Just("a \"quoted\", one")];
    (-5..5i64, float, string, 0..100_000i64, 0..64u8)
}

/// A slot as a value of a column of `kind`: `kind % 5` is its type (INT,
/// FLOAT, STRING, TIMESTAMP, or all four mixed, which boxes the lane),
/// and from 5 up one value in eight is NULL.
fn value((int, float, string, ts, roll): Slot, kind: u8) -> Value {
    if kind >= 5 && roll < 8 {
        return Value::Null;
    }
    match (kind % 5, roll % 4) {
        (0, _) | (4, 0) => Value::Int(int),
        (1, _) | (4, 1) => Value::Float(float),
        (2, _) | (4, 2) => Value::str(string),
        _ => Value::Ts(Ts(ts)),
    }
}

/// Four slots (a run of a smaller arity uses the first ones) and a diff
/// of magnitude 1 to 3, either sign.
fn entry() -> impl Strategy<Value = (Vec<Slot>, i64)> {
    let diff = (1..=3i64, prop::bool::ANY).prop_map(|(n, undo)| if undo { -n } else { n });
    (prop::collection::vec(slot(), 4), diff)
}

/// A run of entries of one arity: its column kinds, `ticks` ptime
/// advances of `gap` spread evenly over it, and whether it starts with an
/// append older than the log's last entry.
#[derive(Debug, Clone)]
struct Run {
    arity: usize,
    kinds: Vec<u8>,
    entries: Vec<(Vec<Slot>, i64)>,
    ticks: usize,
    gap: i64,
    older_first: bool,
}

fn run() -> impl Strategy<Value = Run> {
    // Mostly four columns, so consecutive runs share an arity and a long
    // one spills over into the next segment.
    let arity = prop_oneof![Just(4usize), Just(4usize), 0..=4usize];
    let entries = prop_oneof![
        prop::collection::vec(entry(), 1..40),
        prop::collection::vec(entry(), 1..40),
        prop::collection::vec(entry(), 1_500..4_500),
    ];
    let kinds = prop::collection::vec(0..10u8, 4);
    (arity, kinds, entries, 0..=5usize, 1..=3i64, prop::bool::ANY).prop_map(
        |(arity, kinds, entries, ticks, gap, older_first)| Run {
            arity,
            kinds,
            entries,
            ticks,
            gap,
            older_first,
        },
    )
}

/// Feed `runs` to the columnar log and, where it accepts, to the oracle.
fn build(runs: &[Run]) -> (Changelog, old::Changelog) {
    let mut log = Changelog::new();
    let mut oracle = old::Changelog::default();
    let mut ptime = Ts(1_000);
    for run in runs {
        if run.older_first {
            let change = Change::insert(row!(7i64));
            match oracle.last_ptime() {
                Some(last) => {
                    let older = last - Duration(1);
                    let refused = log.push(older, &change).unwrap_err();
                    assert_eq!(refused, OutOfOrder { last, ptime: older });
                }
                None => {
                    log.push(ptime, &change).unwrap();
                    oracle.push(ptime, change);
                }
            }
        }
        let len = run.entries.len();
        for (i, (slots, diff)) in run.entries.iter().enumerate() {
            // `ticks` advances, evenly spaced over the run.
            let at = ptime + Duration(run.gap * (i * run.ticks / len) as i64);
            let values = slots[..run.arity]
                .iter()
                .zip(&run.kinds)
                .map(|(slot, &kind)| value(*slot, kind));
            let change = Change::with_diff(Row::new(values.collect()), *diff);
            log.push(at, &change).unwrap();
            oracle.push(at, change);
        }
        ptime += Duration(run.gap * run.ticks as i64);
    }
    (log, oracle)
}

/// A columnar log of `entries`, in order.
fn rebuilt(entries: &[TimedChange]) -> Changelog {
    let mut log = Changelog::new();
    for e in entries {
        log.push(e.ptime, &e.change).unwrap();
    }
    log
}

/// Every question the oracle can answer, asked of both.
fn assert_agree(log: &Changelog, oracle: &old::Changelog) {
    assert_eq!(log.len(), oracle.entries.len());
    assert_eq!(log.is_empty(), oracle.entries.is_empty());
    assert_eq!(log.entries(), oracle.entries);
    assert!(log.iter().eq(oracle.entries.iter().cloned()));
    assert_eq!(log.to_string(), oracle.to_string());
    let mut visited: Vec<Ts> = oracle.entries.iter().map(|e| e.ptime).collect();
    visited.dedup();
    for ptime in visited {
        for at in [ptime - Duration(1), ptime, ptime + Duration(1)] {
            assert_eq!(log.snapshot_at(at), oracle.snapshot_at(at), "at {at}");
        }
    }
    assert_eq!(log.snapshot(), oracle.snapshot_at(Ts::MAX));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_columnar_log_answers_as_the_row_log(runs in prop::collection::vec(run(), 1..=4)) {
        let (log, oracle) = build(&runs);
        assert_agree(&log, &oracle);

        // Equality is by entries: the accepted entries appended again are
        // equal, one entry short or one diff off are not.
        let refilled = rebuilt(&oracle.entries);
        prop_assert_eq!(&refilled, &log);
        prop_assert_eq!(&log.clone(), &log);
        if let Some((last, rest)) = oracle.entries.split_last() {
            let mut short = rebuilt(rest);
            prop_assert_ne!(&short, &log);
            let negated = last.change.negated();
            short.push(last.ptime, &negated).unwrap();
            prop_assert_ne!(&short, &log);
        }
    }
}

/// The release build used to lose an older append from every snapshot;
/// now it is refused whatever the build, and the log answers as before.
#[test]
fn an_older_append_is_refused_in_every_build() {
    let mut log = Changelog::new();
    let (a, b) = (Change::insert(row!(1i64)), Change::insert(row!(2i64)));
    log.push(Ts(10), &a).unwrap();
    assert_eq!(
        log.push(Ts(9), &b),
        Err(OutOfOrder {
            last: Ts(10),
            ptime: Ts(9)
        })
    );
    assert_eq!(log.len(), 1);
    assert_eq!(log.snapshot_at(Ts(10)).to_rows(), vec![row!(1i64)]);
    assert_eq!(log.snapshot_at(Ts(9)).len(), 0);
    log.push(Ts(10), &b).unwrap();
    assert_eq!(log.snapshot_at(Ts(10)).len(), 2);
}

/// Runs longer than a segment, of one arity and then another, split into
/// sealed segments that read back as they went in.
#[test]
fn runs_across_segments_read_back_in_order() {
    let wide = SEGMENT_ROWS as i64 + 100;
    let mut oracle = old::Changelog::default();
    for i in 0..2 * wide {
        let change = match (i < wide, i % 2) {
            (true, 0) => Change::insert(row!(i, i as f64 / 4.0, Ts(i), "s")),
            (true, _) => Change::retract(row!(i, Value::Null, Ts(i), "t")),
            (false, _) => Change::with_diff(row!(i), 2),
        };
        oracle.push(Ts(i / 1_000), change);
    }
    assert_agree(&rebuilt(&oracle.entries), &oracle);
}
