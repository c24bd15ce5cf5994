//! `ver` numbering against its oracle: `StreamRenderer`'s hashed counters
//! number every revision, and snapshot every counter, exactly as the
//! ordered map they replaced — across a checkpoint restore too.

use onesql_exec::{StreamRenderer, StreamRow};
use onesql_tvr::{Change, TimedChange};
use onesql_types::{Row, Ts, Value};
use proptest::prelude::*;

/// The renderer `StreamRenderer` replaced — one ordered map from a
/// grouping's values to its next version — kept as the oracle its
/// numbering and its checkpointed counters are pinned to.
mod old {
    use std::collections::BTreeMap;

    use super::*;

    pub struct Renderer {
        grouping_cols: Vec<usize>,
        versions: BTreeMap<Row, u64>,
    }

    impl Renderer {
        pub fn new(grouping_cols: Vec<usize>) -> Renderer {
            Renderer {
                grouping_cols,
                versions: BTreeMap::new(),
            }
        }

        pub fn versions(&self) -> Vec<(Row, u64)> {
            let entry = |(key, next): (&Row, &u64)| (key.clone(), *next);
            self.versions.iter().map(entry).collect()
        }

        pub fn render_into(&mut self, entry: &TimedChange, out: &mut Vec<StreamRow>) {
            let change = &entry.change;
            let key = change.row.project(&self.grouping_cols).unwrap();
            let next = self.versions.entry(key).or_insert(0);
            let revisions = change.diff.unsigned_abs();
            out.extend((*next..*next + revisions).map(|ver| StreamRow {
                row: change.row.clone(),
                undo: change.diff < 0,
                ptime: entry.ptime,
                ver,
            }));
            *next += revisions;
        }
    }
}

const ARITY: usize = 4;

/// Few distinct values of every kind a grouping column can hold, so
/// groupings recur; TIMESTAMPs twice as often, as in real event times.
/// The floats are the ones total ordering tells apart: −0.0 and 0.0, and
/// two NaNs.
fn value() -> impl Strategy<Value = Value> {
    let timestamp = || (0..8i64).prop_map(|t| Value::Ts(Ts(t * 1_000)));
    let float = prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(1.5)
    ];
    prop_oneof![
        timestamp(),
        timestamp(),
        Just(Value::Null),
        (0..4i64).prop_map(Value::Int),
        float.prop_map(Value::Float),
        prop_oneof![Just("a"), Just("b"), Just("")].prop_map(Value::str),
    ]
}

/// A change: its row and a diff of magnitude 1 to 3, either sign.
fn change() -> impl Strategy<Value = Change> {
    let row = prop::collection::vec(value(), ARITY).prop_map(Row::new);
    let diff = (1..=3i64, prop::bool::ANY).prop_map(|(n, undo)| if undo { -n } else { n });
    (row, diff).prop_map(|(row, diff)| Change::with_diff(row, diff))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ver_numbering_and_snapshots_match_the_ordered_oracle(
        grouping_cols in prop::collection::vec(0..ARITY, 0..=3),
        changes in prop::collection::vec(change(), 0..200),
        restore_at in 0..200usize,
    ) {
        let mut oracle = old::Renderer::new(grouping_cols.clone());
        let mut renderer = StreamRenderer::new(grouping_cols.clone());
        let (mut expected, mut rendered) = (Vec::new(), Vec::new());
        for (i, change) in changes.into_iter().enumerate() {
            if i == restore_at {
                // What a checkpoint holds, restored into a fresh renderer.
                prop_assert_eq!(renderer.versions(), oracle.versions());
                let mut restored = StreamRenderer::new(grouping_cols.clone());
                restored.set_versions(renderer.versions());
                renderer = restored;
            }
            let entry = TimedChange { ptime: Ts(i as i64), change };
            oracle.render_into(&entry, &mut expected);
            renderer.render_into(&entry, &mut rendered).unwrap();
        }
        prop_assert_eq!(rendered, expected);
        prop_assert_eq!(renderer.versions(), oracle.versions());
    }
}

/// A counter a crafted checkpoint carries past `i64::MAX` is refused
/// before any sink writes it: `ver` is never printed outside BIGINT's
/// range, so never as a negative JSON number.
#[test]
fn a_crafted_counter_past_i64_max_is_refused_not_printed() {
    let out = std::env::temp_dir().join(format!("onesql_ver_limit_{}.jsonl", std::process::id()));
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 3, events = 400);
         CREATE SINK out WITH (connector = 'file', path = '{}', format = 'jsonl');
         INSERT INTO out SELECT auction, price FROM Bid EMIT STREAM;",
        out.display()
    );
    let pipeline = || onesql_connect::session().execute_script(&script).unwrap();
    let mut first = pipeline().into_pipeline().unwrap();
    first.driver_mut().step().unwrap();
    let mut checkpoint = first.driver_mut().checkpoint().unwrap();
    // One grouping: the query projects no event time.
    assert_eq!(checkpoint.renderer_versions.len(), 1);
    checkpoint.renderer_versions[0].1 = i64::MAX as u64 + 1;
    drop(first);

    let mut restored = pipeline().into_pipeline().unwrap();
    restored.driver_mut().restore(&checkpoint).unwrap();
    let refused = restored.run().unwrap_err().to_string();
    assert!(refused.contains("overflows"), "{refused}");
    let written = std::fs::read_to_string(&out).unwrap();
    let vers = written
        .lines()
        .map(|line| line.rsplit_once("\"ver\":").unwrap().1);
    for ver in vers {
        assert!(
            ver.trim_end_matches('}').parse::<i64>().unwrap() >= 0,
            "{written}"
        );
    }
    std::fs::remove_file(&out).unwrap();
}
