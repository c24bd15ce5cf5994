//! Hashed keyed state equals the ordered oracle: random `put` / `get_mut` /
//! `remove` / `retire_where` sequences leave a [`KeyedState`] holding what a
//! `BTreeMap<Row, _>` model holds, whatever the hasher's seed and whatever
//! order the keys went in, and its checkpoint is the model's entries in key
//! order, byte for byte, and restores to the same contents.
//!
//! `PROPTEST_CASES=1000 cargo test -p onesql-state --release --test
//! keyed_oracle` is the stress run.

use std::collections::BTreeMap;

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;

use onesql_state::{Codec, KeyedState, MulRotate};
use onesql_types::{Row, Ts, Value};

#[derive(Debug, Clone)]
enum Op {
    Put(Row, i64),
    Bump(Row, i64),
    Remove(Row),
    /// Retire every key whose value is below the bound.
    RetireBelow(i64),
}

/// A small key domain, so that puts, probes and removes meet: one or two
/// values of the types grouping keys take (NULL, ints, strings,
/// timestamps, a float).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..6).prop_map(Value::Int),
        (0i64..4).prop_map(|i| Value::str(["a", "b", "", "a longer key string"][i as usize])),
        (0i64..4).prop_map(|m| Value::Ts(Ts::from_minutes(m))),
        Just(Value::Float(0.5)),
    ]
}

fn arb_key() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 1..3).prop_map(Row::new)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), -20i64..20).prop_map(|(k, v)| Op::Put(k, v)),
        (arb_key(), -5i64..5).prop_map(|(k, d)| Op::Bump(k, d)),
        arb_key().prop_map(Op::Remove),
        (-20i64..20).prop_map(Op::RetireBelow),
    ]
}

/// Apply `op` to the state and the model alike, checking what each call
/// returns against the model's answer.
fn apply(state: &mut KeyedState<i64>, model: &mut BTreeMap<Row, i64>, op: &Op) {
    match op {
        Op::Put(k, v) => prop_assert_eq!(state.put(k.clone(), *v), model.insert(k.clone(), *v)),
        Op::Bump(k, d) => {
            let probe: &[Value] = k.values();
            let got = state.get_mut(probe).map(|v| {
                *v += d;
                *v
            });
            let want = model.get_mut(k).map(|v| {
                *v += d;
                *v
            });
            prop_assert_eq!(got, want);
        }
        Op::Remove(k) => prop_assert_eq!(state.remove(k.values()), model.remove(k)),
        Op::RetireBelow(bound) => {
            let before = model.len();
            model.retain(|_, v| *v >= *bound);
            prop_assert_eq!(state.retire_where(|_, v| *v < *bound), before - model.len());
        }
    }
}

fn contents(state: &KeyedState<i64>) -> BTreeMap<Row, i64> {
    state.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// The checkpoint an ordered map writes: the count, then each entry in
/// key order.
fn ordered_checkpoint(model: &BTreeMap<Row, i64>) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(model.len() as u64);
    for (k, v) in model {
        k.encode(&mut buf);
        v.encode(&mut buf);
    }
    buf.to_vec()
}

proptest! {
    #[test]
    fn hashed_keyed_state_equals_the_ordered_oracle(
        ops in prop::collection::vec(arb_op(), 0..120),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let mut model = BTreeMap::new();
        let mut state = KeyedState::with_hasher(MulRotate::with_seed(seeds.0));
        for op in &ops {
            apply(&mut state, &mut model, op);
            prop_assert_eq!(state.len(), model.len());
        }
        prop_assert_eq!(contents(&state), model.clone());
        for (k, v) in &model {
            prop_assert_eq!(state.get(k), Some(v));
        }

        // The same contents under the other seed, keys put in descending
        // order: the same bytes, which are the ordered map's.
        let mut reversed = KeyedState::with_hasher(MulRotate::with_seed(seeds.1));
        for (k, v) in model.iter().rev() {
            reversed.put(k.clone(), *v);
        }
        let checkpoint = state.checkpoint();
        prop_assert_eq!(&checkpoint, &reversed.checkpoint());
        prop_assert_eq!(checkpoint.0.to_vec(), ordered_checkpoint(&model));

        // Restore round-trips, replacing whatever the target held.
        let mut restored = KeyedState::with_hasher(MulRotate::with_seed(seeds.1 ^ 1));
        restored.put(Row::new(vec![Value::Int(99)]), 99);
        restored.restore(&checkpoint).unwrap();
        prop_assert_eq!(contents(&restored), model);
        prop_assert_eq!(restored.checkpoint(), checkpoint);
    }
}
