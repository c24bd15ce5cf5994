//! A one-value `MIN`/`MAX` equals the multiset it replaces: over random
//! insert-only value sequences (NULLs, NaN, −0.0 and equal values among
//! them) and random session merges, the accumulator that keeps one value
//! answers what the multiset accumulator answers after every step, byte
//! for byte, and its checkpoint encoding round-trips. Bytes that are not
//! an accumulator, the mode byte included, decode to an error, never a
//! panic.
//!
//! `PROPTEST_CASES=1000 cargo test -p onesql-exec --release --test
//! one_value_equiv` is the stress run.

use bytes::Bytes;
use proptest::prelude::*;

use onesql_exec::aggregate::{Accumulator, Aggregate};
use onesql_exec::Operator;
use onesql_plan::{AggCall, AggFunc, ScalarExpr};
use onesql_state::{Checkpoint, Codec};
use onesql_types::{Duration, Value};

/// Values an extremum meets: NULL, a few ints, floats with NaN, both
/// zeros and equal values, strings, and a timestamp (mixed types order by
/// type, as `Value`'s total order does).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        (0i64..6).prop_map(|i| Value::Float(
            [f64::NAN, -0.0, 0.0, 1.5, -1.5, f64::INFINITY][i as usize]
        )),
        (0i64..3).prop_map(|i| Value::str(["", "a", "b"][i as usize])),
        Just(Value::Ts(onesql_types::Ts(7))),
    ]
}

/// `MIN` or `MAX`, with or without `DISTINCT`.
fn arb_call() -> impl Strategy<Value = AggCall> {
    (prop::bool::ANY, prop::bool::ANY).prop_map(|(max, distinct)| AggCall {
        func: if max { AggFunc::Max } else { AggFunc::Min },
        arg: Some(ScalarExpr::col(0)),
        distinct,
    })
}

/// The answer in checkpoint bytes, so that NaN payloads and the sign of
/// zero count.
fn answer(acc: &Accumulator) -> Bytes {
    acc.value().unwrap().to_bytes()
}

/// Encode, decode and encode again: the same bytes, the same answer, and
/// the length `encoded_len` promised.
fn round_trips(acc: &Accumulator) {
    let bytes = acc.to_bytes();
    prop_assert_eq!(acc.encoded_len(), bytes.len());
    let back = Accumulator::from_bytes(&bytes).unwrap();
    prop_assert_eq!(back.to_bytes(), bytes);
    prop_assert_eq!(answer(&back), answer(acc));
}

/// Both accumulators of `call` over `values`, inserted in order.
fn fold(call: &AggCall, values: &[Value]) -> (Accumulator, Accumulator) {
    let mut one = Accumulator::for_call(call, false);
    let mut multiset = Accumulator::for_call(call, true);
    for v in values {
        one.add(Some(v), 1).unwrap();
        multiset.add(Some(v), 1).unwrap();
    }
    (one, multiset)
}

proptest! {
    #[test]
    fn one_value_equals_the_multiset_after_every_insert(
        call in arb_call(),
        values in prop::collection::vec(arb_value(), 0..40),
    ) {
        let mut one = Accumulator::for_call(&call, false);
        let mut multiset = Accumulator::for_call(&call, true);
        for v in &values {
            one.add(Some(v), 1).unwrap();
            multiset.add(Some(v), 1).unwrap();
            prop_assert_eq!(answer(&one), answer(&multiset));
            round_trips(&one);
        }
        // A one-value accumulator is never larger than the multiset.
        prop_assert!(one.encoded_len() <= multiset.encoded_len());
    }

    #[test]
    fn one_value_equals_the_multiset_across_session_merges(
        call in arb_call(),
        parts in prop::collection::vec(prop::collection::vec(arb_value(), 0..6), 1..8),
        order in prop::collection::vec(any::<u64>(), 8),
    ) {
        // Each part is one provisional session; they merge into the first
        // in a random order, as touching sessions do.
        let mut folded: Vec<(Accumulator, Accumulator)> =
            parts.iter().map(|values| fold(&call, values)).collect();
        let (mut one, mut multiset) = folded.remove(0);
        let mut pick = order.iter();
        while !folded.is_empty() {
            let at = (*pick.next().unwrap_or(&0) as usize) % folded.len();
            let (other_one, other_multiset) = folded.remove(at);
            one.merge(&other_one);
            multiset.merge(&other_multiset);
            prop_assert_eq!(answer(&one), answer(&multiset));
            round_trips(&one);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_an_accumulator_decode(
        call in arb_call(),
        values in prop::collection::vec(arb_value(), 0..4),
        retracts in prop::bool::ANY,
        mode in any::<u8>(),
        cut in any::<usize>(),
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (one, multiset) = fold(&call, &values);
        let acc = if retracts { multiset } else { one };
        let mut bytes = acc.to_bytes().to_vec();
        // The mode byte follows 44 bytes of fixed fields.
        prop_assert_eq!(bytes[44], if retracts { 1 } else { 2 });
        bytes[44] = mode;
        let _ = Accumulator::from_bytes(&bytes);
        let _ = Accumulator::from_bytes(&bytes[..cut % (bytes.len() + 1)]);
        let _ = Accumulator::from_bytes(&noise);
        bytes.extend_from_slice(&noise);
        let _ = Accumulator::from_bytes(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_an_aggregate_restore(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        mode in any::<u8>(),
    ) {
        // A well-formed checkpoint of one group, its mode byte replaced,
        // then arbitrary bytes.
        let mut agg = max_by_key(false);
        let mut out = Vec::new();
        agg.process(
            0,
            onesql_tvr::Element::insert(onesql_types::row!(1i64, 5i64)),
            onesql_types::Ts(0),
            &mut out,
        )
        .unwrap();
        let pristine = agg.checkpoint().unwrap().unwrap().0;
        let mut crafted = pristine.to_vec();
        // From the end: live rows (8), the one value (1 + 9), the mode.
        let mode_at = crafted.len() - 8 - 10 - 1;
        prop_assert_eq!(crafted[mode_at], 2);
        crafted[mode_at] = mode;
        for bytes in [&crafted, &noise] {
            for retracts in [false, true] {
                let _ = max_by_key(retracts).restore(&Checkpoint(Bytes::copy_from_slice(bytes)));
            }
        }
    }
}

/// `GROUP BY col0` computing `MAX(col1)`.
fn max_by_key(input_retracts: bool) -> Aggregate {
    Aggregate::new(
        vec![ScalarExpr::col(0)],
        vec![AggCall {
            func: AggFunc::Max,
            arg: Some(ScalarExpr::col(1)),
            distinct: false,
        }],
        None,
        Duration::ZERO,
        input_retracts,
    )
}
