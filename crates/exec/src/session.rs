//! Merging session windows (the paper's §8 "expanded/custom event-time
//! windowing": "transitive closure sessions (periods of contiguous
//! activity)").
//!
//! The `Session` TVF assigns each row a provisional `[ts, ts + gap)`
//! interval; this operator performs the transitive-closure merge during
//! aggregation: two sessions of the same partition key merge whenever their
//! intervals touch, so a session extends as long as events keep arriving
//! within `gap` of it. The operator replaces the generic
//! `Window(Session) → Aggregate` pair at compile time when the grouping
//! keys include the provisional `wstart`/`wend` columns.
//!
//! Limitations (documented design choice): input must be insert-only —
//! retracting an event could *split* a merged session, which requires
//! keeping every raw event; engines in the paper's lineage (Flink, Beam)
//! impose the same restriction on merging windows. Since no retraction
//! reaches the accumulators, a `MIN`/`MAX` keeps one value.

use onesql_plan::{AggCall, ScalarExpr};
use onesql_state::{Checkpoint, Codec, Decoder, KeyedState, StateMetrics};
use onesql_time::Watermark;
use onesql_tvr::Element;
use onesql_types::{Duration, Error, Result, Row, Ts, Value};

use crate::aggregate::{check_accumulators, Accumulator};
use crate::operator::Operator;

/// One live session: an interval with partial aggregates.
#[derive(Debug, Clone)]
struct Session {
    start: Ts,
    end: Ts,
    accs: Vec<Accumulator>,
}

impl Codec for Session {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.start.encode(buf);
        self.end.encode(buf);
        self.accs.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        16 + self.accs.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> onesql_types::Result<Self> {
        Ok(Session {
            start: Ts::decode(input)?,
            end: Ts::decode(input)?,
            accs: Vec::decode(input)?,
        })
    }
}

impl Session {
    fn overlaps(&self, start: Ts, end: Ts) -> bool {
        // Sessions merge when the intervals touch: [a,b) ∪ [b,c) is one
        // contiguous activity period.
        start <= self.end && end >= self.start
    }
}

/// The merging session-window aggregate.
///
/// Input rows are the `Session` TVF's output: original columns plus
/// provisional `wstart`/`wend` at the last two positions. Output rows
/// follow the generic aggregate layout `[group keys ..., aggregates ...]`,
/// with the `wstart`/`wend` key positions carrying the *merged* session
/// bounds.
pub struct SessionAggregate {
    /// Key expressions over the input, excluding the window columns.
    partition_exprs: Vec<ScalarExpr>,
    /// Positions of wstart/wend within the output group-key layout.
    wstart_pos: usize,
    wend_pos: usize,
    /// Total number of group keys in the output layout.
    key_arity: usize,
    /// For each partition expr, its position in the output layout.
    partition_positions: Vec<usize>,
    aggs: Vec<AggCall>,
    /// A new event's accumulators, before its values are added.
    fresh: Vec<Accumulator>,
    /// Provisional window columns in the input.
    wstart_col: usize,
    wend_col: usize,
    allowed_lateness: Duration,
    /// Live sessions per partition key, kept sorted by start.
    state: KeyedState<Vec<Session>>,
    watermark: Watermark,
    late_dropped: u64,
}

impl SessionAggregate {
    /// Build from the surrounding Aggregate plan node.
    ///
    /// `group_exprs` is the aggregate's full key list (must be verbatim
    /// column references, including the window TVF's `wstart`/`wend`
    /// columns at input positions `wstart_col`/`wend_col`).
    pub fn new(
        group_exprs: &[ScalarExpr],
        aggs: Vec<AggCall>,
        wstart_col: usize,
        wend_col: usize,
        allowed_lateness: Duration,
    ) -> Result<SessionAggregate> {
        let mut wstart_pos = None;
        let mut wend_pos = None;
        let mut partition_exprs = Vec::new();
        let mut partition_positions = Vec::new();
        for (i, e) in group_exprs.iter().enumerate() {
            match e {
                ScalarExpr::Column(c) if *c == wstart_col => wstart_pos = Some(i),
                ScalarExpr::Column(c) if *c == wend_col => wend_pos = Some(i),
                other => {
                    partition_exprs.push(other.clone());
                    partition_positions.push(i);
                }
            }
        }
        let (Some(wstart_pos), Some(wend_pos)) = (wstart_pos, wend_pos) else {
            return Err(Error::plan(
                "session-window aggregation requires grouping by both wstart and wend",
            ));
        };
        Ok(SessionAggregate {
            partition_exprs,
            wstart_pos,
            wend_pos,
            key_arity: group_exprs.len(),
            partition_positions,
            fresh: aggs
                .iter()
                .map(|call| Accumulator::for_call(call, false))
                .collect(),
            aggs,
            wstart_col,
            wend_col,
            allowed_lateness,
            state: KeyedState::new(),
            watermark: Watermark::MIN,
            late_dropped: 0,
        })
    }

    /// Inputs dropped as too late.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    fn output_row(&self, partition: &Row, session: &Session) -> Result<Row> {
        let mut vals = vec![Value::Null; self.key_arity + self.aggs.len()];
        for (pv, pos) in partition.values().iter().zip(&self.partition_positions) {
            vals[*pos] = pv.clone();
        }
        vals[self.wstart_pos] = Value::Ts(session.start);
        vals[self.wend_pos] = Value::Ts(session.end);
        for (i, acc) in session.accs.iter().enumerate() {
            vals[self.key_arity + i] = acc.value()?;
        }
        Ok(Row::new(vals))
    }
}

impl Operator for SessionAggregate {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                if change.diff < 0 {
                    return Err(Error::unsupported(
                        "session windows require insert-only input (a retraction could \
                         split a merged session)",
                    ));
                }
                let start = change.row.value(self.wstart_col)?.as_ts()?;
                let end = change.row.value(self.wend_col)?.as_ts()?;
                // Late check: an event is late if even its provisional
                // session is closed.
                if self
                    .watermark
                    .closes(end.saturating_add(self.allowed_lateness))
                {
                    self.late_dropped += 1;
                    return Ok(());
                }
                let mut key_vals = Vec::with_capacity(self.partition_exprs.len());
                for e in &self.partition_exprs {
                    key_vals.push(e.eval(&change.row)?);
                }
                let key = Row::new(key_vals);

                // Partial aggregates for the new event.
                let mut accs = self.fresh.clone();
                for (acc, call) in accs.iter_mut().zip(&self.aggs) {
                    let arg = match &call.arg {
                        Some(e) => Some(e.eval(&change.row)?),
                        None => None,
                    };
                    for _ in 0..change.diff {
                        acc.add(arg.as_ref(), 1)?;
                    }
                }
                let mut merged = Session { start, end, accs };

                // Merge with every overlapping live session, retracting
                // their previously emitted rows.
                let sessions = self.state.entry_or_default(key.clone());
                let mut keep = Vec::with_capacity(sessions.len() + 1);
                let mut retracted = Vec::new();
                for s in sessions.drain(..) {
                    if s.overlaps(merged.start, merged.end) {
                        retracted.push(s);
                    } else {
                        keep.push(s);
                    }
                }
                for s in &retracted {
                    merged.start = merged.start.min(s.start);
                    merged.end = merged.end.max(s.end);
                    for (acc, other) in merged.accs.iter_mut().zip(&s.accs) {
                        acc.merge(other);
                    }
                }
                keep.push(merged.clone());
                keep.sort_by_key(|s| s.start);
                *sessions = keep;

                for s in &retracted {
                    out.push(Element::retract(self.output_row(&key, s)?));
                }
                out.push(Element::insert(self.output_row(&key, &merged)?));
            }
            Element::Watermark(wm) => {
                if !self.watermark.advance_to(wm) {
                    return Ok(());
                }
                // Free sessions that can no longer extend: a session ending
                // at `e` merges only with events whose provisional interval
                // starts before `e`, i.e. with timestamps < e; once the
                // watermark passes e (+ lateness) it is final.
                let watermark = self.watermark;
                let lateness = self.allowed_lateness;
                self.state.retire_where(|_, sessions| {
                    sessions
                        .iter()
                        .all(|s| watermark.closes(s.end.saturating_add(lateness)))
                });
                // Partially-final partitions keep all sessions (simpler and
                // conservative; memory bounded by live sessions).
                out.push(Element::Watermark(self.watermark));
            }
        }
        Ok(())
    }

    fn state_metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.state.iter().map(|(_, v)| v.len()).sum(),
            encoded_bytes: 0,
        }
    }

    fn checkpoint(&self) -> onesql_types::Result<Option<Checkpoint>> {
        let snapshot = (
            self.watermark.ts(),
            self.late_dropped,
            self.state.checkpoint().0,
        );
        Ok(Some(Checkpoint(snapshot.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> onesql_types::Result<()> {
        let (wm, late, state_bytes): (Ts, u64, bytes::Bytes) = Codec::from_bytes(&checkpoint.0)?;
        let mut state: KeyedState<Vec<Session>> = KeyedState::new();
        state.restore(&Checkpoint(state_bytes))?;
        for session in state.iter().flat_map(|(_, sessions)| sessions) {
            check_accumulators(&session.accs, &self.fresh)?;
        }
        self.watermark = Watermark(wm);
        self.late_dropped = late;
        self.state = state;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "SessionAggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_plan::AggFunc;
    use onesql_types::row;

    /// Input rows: (user, amount, wstart, wend) — as produced by
    /// Session(gap) over (user, amount, ts) with ts at provisional wstart.
    /// Group by user, wstart, wend; aggregate COUNT(*), SUM(amount).
    fn session_agg(gap_min: i64) -> SessionAggregate {
        let _ = gap_min;
        session_agg_with(|_| {})
    }

    /// `session_agg`'s operator, with `edit` applied to its calls.
    fn session_agg_with(edit: impl FnOnce(&mut Vec<AggCall>)) -> SessionAggregate {
        let mut aggs = vec![
            AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            },
        ];
        edit(&mut aggs);
        SessionAggregate::new(
            &[ScalarExpr::col(0), ScalarExpr::col(3), ScalarExpr::col(4)],
            aggs,
            3,
            4,
            Duration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn restore_refuses_accumulators_the_plan_does_not_build() {
        let mut agg = session_agg(5);
        push(&mut agg, event("u", 10, 0));
        push(&mut agg, event("v", 20, 1));
        let cp = agg.checkpoint().unwrap().unwrap();

        // COUNT(*) alone, and COUNT(*) with SUM(DISTINCT amount).
        let mut fewer = session_agg_with(|aggs| {
            aggs.pop();
        });
        let mut distinct = session_agg_with(|aggs| aggs[1].distinct = true);
        for op in [&mut fewer, &mut distinct] {
            let err = op.restore(&cp).unwrap_err().to_string();
            assert!(err.contains("does not match the plan"), "{err}");
            assert_eq!(op.state_metrics().keys, 0, "nothing was restored");
            // Merging into the session stays well-formed.
            push(op, event("u", 30, 2));
        }

        let mut same = session_agg(5);
        same.restore(&cp).unwrap();
        assert_eq!(same.state_metrics().keys, 2);
        let out = push(&mut same, event("u", 30, 2));
        assert_eq!(out.len(), 2, "the restored session merges: {out:?}");
    }

    /// `MAX(amount)` keeps one value here, since no retraction reaches a
    /// session's accumulators; a checkpoint whose `MAX` kept a multiset
    /// is refused, and the other way round.
    #[test]
    fn restore_refuses_accumulators_in_the_other_mode() {
        let max = |aggs: &mut Vec<AggCall>| aggs[1].func = AggFunc::Max;
        let mut one_value = session_agg_with(max);
        let mut multiset = session_agg_with(max);
        multiset.fresh = multiset
            .aggs
            .iter()
            .map(|call| Accumulator::for_call(call, true))
            .collect();
        for op in [&mut one_value, &mut multiset] {
            push(op, event("u", 10, 0));
            push(op, event("u", 30, 2));
        }
        let one_value_cp = one_value.checkpoint().unwrap().unwrap();
        let multiset_cp = multiset.checkpoint().unwrap().unwrap();
        assert!(one_value_cp.size_bytes() < multiset_cp.size_bytes());

        let err = session_agg_with(max)
            .restore(&multiset_cp)
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not match the plan"), "{err}");
        assert!(err.contains("[COUNT(*), MAX(x)]"), "{err}");
        assert!(err.contains("MAX(x) kept as one value]"), "{err}");
        let err = multiset.restore(&one_value_cp).unwrap_err().to_string();
        assert!(err.contains("does not match the plan"), "{err}");

        let mut same = session_agg_with(max);
        same.restore(&one_value_cp).unwrap();
        let out = push(&mut same, event("u", 20, 4));
        assert_eq!(
            out.last(),
            Some(&Element::insert(row!(
                "u",
                Ts::from_minutes(0),
                Ts::from_minutes(9),
                3i64,
                30i64
            )))
        );
    }

    /// Event at minute `m` with a 5-minute gap.
    fn event(user: &str, amount: i64, m: i64) -> Element {
        Element::insert(row!(
            user,
            amount,
            Ts::from_minutes(m), // raw ts column (unused by operator)
            Ts::from_minutes(m),
            Ts::from_minutes(m + 5)
        ))
    }

    fn push(op: &mut SessionAggregate, e: Element) -> Vec<Element> {
        let mut out = Vec::new();
        op.process(0, e, Ts(0), &mut out).unwrap();
        out
    }

    #[test]
    fn events_within_gap_merge_into_one_session() {
        let mut agg = session_agg(5);
        // First event: session [0, 5).
        let out = push(&mut agg, event("u", 10, 0));
        assert_eq!(
            out,
            vec![Element::insert(row!(
                "u",
                Ts::from_minutes(0),
                Ts::from_minutes(5),
                1i64,
                10i64
            ))]
        );
        // Second event at minute 3: merges into [0, 8).
        let out = push(&mut agg, event("u", 20, 3));
        assert_eq!(
            out,
            vec![
                Element::retract(row!(
                    "u",
                    Ts::from_minutes(0),
                    Ts::from_minutes(5),
                    1i64,
                    10i64
                )),
                Element::insert(row!(
                    "u",
                    Ts::from_minutes(0),
                    Ts::from_minutes(8),
                    2i64,
                    30i64
                )),
            ]
        );
        assert_eq!(agg.state_metrics().keys, 1);
    }

    #[test]
    fn events_beyond_gap_start_new_session() {
        let mut agg = session_agg(5);
        push(&mut agg, event("u", 10, 0));
        let out = push(&mut agg, event("u", 20, 10));
        assert_eq!(
            out,
            vec![Element::insert(row!(
                "u",
                Ts::from_minutes(10),
                Ts::from_minutes(15),
                1i64,
                20i64
            ))]
        );
        assert_eq!(agg.state_metrics().keys, 2);
    }

    #[test]
    fn bridging_event_merges_two_sessions() {
        let mut agg = session_agg(5);
        push(&mut agg, event("u", 1, 0)); // [0, 5)
        push(&mut agg, event("u", 2, 10)); // [10, 15)
                                           // Event at 5 bridges: [5,10) touches both.
        let out = push(&mut agg, event("u", 4, 5));
        assert_eq!(out.len(), 3); // two retractions + one merged insert
        assert_eq!(
            out[2],
            Element::insert(row!(
                "u",
                Ts::from_minutes(0),
                Ts::from_minutes(15),
                3i64,
                7i64
            ))
        );
        assert_eq!(agg.state_metrics().keys, 1);
    }

    #[test]
    fn partitions_are_independent() {
        let mut agg = session_agg(5);
        push(&mut agg, event("a", 1, 0));
        let out = push(&mut agg, event("b", 2, 1));
        // b's event does not merge with a's session.
        assert_eq!(out.len(), 1);
        assert_eq!(agg.state_metrics().keys, 2);
    }

    #[test]
    fn watermark_finalizes_and_drops_late_events() {
        let mut agg = session_agg(5);
        push(&mut agg, event("u", 1, 0)); // session [0,5)
        let out = push(&mut agg, Element::watermark(Ts::from_minutes(6)));
        assert_eq!(out, vec![Element::watermark(Ts::from_minutes(6))]);
        assert_eq!(agg.state_metrics().keys, 0, "closed session freed");
        // An event whose provisional session is already closed is dropped.
        let out = push(&mut agg, event("u", 9, 0));
        assert!(out.is_empty());
        assert_eq!(agg.late_dropped(), 1);
        // A fresh event after the watermark works.
        let out = push(&mut agg, event("u", 3, 7));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn retraction_input_rejected() {
        let mut agg = session_agg(5);
        let mut out = Vec::new();
        let err = agg.process(
            0,
            Element::retract(row!(
                "u",
                1i64,
                Ts::from_minutes(0),
                Ts::from_minutes(0),
                Ts::from_minutes(5)
            )),
            Ts(0),
            &mut out,
        );
        assert!(err.is_err());
    }

    #[test]
    fn requires_window_columns_in_group_key() {
        let err = SessionAggregate::new(&[ScalarExpr::col(0)], vec![], 3, 4, Duration::ZERO);
        assert!(err.is_err());
    }
}
