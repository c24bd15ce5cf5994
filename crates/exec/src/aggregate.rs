//! Incremental grouped aggregation.
//!
//! One operator covers both of the paper's execution regimes:
//!
//! - **Updating ("retraction") mode** — the default TVR semantics: every
//!   input change immediately updates the output relation, emitting
//!   `retract(old) + insert(new)` per affected group. This is what makes the
//!   plain table view at 8:13 show *partial* window results (Listing 4).
//! - **Event-time finalization** (Extension 2) — when a grouping key is a
//!   watermarked event-time column, the watermark additionally (a) drops
//!   late inputs for closed groups (modulo configurable allowed lateness)
//!   and (b) frees group state once a group can no longer change (§5,
//!   lesson 1). Emission control (only materializing final results) is the
//!   job of the downstream `EMIT AFTER WATERMARK` gate, not the aggregate.

use std::collections::BTreeMap;

use bytes::BufMut;

use onesql_plan::{
    compile_kernel, eval_kernel, AggCall, AggFunc, Frame, Kernel, KernelError, ScalarExpr, Vector,
};
use onesql_state::{Checkpoint, Codec, Decoder, KeyedState, StateMetrics};
use onesql_time::Watermark;
use onesql_tvr::{BatchOut, ChangeBatch, Element};
use onesql_types::{Column, ColumnBuilder, Duration, Error, Result, Row, Ts, Value};

use crate::operator::Operator;
use crate::vector::split_and_repair;

/// An accumulator for one aggregate call within one group.
///
/// Supports `add(value, ±diff)` for every function. `DISTINCT` variants,
/// and `MIN`/`MAX` over an input that can retract, keep a value multiset
/// so retractions are exact; a `MIN`/`MAX` over an input that only
/// inserts keeps its one extremum and refuses a retraction.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    /// True for `COUNT(*)` (no argument): counts rows, not non-null values.
    count_star: bool,
    /// Total weighted row count (for `COUNT(*)`).
    rows: i64,
    /// Weighted count of non-null argument values.
    nonnull: i64,
    /// Integer/interval sum (i128 so transient overflow cannot occur before
    /// retractions cancel).
    int_sum: i128,
    /// Float sum.
    float_sum: f64,
    /// Tag remembering the numeric flavor of SUM inputs.
    sum_kind: Option<SumKind>,
    /// The argument values kept beside the counts and sums.
    kept: Kept,
}

/// What an accumulator keeps of its argument values; its mode.
#[derive(Debug, Clone)]
enum Kept {
    /// Nothing more: `COUNT`, `SUM` and `AVG` without `DISTINCT`.
    Nothing,
    /// Every value with its multiplicity: `DISTINCT` aggregates, and
    /// `MIN`/`MAX` over an input that can retract.
    Multiset(BTreeMap<Value, i64>),
    /// The extremum so far: `MIN`/`MAX` over an input that only inserts,
    /// where one value is all an extremum needs.
    OneValue(Option<Value>),
}

impl Kept {
    /// The mode byte a checkpoint writes before what is kept.
    fn tag(&self) -> u8 {
        match self {
            Kept::Nothing => 0,
            Kept::Multiset(_) => 1,
            Kept::OneValue(_) => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SumKind {
    Int,
    Float,
    Interval,
}

impl Accumulator {
    /// Fresh accumulator for `call`. Whether its input can retract
    /// (`LogicalPlan::retracts`) decides what a `MIN`/`MAX` keeps.
    pub fn for_call(call: &AggCall, input_retracts: bool) -> Accumulator {
        let extremum = matches!(call.func, AggFunc::Min | AggFunc::Max);
        let kept = if extremum && !input_retracts {
            Kept::OneValue(None)
        } else if extremum || call.distinct {
            Kept::Multiset(BTreeMap::new())
        } else {
            Kept::Nothing
        };
        Accumulator {
            func: call.func,
            distinct: call.distinct,
            count_star: call.arg.is_none(),
            rows: 0,
            nonnull: 0,
            int_sum: 0,
            float_sum: 0.0,
            sum_kind: None,
            kept,
        }
    }

    /// Refuse a retraction this accumulator cannot take back: a one-value
    /// `MIN`/`MAX` no longer has the value below its extremum.
    fn check_diff(&self, diff: i64) -> Result<()> {
        if diff < 0 && matches!(self.kept, Kept::OneValue(_)) {
            return Err(Error::exec(format!(
                "a retraction reached {}, which keeps one value because the plan \
                 found its input insert-only",
                self.call()
            )));
        }
        Ok(())
    }

    /// Apply one input row's argument value with a signed weight.
    /// `value = None` means the call is `COUNT(*)` (no argument). A
    /// refused retraction changes nothing.
    pub fn add(&mut self, value: Option<&Value>, diff: i64) -> Result<()> {
        self.check_diff(diff)?;
        self.rows += diff;
        let Some(v) = value else {
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        self.nonnull += diff;
        match &mut self.kept {
            Kept::Nothing => {}
            Kept::Multiset(values) => {
                let e = values.entry(v.clone()).or_insert(0);
                *e += diff;
                if *e == 0 {
                    values.remove(v);
                }
            }
            Kept::OneValue(held) => {
                if held.as_ref().is_none_or(|h| beats(self.func, v, h)) {
                    *held = Some(v.clone());
                }
            }
        }
        // Sums (only consulted by SUM/AVG, but cheap to maintain).
        match v {
            Value::Int(i) => {
                self.int_sum += i128::from(*i) * i128::from(diff);
                self.float_sum += *i as f64 * diff as f64;
                self.sum_kind.get_or_insert(SumKind::Int);
            }
            Value::Float(f) => {
                self.float_sum += f * diff as f64;
                self.sum_kind = Some(SumKind::Float);
            }
            Value::Interval(d) => {
                self.int_sum += i128::from(d.millis()) * i128::from(diff);
                self.sum_kind.get_or_insert(SumKind::Interval);
            }
            _ => {}
        }
        Ok(())
    }

    /// Merge another accumulator of the same shape into this one (used by
    /// session-window merging, where two sessions' partial aggregates
    /// combine). Panics if the shapes differ: one plan builds one shape,
    /// and a restore refuses accumulators that do not fit the plan.
    pub fn merge(&mut self, other: &Accumulator) {
        assert_eq!(self.func, other.func, "accumulator shape mismatch");
        assert_eq!(self.distinct, other.distinct, "accumulator shape mismatch");
        self.rows += other.rows;
        self.nonnull += other.nonnull;
        self.int_sum += other.int_sum;
        self.float_sum += other.float_sum;
        if self.sum_kind.is_none() {
            self.sum_kind = other.sum_kind;
        } else if other.sum_kind == Some(SumKind::Float) {
            self.sum_kind = Some(SumKind::Float);
        }
        match (&mut self.kept, &other.kept) {
            (Kept::Multiset(mine), Kept::Multiset(theirs)) => {
                for (v, d) in theirs {
                    let e = mine.entry(v.clone()).or_insert(0);
                    *e += d;
                    if *e == 0 {
                        mine.remove(v);
                    }
                }
            }
            (Kept::OneValue(mine), Kept::OneValue(Some(theirs))) => {
                if mine.as_ref().is_none_or(|m| beats(self.func, theirs, m)) {
                    *mine = Some(theirs.clone());
                }
            }
            (Kept::Nothing, Kept::Nothing) | (Kept::OneValue(_), Kept::OneValue(None)) => {}
            _ => panic!("accumulator shape mismatch"),
        }
    }

    /// Current aggregate value.
    pub fn value(&self) -> Result<Value> {
        let distinct = match &self.kept {
            Kept::Multiset(values) if self.distinct => Some(values),
            _ => None,
        };
        match self.func {
            AggFunc::Count => {
                if let Some(values) = distinct {
                    Ok(Value::Int(values.len() as i64))
                } else if self.count_star {
                    Ok(Value::Int(self.rows))
                } else {
                    Ok(Value::Int(self.nonnull))
                }
            }
            AggFunc::Sum => match distinct {
                Some(values) => {
                    let mut acc: Option<Value> = None;
                    for v in values.keys() {
                        acc = Some(match acc {
                            None => v.clone(),
                            Some(a) => a.add(v)?,
                        });
                    }
                    Ok(acc.unwrap_or(Value::Null))
                }
                None => self.sum_value(),
            },
            AggFunc::Avg => {
                let (sum, count) = match distinct {
                    Some(values) => {
                        let mut s = 0.0;
                        for v in values.keys() {
                            s += v.as_float()?;
                        }
                        (s, values.len() as i64)
                    }
                    None => (self.float_sum, self.nonnull),
                };
                if count == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(sum / count as f64))
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(match &self.kept {
                Kept::Multiset(values) if self.func == AggFunc::Min => values.keys().next(),
                Kept::Multiset(values) => values.keys().next_back(),
                Kept::OneValue(held) => held.as_ref(),
                Kept::Nothing => None,
            }
            .cloned()
            .unwrap_or(Value::Null)),
        }
    }

    fn sum_value(&self) -> Result<Value> {
        if self.nonnull == 0 {
            return Ok(Value::Null);
        }
        match self.sum_kind {
            Some(SumKind::Int) => {
                let s = i64::try_from(self.int_sum)
                    .map_err(|_| Error::exec("BIGINT overflow in SUM"))?;
                Ok(Value::Int(s))
            }
            Some(SumKind::Float) => Ok(Value::Float(self.float_sum)),
            Some(SumKind::Interval) => {
                let s = i64::try_from(self.int_sum)
                    .map_err(|_| Error::exec("INTERVAL overflow in SUM"))?;
                Ok(Value::Interval(Duration(s)))
            }
            None => Ok(Value::Null),
        }
    }

    /// The call this accumulator computes, as `MAX(DISTINCT x)` or
    /// `COUNT(*)`.
    fn call(&self) -> String {
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        let arg = if self.count_star { "*" } else { "x" };
        format!("{}({distinct}{arg})", self.func.name())
    }
}

/// Whether `candidate` replaces `held` as a one-value `MIN`/`MAX`'s
/// extremum. Only a strictly better value does, so of equal values the
/// first stays, as it does as a multiset's key.
fn beats(func: AggFunc, candidate: &Value, held: &Value) -> bool {
    match func {
        AggFunc::Min => candidate < held,
        _ => candidate > held,
    }
}

/// Refuse restored accumulators that are not the ones the plan builds —
/// `fresh`, one per call, of its function, `DISTINCT`, `COUNT(*)` and
/// mode — so a checkpoint of another plan is a typed error, not an index
/// or shape panic, nor a wrong extremum, at the next change.
pub(crate) fn check_accumulators(accs: &[Accumulator], fresh: &[Accumulator]) -> Result<()> {
    let shape = |a: &Accumulator| (a.func, a.distinct, a.count_star, a.kept.tag());
    if accs.iter().map(shape).eq(fresh.iter().map(shape)) {
        return Ok(());
    }
    let list = |accs: &[Accumulator]| {
        let shape = |acc: &Accumulator| match acc.kept {
            Kept::OneValue(_) => format!("{} kept as one value", acc.call()),
            _ => acc.call(),
        };
        accs.iter().map(shape).collect::<Vec<_>>()
    };
    Err(Error::exec(format!(
        "checkpoint does not match the plan: it holds aggregates [{}], the plan computes [{}]",
        list(accs).join(", "),
        list(fresh).join(", ")
    )))
}

impl Codec for Accumulator {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        let func_tag: u8 = match self.func {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
            AggFunc::Avg => 4,
        };
        buf.put_u8(func_tag);
        self.distinct.encode(buf);
        self.count_star.encode(buf);
        self.rows.encode(buf);
        self.nonnull.encode(buf);
        // i128 as two halves.
        buf.put_u64_le(self.int_sum as u64);
        buf.put_u64_le((self.int_sum >> 64) as u64);
        buf.put_f64_le(self.float_sum);
        let kind_tag: u8 = match self.sum_kind {
            None => 0,
            Some(SumKind::Int) => 1,
            Some(SumKind::Float) => 2,
            Some(SumKind::Interval) => 3,
        };
        buf.put_u8(kind_tag);
        buf.put_u8(self.kept.tag());
        match &self.kept {
            Kept::Nothing => {}
            Kept::Multiset(values) => {
                buf.put_u64_le(values.len() as u64);
                for (v, d) in values {
                    v.encode(buf);
                    d.encode(buf);
                }
            }
            Kept::OneValue(held) => held.encode(buf),
        }
    }

    fn encoded_len(&self) -> usize {
        // Tags, flags, counts, sums, sum kind and mode byte.
        const FIXED: usize = 1 + 1 + 1 + 8 + 8 + 16 + 8 + 1 + 1;
        FIXED
            + match &self.kept {
                Kept::Nothing => 0,
                Kept::Multiset(values) => {
                    8 + values.keys().map(|v| v.encoded_len() + 8).sum::<usize>()
                }
                Kept::OneValue(held) => held.encoded_len(),
            }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let func = match u8::decode(input)? {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            2 => AggFunc::Min,
            3 => AggFunc::Max,
            4 => AggFunc::Avg,
            t => return Err(Error::exec(format!("bad aggregate tag {t} in checkpoint"))),
        };
        let distinct = bool::decode(input)?;
        let count_star = bool::decode(input)?;
        let rows = i64::decode(input)?;
        let nonnull = i64::decode(input)?;
        let low = u64::decode(input)? as u128;
        let high = u64::decode(input)? as u128;
        let int_sum = ((high << 64) | low) as i128;
        let float_sum = f64::from_bits(u64::decode(input)?);
        let sum_kind = match u8::decode(input)? {
            0 => None,
            1 => Some(SumKind::Int),
            2 => Some(SumKind::Float),
            3 => Some(SumKind::Interval),
            t => return Err(Error::exec(format!("bad sum-kind tag {t} in checkpoint"))),
        };
        let kept = match u8::decode(input)? {
            0 => Kept::Nothing,
            1 => Kept::Multiset(Vec::<(Value, i64)>::decode(input)?.into_iter().collect()),
            2 => Kept::OneValue(Option::decode(input)?),
            t => {
                return Err(Error::exec(format!(
                    "bad accumulator mode {t} in checkpoint"
                )))
            }
        };
        Ok(Accumulator {
            func,
            distinct,
            count_star,
            rows,
            nonnull,
            int_sum,
            float_sum,
            sum_kind,
            kept,
        })
    }
}

/// Per-group state: one accumulator per aggregate call plus the live input
/// row count (a group disappears when its count reaches zero).
#[derive(Debug, Clone)]
struct GroupState {
    accs: Vec<Accumulator>,
    live_rows: i64,
}

impl GroupState {
    /// A group before its first change, with `calls`' accumulators.
    fn fresh(calls: &[AggCall], input_retracts: bool) -> GroupState {
        GroupState {
            accs: calls
                .iter()
                .map(|call| Accumulator::for_call(call, input_retracts))
                .collect(),
            live_rows: 0,
        }
    }
}

impl Codec for GroupState {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.accs.encode(buf);
        self.live_rows.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.accs.encoded_len() + 8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(GroupState {
            accs: Vec::decode(input)?,
            live_rows: i64::decode(input)?,
        })
    }
}

/// Where [`Aggregate::fold`] reports a group's output row: its aggregate
/// values before the change (when it had a row) and after (when it has
/// one).
trait FoldSink {
    fn before(&mut self, accs: &[Accumulator]) -> Result<()>;
    fn after(&mut self, accs: &[Accumulator]) -> Result<()>;
}

/// The row oracle's sink: the values, as rows will hold them.
#[derive(Default)]
struct RowValues {
    old: Vec<Value>,
    new: Vec<Value>,
}

impl FoldSink for RowValues {
    fn before(&mut self, accs: &[Accumulator]) -> Result<()> {
        values_into(accs, &mut self.old)
    }
    fn after(&mut self, accs: &[Accumulator]) -> Result<()> {
        values_into(accs, &mut self.new)
    }
}

fn values_into(accs: &[Accumulator], out: &mut Vec<Value>) -> Result<()> {
    for acc in accs {
        out.push(acc.value()?);
    }
    Ok(())
}

/// The batch path's sink: row `i` of `batch` writes its retract and its
/// insert straight into the output columns.
struct BatchRow<'a> {
    output: &'a mut FoldOutput,
    batch: &'a ChangeBatch,
    i: usize,
}

impl FoldSink for BatchRow<'_> {
    fn before(&mut self, accs: &[Accumulator]) -> Result<()> {
        self.output.push(self.batch, self.i, -1, accs)
    }
    fn after(&mut self, accs: &[Accumulator]) -> Result<()> {
        self.output.push(self.batch, self.i, 1, accs)
    }
}

/// The output of folding one batch, columnar: which input rows emitted
/// (their key columns are gathered at the end), the aggregate values they
/// emitted, and the lanes — −1/+1 diffs, the emitting row's ptime, and its
/// origin, since a retract/insert pair is one event's output.
struct FoldOutput {
    rows: Vec<u32>,
    aggs: Vec<ColumnBuilder>,
    diffs: Vec<i64>,
    ptimes: Vec<Ts>,
    origins: Vec<u32>,
}

impl FoldOutput {
    fn new(aggs: usize, capacity: usize) -> FoldOutput {
        FoldOutput {
            rows: Vec::with_capacity(capacity),
            aggs: (0..aggs)
                .map(|_| ColumnBuilder::with_capacity(capacity))
                .collect(),
            diffs: Vec::with_capacity(capacity),
            ptimes: Vec::with_capacity(capacity),
            origins: Vec::with_capacity(capacity),
        }
    }

    /// One output row of `batch`'s logical row `i`, with the aggregate
    /// values of `accs`. On an error no row is left half written.
    fn push(
        &mut self,
        batch: &ChangeBatch,
        i: usize,
        diff: i64,
        accs: &[Accumulator],
    ) -> Result<()> {
        let n = self.rows.len();
        for (j, acc) in accs.iter().enumerate() {
            match acc.value() {
                Ok(value) => self.aggs[j].push(value),
                Err(e) => {
                    self.aggs[..j]
                        .iter_mut()
                        .for_each(|column| column.truncate(n));
                    return Err(e);
                }
            }
        }
        self.rows.push(i as u32);
        self.diffs.push(diff);
        self.ptimes.push(batch.ptime(i));
        self.origins.push(batch.origin(i));
        Ok(())
    }

    /// Drop the last two rows — a retract and an insert of one group —
    /// when their aggregate values are equal: the change left the group's
    /// output row as it was.
    fn drop_unchanged_pair(&mut self) {
        let n = self.rows.len();
        let same = self
            .aggs
            .iter()
            .all(|column| column.value(n - 2) == column.value(n - 1));
        if same {
            for column in &mut self.aggs {
                column.truncate(n - 2);
            }
            self.rows.truncate(n - 2);
            self.diffs.truncate(n - 2);
            self.ptimes.truncate(n - 2);
            self.origins.truncate(n - 2);
        }
    }

    /// The batch: group-key columns (`keys`, as evaluated over the input)
    /// gathered at the emitting rows, then the aggregate columns. When the
    /// fold failed at an event, the rows that event already emitted — the
    /// trailing ones — go with it.
    fn finish(self, keys: &[Vector], failed: Option<u32>) -> Option<ChangeBatch> {
        let built = self.rows.len();
        let is_failed = |origin: &&u32| Some(**origin) == failed;
        let kept = built - self.origins.iter().rev().take_while(is_failed).count();
        if kept == 0 {
            return None;
        }
        let key_columns = keys.iter().map(|key| match key {
            Vector::Col(column) => column.gather(&self.rows),
            Vector::Scalar(value) => Column::repeat(value, built),
        });
        let agg_columns = self.aggs.into_iter().map(ColumnBuilder::finish);
        let columns = key_columns.chain(agg_columns).collect();
        let batch =
            ChangeBatch::new_dense(columns, self.diffs, self.ptimes).with_origins(self.origins);
        Some(if kept < built {
            batch.slice(0, kept)
        } else {
            batch
        })
    }
}

/// The grouped-aggregation operator.
pub struct Aggregate {
    group_exprs: Vec<ScalarExpr>,
    aggs: Vec<AggCall>,
    /// A group before its first change: the accumulators `aggs` build
    /// over this input.
    fresh: GroupState,
    /// Index within the group key of a watermarked event-time column.
    event_time_key: Option<usize>,
    /// Extra slack before closed-group state is dropped (Extension 2 notes
    /// "a configurable amount of allowed lateness is often needed").
    allowed_lateness: Duration,
    state: KeyedState<GroupState>,
    watermark: Watermark,
    /// Count of inputs dropped as too late (observability).
    late_dropped: u64,
    /// Lazily compiled column kernels for the batch path: one per group
    /// expression, one per aggregate argument (None for `COUNT(*)`).
    kernels: Option<(Vec<Kernel>, Vec<Option<Kernel>>)>,
}

impl Aggregate {
    /// Build from plan parameters. `input_retracts` is the input's
    /// `LogicalPlan::retracts`: over an input that only inserts, `MIN` and
    /// `MAX` keep one value.
    pub fn new(
        group_exprs: Vec<ScalarExpr>,
        aggs: Vec<AggCall>,
        event_time_key: Option<usize>,
        allowed_lateness: Duration,
        input_retracts: bool,
    ) -> Aggregate {
        Aggregate {
            group_exprs,
            fresh: GroupState::fresh(&aggs, input_retracts),
            aggs,
            event_time_key,
            allowed_lateness,
            state: KeyedState::new(),
            watermark: Watermark::MIN,
            late_dropped: 0,
            kernels: None,
        }
    }

    /// Inputs dropped because their group was already closed.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    fn key_of(&self, row: &Row) -> Result<Vec<Value>> {
        self.group_exprs.iter().map(|e| e.eval(row)).collect()
    }

    fn group_ts(&self, key: &[Value]) -> Result<Option<Ts>> {
        match self.event_time_key {
            None => Ok(None),
            Some(i) => match key.get(i) {
                Some(Value::Ts(t)) => Ok(Some(*t)),
                Some(Value::Null) => {
                    Err(Error::exec("NULL event-time grouping key is not allowed"))
                }
                Some(other) => Err(Error::exec(format!(
                    "event-time grouping key must be TIMESTAMP, got {}",
                    other.data_type()
                ))),
                None => Err(Error::exec(format!(
                    "event-time grouping key {i} out of range for {} keys",
                    key.len()
                ))),
            },
        }
    }

    /// The event time at which a group's state may be dropped.
    fn retirement_ts(&self, group_ts: Ts) -> Ts {
        group_ts.saturating_add(self.allowed_lateness)
    }

    /// Extension 2: inputs for groups the watermark has closed (plus
    /// lateness) are dropped. Returns `true` if the input was dropped.
    fn check_late(&mut self, key: &[Value]) -> Result<bool> {
        if let Some(ts) = self.group_ts(key)? {
            if self.watermark.closes(self.retirement_ts(ts)) {
                self.late_dropped += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Fold one change into the group `key` names — found in one hashed
    /// probe by the borrowed values; a key row and a fresh group are built
    /// only on the group's first sight — and hand `sink` the accumulators
    /// of its output row before and after the change. Returns
    /// whether the group had an output row before, and whether it has one
    /// now. `arg(j)` is the change's argument to aggregate `j` (`None` for
    /// `COUNT(*)`). Shared by the per-row and batch paths so their
    /// changelogs agree byte for byte.
    fn fold(
        &mut self,
        key: &[Value],
        arg: impl Fn(usize) -> Option<Value>,
        diff: i64,
        sink: &mut impl FoldSink,
    ) -> Result<(bool, bool)> {
        // A retraction a one-value accumulator refuses fails before any
        // group changes.
        if diff < 0 {
            self.fresh
                .accs
                .iter()
                .try_for_each(|acc| acc.check_diff(diff))?;
        }
        // The global group (no GROUP BY) shows a row even when empty.
        let is_global = self.group_exprs.is_empty();
        let (group, had_row) = match self.state.get_mut(key) {
            Some(group) => {
                let had_row = group.live_rows > 0 || is_global;
                if had_row {
                    sink.before(&group.accs)?;
                }
                (group, had_row)
            }
            None => {
                let key = Row::from_values(key.iter().cloned());
                let fresh = &self.fresh;
                (
                    self.state.entry_or_insert_with(key, || fresh.clone()),
                    false,
                )
            }
        };
        group.live_rows += diff;
        for (j, acc) in group.accs.iter_mut().enumerate() {
            acc.add(arg(j).as_ref(), diff)?;
        }
        let has_row = group.live_rows > 0 || is_global;
        if has_row {
            sink.after(&group.accs)?;
        } else {
            self.state.remove(key);
        }
        Ok((had_row, has_row))
    }

    /// The row oracle's fold of one change (with pre-evaluated group key
    /// and aggregate arguments): retract the group's old output row, insert
    /// its new one, unless they are the same.
    fn apply_data(
        &mut self,
        key: &[Value],
        args: &[Option<Value>],
        diff: i64,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        let mut values = RowValues::default();
        let (had_row, has_row) = self.fold(key, |j| args[j].clone(), diff, &mut values)?;
        let RowValues { old, new } = values;
        if had_row == has_row && old == new {
            return Ok(());
        }
        // Retract before insert so downstream sees a consistent transition.
        let output = |aggs: Vec<Value>| Row::from_values(key.iter().cloned().chain(aggs));
        if had_row {
            out.push(Element::retract(output(old)));
        }
        if has_row {
            out.push(Element::insert(output(new)));
        }
        Ok(())
    }

    /// Evaluate the group keys and aggregate arguments of `batch` columnar,
    /// compiling the kernels on first use.
    fn eval_columns(
        &mut self,
        batch: &ChangeBatch,
    ) -> std::result::Result<(Vec<Vector>, Vec<Option<Vector>>), KernelError> {
        let (group_kernels, arg_kernels) = self.kernels.get_or_insert_with(|| {
            (
                self.group_exprs.iter().map(compile_kernel).collect(),
                self.aggs
                    .iter()
                    .map(|a| a.arg.as_ref().map(compile_kernel))
                    .collect(),
            )
        });
        let frame = Frame::new(batch.columns(), batch.selection(), batch.len());
        let keys = group_kernels
            .iter()
            .map(|k| eval_kernel(k, &frame, None))
            .collect::<std::result::Result<_, _>>()?;
        let args = arg_kernels
            .iter()
            .map(|o| o.as_ref().map(|k| eval_kernel(k, &frame, None)).transpose())
            .collect::<std::result::Result<_, _>>()?;
        Ok((keys, args))
    }
}

impl Operator for Aggregate {
    fn initialize(&mut self, _now: Ts, out: &mut Vec<Element>) -> Result<()> {
        // A global aggregate (no GROUP BY) over an empty input is one row
        // (COUNT = 0, other aggregates NULL), per standard SQL. Seed it.
        if self.group_exprs.is_empty() {
            let group = self.fresh.clone();
            let mut initial = Vec::new();
            values_into(&group.accs, &mut initial)?;
            self.state.put(Row::empty(), group);
            out.push(Element::insert(Row::new(initial)));
        }
        Ok(())
    }

    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let key = self.key_of(&change.row)?;
                if self.check_late(&key)? {
                    return Ok(());
                }
                let mut args = Vec::with_capacity(self.aggs.len());
                for call in &self.aggs {
                    args.push(match &call.arg {
                        Some(e) => Some(e.eval(&change.row)?),
                        None => None,
                    });
                }
                self.apply_data(&key, &args, change.diff, out)?;
            }
            Element::Watermark(wm) => {
                if !self.watermark.advance_to(wm) {
                    return Ok(());
                }
                // Free state for groups that can no longer change (§5).
                if let Some(key_idx) = self.event_time_key {
                    let watermark = self.watermark;
                    let lateness = self.allowed_lateness;
                    self.state.retire_where(|key, _| match key.value(key_idx) {
                        Ok(Value::Ts(t)) => watermark.closes(t.saturating_add(lateness)),
                        _ => false,
                    });
                }
                out.push(Element::Watermark(self.watermark));
            }
        }
        Ok(())
    }

    /// Keys and arguments evaluate columnar; the fold then visits the rows
    /// in order, because every change emits against the state the changes
    /// before it left. Nothing is built per row: the key is read into one
    /// reused buffer, arguments go from their columns to the accumulators,
    /// aggregate values go from the accumulators to the output columns,
    /// and the output — the per-change retract/insert sequence the
    /// changelog encodes, a pair whose values are equal taken back — is
    /// gathered into one columnar batch.
    fn process_batch(
        &mut self,
        port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // (Evaluating arguments for rows the lateness check later drops is
        // unobservable on the success path; a kernel error at such a row is
        // repaired by replaying its event through the per-row oracle, which
        // drops the row without error — exactly as the oracle would.)
        let (keys, args) = match self.eval_columns(batch) {
            Ok(evald) => evald,
            Err(e) => return split_and_repair(self, port, batch, e.row, out),
        };
        let n = batch.len();
        let mut output = FoldOutput::new(self.aggs.len(), 2 * n);
        let mut key = Vec::with_capacity(keys.len());
        let mut failed = None;
        for i in 0..n {
            key.clear();
            key.extend(keys.iter().map(|k| k.value_at(i)));
            let arg = |j: usize| args[j].as_ref().map(|a: &Vector| a.value_at(i));
            let change = self.check_late(&key).and_then(|late| {
                if late {
                    return Ok((false, false));
                }
                let mut sink = BatchRow {
                    output: &mut output,
                    batch,
                    i,
                };
                self.fold(&key, arg, batch.diff(i), &mut sink)
            });
            match change {
                Ok((true, true)) => output.drop_unchanged_pair(),
                Ok(_) => {}
                Err(e) => {
                    failed = Some((i, e));
                    break;
                }
            }
        }
        let failed_event = failed.as_ref().map(|(i, _)| batch.origin(*i));
        out.extend(output.finish(&keys, failed_event).map(BatchOut::Batch));
        match failed {
            None => Ok(()),
            Some((i, e)) => {
                out.push(BatchOut::failed_at(batch.ptime(i)));
                Err(e)
            }
        }
    }

    fn state_metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.state.len(),
            encoded_bytes: 0,
        }
    }

    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let snapshot = (
            self.watermark.ts(),
            self.late_dropped,
            self.state.checkpoint().0,
        );
        Ok(Some(Checkpoint(snapshot.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (wm, late, state_bytes): (Ts, u64, bytes::Bytes) = Codec::from_bytes(&checkpoint.0)?;
        let mut state: KeyedState<GroupState> = KeyedState::new();
        state.restore(&Checkpoint(state_bytes))?;
        for (key, group) in state.iter() {
            if key.arity() != self.group_exprs.len() {
                return Err(Error::exec(format!(
                    "checkpoint does not match the plan: a group key has {} columns, \
                     the plan groups by {}",
                    key.arity(),
                    self.group_exprs.len()
                )));
            }
            check_accumulators(&group.accs, &self.fresh.accs)?;
        }
        self.watermark = Watermark(wm);
        self.late_dropped = late;
        self.state = state;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_tvr::Change;
    use onesql_types::row;

    fn agg_max_by_key() -> Aggregate {
        // GROUP BY col0, MAX(col1).
        Aggregate::new(
            vec![ScalarExpr::col(0)],
            vec![AggCall {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            }],
            None,
            Duration::ZERO,
            true,
        )
    }

    fn push(op: &mut Aggregate, e: Element) -> Vec<Element> {
        let mut out = Vec::new();
        op.process(0, e, Ts(0), &mut out).unwrap();
        out
    }

    #[test]
    fn grouped_max_updates_with_retractions() {
        let mut agg = agg_max_by_key();
        // First row creates the group.
        let out = push(&mut agg, Element::insert(row!("w1", 2i64)));
        assert_eq!(out, vec![Element::insert(row!("w1", 2i64))]);
        // Higher value: retract old output, insert new.
        let out = push(&mut agg, Element::insert(row!("w1", 4i64)));
        assert_eq!(
            out,
            vec![
                Element::retract(row!("w1", 2i64)),
                Element::insert(row!("w1", 4i64)),
            ]
        );
        // Lower value: output unchanged, nothing emitted.
        let out = push(&mut agg, Element::insert(row!("w1", 1i64)));
        assert!(out.is_empty());
        // Retract the max: falls back to 2.
        let out = push(&mut agg, Element::retract(row!("w1", 4i64)));
        assert_eq!(
            out,
            vec![
                Element::retract(row!("w1", 4i64)),
                Element::insert(row!("w1", 2i64)),
            ]
        );
    }

    #[test]
    fn group_disappears_when_empty() {
        let mut agg = agg_max_by_key();
        push(&mut agg, Element::insert(row!("w1", 2i64)));
        let out = push(&mut agg, Element::retract(row!("w1", 2i64)));
        assert_eq!(out, vec![Element::retract(row!("w1", 2i64))]);
        assert_eq!(agg.state_metrics().keys, 0);
    }

    #[test]
    fn global_aggregate_seeds_initial_row() {
        // SELECT COUNT(*), MAX(col0) with no GROUP BY.
        let mut agg = Aggregate::new(
            vec![],
            vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::col(0)),
                    distinct: false,
                },
            ],
            None,
            Duration::ZERO,
            true,
        );
        let mut out = Vec::new();
        agg.initialize(Ts(0), &mut out).unwrap();
        assert_eq!(out, vec![Element::insert(row!(0i64, Value::Null))]);
        let out = push(&mut agg, Element::insert(row!(5i64)));
        assert_eq!(
            out,
            vec![
                Element::retract(row!(0i64, Value::Null)),
                Element::insert(row!(1i64, 5i64)),
            ]
        );
        // Back to empty: the seeded row returns, not deletion.
        let out = push(&mut agg, Element::retract(row!(5i64)));
        assert_eq!(
            out,
            vec![
                Element::retract(row!(1i64, 5i64)),
                Element::insert(row!(0i64, Value::Null)),
            ]
        );
    }

    #[test]
    fn count_sum_avg_semantics() {
        // GROUP BY col0: COUNT(col1), SUM(col1), AVG(col1).
        let mut agg = Aggregate::new(
            vec![ScalarExpr::col(0)],
            vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: Some(ScalarExpr::col(1)),
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(1)),
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::col(1)),
                    distinct: false,
                },
            ],
            None,
            Duration::ZERO,
            true,
        );
        push(&mut agg, Element::insert(row!("k", 10i64)));
        let out = push(&mut agg, Element::insert(row!("k", 20i64)));
        assert_eq!(
            out.last().unwrap(),
            &Element::insert(row!("k", 2i64, 30i64, 15.0))
        );
        // NULL argument: COUNT/SUM/AVG ignore it but the row still counts
        // for group liveness.
        let out = push(
            &mut agg,
            Element::insert(Row::new(vec![Value::str("k"), Value::Null])),
        );
        assert!(
            out.is_empty(),
            "null arg leaves aggregates unchanged: {out:?}"
        );
    }

    #[test]
    fn distinct_aggregates() {
        let mut agg = Aggregate::new(
            vec![],
            vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: Some(ScalarExpr::col(0)),
                    distinct: true,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(0)),
                    distinct: true,
                },
            ],
            None,
            Duration::ZERO,
            true,
        );
        let mut out = Vec::new();
        agg.initialize(Ts(0), &mut out).unwrap();
        push(&mut agg, Element::insert(row!(5i64)));
        push(&mut agg, Element::insert(row!(5i64)));
        let out = push(&mut agg, Element::insert(row!(7i64)));
        assert_eq!(out.last().unwrap(), &Element::insert(row!(2i64, 12i64)));
        // Retract one of the duplicate 5s: distinct values unchanged.
        let out = push(&mut agg, Element::retract(row!(5i64)));
        assert!(out.is_empty());
        // Retract the second 5: now only 7 remains.
        let out = push(&mut agg, Element::retract(row!(5i64)));
        assert_eq!(out.last().unwrap(), &Element::insert(row!(1i64, 7i64)));
    }

    #[test]
    fn late_inputs_dropped_after_watermark_closes_group() {
        // GROUP BY event-time col0, COUNT(*).
        let mut agg = Aggregate::new(
            vec![ScalarExpr::col(0)],
            vec![AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            Some(0),
            Duration::ZERO,
            true,
        );
        push(&mut agg, Element::insert(row!(Ts::hm(8, 10), 1i64)));
        assert_eq!(agg.state_metrics().keys, 1);
        // Watermark passes 8:10: state freed.
        let out = push(&mut agg, Element::watermark(Ts::hm(8, 12)));
        assert_eq!(out, vec![Element::watermark(Ts::hm(8, 12))]);
        assert_eq!(agg.state_metrics().keys, 0);
        // A late row for the closed group is dropped silently.
        let out = push(&mut agg, Element::insert(row!(Ts::hm(8, 10), 9i64)));
        assert!(out.is_empty());
        assert_eq!(agg.late_dropped(), 1);
        // A row for an open group still works.
        let out = push(&mut agg, Element::insert(row!(Ts::hm(8, 20), 1i64)));
        assert_eq!(out, vec![Element::insert(row!(Ts::hm(8, 20), 1i64))]);
    }

    #[test]
    fn allowed_lateness_keeps_groups_open() {
        let mut agg = Aggregate::new(
            vec![ScalarExpr::col(0)],
            vec![AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            Some(0),
            Duration::from_minutes(5),
            true,
        );
        push(&mut agg, Element::insert(row!(Ts::hm(8, 10), 1i64)));
        // Watermark at 8:12 closes the group but is within lateness.
        push(&mut agg, Element::watermark(Ts::hm(8, 12)));
        assert_eq!(agg.state_metrics().keys, 1);
        let out = push(&mut agg, Element::insert(row!(Ts::hm(8, 10), 2i64)));
        assert_eq!(
            out,
            vec![
                Element::retract(row!(Ts::hm(8, 10), 1i64)),
                Element::insert(row!(Ts::hm(8, 10), 2i64)),
            ]
        );
        // Watermark past 8:15: now the state goes.
        push(&mut agg, Element::watermark(Ts::hm(8, 16)));
        assert_eq!(agg.state_metrics().keys, 0);
        assert_eq!(agg.late_dropped(), 0);
    }

    #[test]
    fn watermark_regressions_ignored() {
        let mut agg = agg_max_by_key();
        let out = push(&mut agg, Element::watermark(Ts::hm(8, 10)));
        assert_eq!(out.len(), 1);
        let out = push(&mut agg, Element::watermark(Ts::hm(8, 5)));
        assert!(out.is_empty());
    }

    #[test]
    fn restore_refuses_accumulators_the_plan_does_not_build() {
        let mut source = source_shape_with(|_| {});
        push(&mut source, Element::insert(row!("w1", 2i64)));
        let cp = source.checkpoint().unwrap().unwrap();

        // MAX alone: one accumulator too many.
        let mut fewer = agg_max_by_key();
        let err = fewer.restore(&cp).unwrap_err().to_string();
        assert!(err.contains("does not match the plan"), "{err}");
        assert!(err.contains("MAX(x), COUNT(*)"), "{err}");
        // Nothing was restored: the operator still folds from empty.
        assert_eq!(fewer.state_metrics().keys, 0);
        let out = push(&mut fewer, Element::insert(row!("w1", 3i64)));
        assert_eq!(out, vec![Element::insert(row!("w1", 3i64))]);

        // Same count, other function; other DISTINCT; other key arity.
        let mut min = source_shape_with(|aggs| aggs[0].func = AggFunc::Min);
        let mut count_col = source_shape_with(|aggs| aggs[1].arg = Some(ScalarExpr::col(1)));
        let mut distinct = source_shape_with(|aggs| aggs[0].distinct = true);
        let mut wider = source_shape_with(|_| {});
        wider.group_exprs.push(ScalarExpr::col(1));
        for op in [&mut min, &mut count_col, &mut distinct, &mut wider] {
            let err = op.restore(&cp).unwrap_err().to_string();
            assert!(err.contains("does not match the plan"), "{err}");
        }
        // The plan it came from takes it.
        let mut same = source_shape_with(|_| {});
        same.restore(&cp).unwrap();
        assert_eq!(same.state_metrics().keys, 1);
    }

    /// A value that fails half way through an output row (`COUNT(*)`
    /// written, `SUM` overflowing) leaves the batch's output whole: the
    /// events before the failing one, then the failure's clock.
    #[test]
    fn a_failing_value_leaves_no_half_written_output_row() {
        let mut agg = Aggregate::new(
            vec![ScalarExpr::col(0)],
            vec![
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
            ],
            None,
            Duration::ZERO,
            true,
        );
        let changes = [
            (Ts(1), Change::insert(row!("k", i64::MAX))),
            (Ts(2), Change::insert(row!("j", 5i64))),
            (Ts(3), Change::insert(row!("k", 1i64))),
        ];
        let batch = ChangeBatch::from_changes(&changes).unwrap();
        let mut out = Vec::new();
        let err = agg.process_batch(0, &batch, &mut out).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let [BatchOut::Batch(done), BatchOut::Rows(at, rows)] = &out[..] else {
            panic!("expected the first two events' batch, then the failure: {out:?}");
        };
        assert_eq!((*at, rows.len()), (Ts(3), 0));
        let done: Vec<Row> = (0..done.len()).map(|i| done.row(i)).collect();
        assert_eq!(done, vec![row!("k", 1i64, i64::MAX), row!("j", 1i64, 5i64)]);
    }

    /// GROUP BY col0: MAX(col1), COUNT(*), with `edit` applied to the calls.
    fn source_shape_with(edit: impl FnOnce(&mut Vec<AggCall>)) -> Aggregate {
        let mut aggs = vec![
            AggCall {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            },
            AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
        ];
        edit(&mut aggs);
        Aggregate::new(vec![ScalarExpr::col(0)], aggs, None, Duration::ZERO, true)
    }

    /// An `Aggregate` checkpoint, pinned byte for byte, in each mode:
    /// groups first seen out of key order and an advanced watermark; over
    /// an input that can retract, a group emptied by a retraction and a
    /// `MAX` multiset; over one that only inserts, the same inserts and a
    /// `MAX` kept as one value. The groups are hashed in memory; the
    /// checkpoint still writes them in key order.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        assert_eq!(
            pinned_checkpoint(true),
            GOLDEN_CHECKPOINT,
            "the multiset checkpoint's bytes moved"
        );
        assert_eq!(
            pinned_checkpoint(false),
            GOLDEN_ONE_VALUE_CHECKPOINT,
            "the one-value checkpoint's bytes moved"
        );
    }

    /// `checkpoint_bytes_are_pinned`'s checkpoint in hex, 32 bytes a line.
    fn pinned_checkpoint(input_retracts: bool) -> Vec<String> {
        let mut agg = Aggregate::new(
            vec![ScalarExpr::col(0), ScalarExpr::col(1)],
            vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::col(2)),
                    distinct: false,
                },
            ],
            None,
            Duration::ZERO,
            input_retracts,
        );
        for (key, n, price, diff) in [
            ("w", 3i64, 7i64, 1),
            ("b", 9, 2, 1),
            ("w", 3, 9, 1),
            ("a", 1, 4, 1),
            ("z", 0, 1, 1),
            ("w", 3, 7, -1),
            ("z", 0, 1, -1),
            ("b", 2, 5, 1),
        ] {
            let row = row!(key, n, price);
            let change = if diff > 0 {
                Element::insert(row)
            } else if input_retracts {
                Element::retract(row)
            } else {
                continue;
            };
            push(&mut agg, change);
        }
        push(&mut agg, Element::watermark(Ts::hm(8, 10)));
        let bytes = agg.checkpoint().unwrap().unwrap().0;
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        (0..hex.len())
            .step_by(64)
            .map(|i| hex[i..hex.len().min(i + 64)].to_string())
            .collect()
    }

    /// The multiset checkpoint: the bytes the ordered-tree state wrote
    /// before accumulators had modes (mode 1 is the old `Some` tag).
    const GOLDEN_CHECKPOINT: &[&str] = &[
        "c09bc00100000000000000000000000080020000000000000400000000000000",
        "0200000000000000040100000000000000610201000000000000000200000000",
        "0000000000010100000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000003000001000000000000000100000000",
        "0000000400000000000000000000000000000000000000000010400101010000",
        "0000000000020400000000000000010000000000000001000000000000000200",
        "0000000000000401000000000000006202020000000000000002000000000000",
        "0000000101000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000030000010000000000000001000000000000",
        "0005000000000000000000000000000000000000000000144001010100000000",
        "0000000205000000000000000100000000000000010000000000000002000000",
        "0000000004010000000000000062020900000000000000020000000000000000",
        "0001010000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000300000100000000000000010000000000000002",
        "0000000000000000000000000000000000000000000040010101000000000000",
        "0002020000000000000001000000000000000100000000000000020000000000",
        "0000040100000000000000770203000000000000000200000000000000000001",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000003000001000000000000000100000000000000090000",
        "0000000000000000000000000000000000000022400101010000000000000002",
        "090000000000000001000000000000000100000000000000",
    ];

    /// The one-value checkpoint.
    const GOLDEN_ONE_VALUE_CHECKPOINT: &[&str] = &[
        "c09bc001000000000000000000000000d3020000000000000500000000000000",
        "0200000000000000040100000000000000610201000000000000000200000000",
        "0000000000010100000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000003000001000000000000000100000000",
        "0000000400000000000000000000000000000000000000000010400102010204",
        "0000000000000001000000000000000200000000000000040100000000000000",
        "6202020000000000000002000000000000000000010100000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000003",
        "0000010000000000000001000000000000000500000000000000000000000000",
        "0000000000000000144001020102050000000000000001000000000000000200",
        "0000000000000401000000000000006202090000000000000002000000000000",
        "0000000101000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000030000010000000000000001000000000000",
        "0002000000000000000000000000000000000000000000004001020102020000",
        "0000000000010000000000000002000000000000000401000000000000007702",
        "0300000000000000020000000000000000000102000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000030000",
        "0200000000000000020000000000000010000000000000000000000000000000",
        "0000000000003040010201020900000000000000020000000000000002000000",
        "000000000401000000000000007a020000000000000000020000000000000000",
        "0001010000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000300000100000000000000010000000000000001",
        "000000000000000000000000000000000000000000f03f010201020100000000",
        "0000000100000000000000",
    ];

    fn call(func: AggFunc) -> AggCall {
        AggCall {
            func,
            arg: Some(ScalarExpr::col(0)),
            distinct: false,
        }
    }

    #[test]
    fn min_max_empty_is_null() {
        let mut acc = Accumulator::for_call(&call(AggFunc::Max), true);
        assert_eq!(acc.value().unwrap(), Value::Null);
        acc.add(Some(&Value::Int(3)), 1).unwrap();
        assert_eq!(acc.value().unwrap(), Value::Int(3));
        acc.add(Some(&Value::Int(3)), -1).unwrap();
        assert_eq!(acc.value().unwrap(), Value::Null);
        let one_value = Accumulator::for_call(&call(AggFunc::Max), false);
        assert_eq!(one_value.value().unwrap(), Value::Null);
    }

    /// Over an input that only inserts, `MIN`/`MAX` keep one value, and a
    /// retraction is refused with an error naming the aggregate, the
    /// accumulator unchanged.
    #[test]
    fn a_one_value_extremum_refuses_a_retraction() {
        for (func, want) in [(AggFunc::Max, 5i64), (AggFunc::Min, 1)] {
            let mut acc = Accumulator::for_call(&call(func), false);
            for v in [3i64, 5, 1, 5] {
                acc.add(Some(&Value::Int(v)), 1).unwrap();
            }
            acc.add(Some(&Value::Null), 1).unwrap();
            assert_eq!(acc.value().unwrap(), Value::Int(want));
            let err = acc.add(Some(&Value::Int(want)), -1).unwrap_err();
            let named = format!("reached {}(x), which keeps one value", func.name());
            assert!(err.to_string().contains(&named), "{err}");
            assert_eq!(acc.value().unwrap(), Value::Int(want));
        }
    }

    /// A retraction reaching an insert-only `MAX` fails the event on both
    /// paths, before any group changes: no wrong `MAX` is emitted.
    #[test]
    fn an_insert_only_aggregate_fails_at_a_retraction() {
        let mut agg = source_shape_with(|_| {});
        agg.fresh = GroupState::fresh(&agg.aggs, false);
        push(&mut agg, Element::insert(row!("w1", 2i64)));
        push(&mut agg, Element::insert(row!("w1", 4i64)));
        let before = agg.checkpoint().unwrap();
        let mut out = Vec::new();
        let err = agg
            .process(0, Element::retract(row!("w1", 4i64)), Ts(0), &mut out)
            .unwrap_err();
        assert!(
            err.to_string().contains("reached MAX(x), which keeps one"),
            "{err}"
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(agg.checkpoint().unwrap(), before);

        let changes = [
            (Ts(1), Change::insert(row!("w2", 7i64))),
            (Ts(2), Change::retract(row!("w3", 1i64))),
        ];
        let batch = ChangeBatch::from_changes(&changes).unwrap();
        let mut out = Vec::new();
        let err = agg.process_batch(0, &batch, &mut out).unwrap_err();
        assert!(err.to_string().contains("which keeps one value"), "{err}");
        let [BatchOut::Batch(done), BatchOut::Rows(at, _)] = &out[..] else {
            panic!("expected the first event's batch, then the failure: {out:?}");
        };
        assert_eq!((done.len(), *at), (1, Ts(2)));
        assert_eq!(agg.state_metrics().keys, 2, "no group opened for w3");
    }

    /// A checkpoint taken with `MAX` kept as a multiset is refused by an
    /// operator whose plan keeps it as one value, and the other way round.
    #[test]
    fn restore_refuses_accumulators_in_the_other_mode() {
        let mut multiset = source_shape_with(|_| {});
        let mut one_value = source_shape_with(|_| {});
        one_value.fresh = GroupState::fresh(&one_value.aggs, false);
        for op in [&mut multiset, &mut one_value] {
            push(op, Element::insert(row!("w1", 2i64)));
            push(op, Element::insert(row!("w1", 4i64)));
        }
        let multiset_cp = multiset.checkpoint().unwrap().unwrap();
        let one_value_cp = one_value.checkpoint().unwrap().unwrap();
        assert!(one_value_cp.size_bytes() < multiset_cp.size_bytes());

        let err = one_value.restore(&multiset_cp).unwrap_err().to_string();
        assert!(err.contains("does not match the plan"), "{err}");
        assert!(
            err.contains("[MAX(x), COUNT(*)], the plan computes [MAX(x) kept as one value"),
            "{err}"
        );
        let err = multiset.restore(&one_value_cp).unwrap_err().to_string();
        assert!(err.contains("does not match the plan"), "{err}");
        // Each takes its own mode's checkpoint.
        one_value.restore(&one_value_cp).unwrap();
        multiset.restore(&multiset_cp).unwrap();
    }

    /// `KeyedState::metrics` counts what the checkpoint would write, in
    /// both accumulator modes, without writing it.
    #[test]
    fn encoded_bytes_count_the_checkpoint_in_both_modes() {
        for input_retracts in [true, false] {
            let mut agg = source_shape_with(|aggs| aggs[0].distinct = true);
            agg.fresh = GroupState::fresh(&agg.aggs, input_retracts);
            for (key, price) in [("w1", 2i64), ("w2", 9), ("w1", 4), ("w1", 2)] {
                push(&mut agg, Element::insert(row!(key, price)));
            }
            push(&mut agg, Element::insert(row!("w3", Value::Null)));
            let metrics = agg.state.metrics();
            assert_eq!(metrics.keys, 3);
            assert_eq!(metrics.encoded_bytes, agg.state.checkpoint().size_bytes());
        }
    }

    #[test]
    fn sum_interval_and_float() {
        let mut acc = Accumulator::for_call(&call(AggFunc::Sum), true);
        acc.add(Some(&Value::Interval(Duration::from_minutes(3))), 1)
            .unwrap();
        acc.add(Some(&Value::Interval(Duration::from_minutes(4))), 1)
            .unwrap();
        assert_eq!(
            acc.value().unwrap(),
            Value::Interval(Duration::from_minutes(7))
        );

        let mut acc = Accumulator::for_call(&call(AggFunc::Sum), true);
        acc.add(Some(&Value::Float(1.5)), 1).unwrap();
        acc.add(Some(&Value::Int(2)), 1).unwrap();
        assert_eq!(acc.value().unwrap(), Value::Float(3.5));
    }
}
