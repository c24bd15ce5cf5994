//! Stateless and simple operators: source, values, filter, project, union,
//! distinct.

use onesql_plan::{compile_kernel, eval_kernel, Frame, Kernel, ScalarExpr, Vector};
use onesql_state::{Checkpoint, Codec, StateMetrics};
use onesql_time::WatermarkTracker;
use onesql_tvr::{Bag, BatchOut, Change, ChangeBatch, Element};
use onesql_types::{ColumnData, Result, Row, Ts, Value};

use crate::operator::Operator;
use crate::vector::split_and_repair;

/// A stream/table source leaf. The executor routes externally fed elements
/// for the source's table here; the operator forwards them verbatim.
pub struct Source;

impl Operator for Source {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        out.push(elem);
        Ok(())
    }

    fn process_batch(
        &mut self,
        _port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        out.push(BatchOut::Batch(batch.clone()));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Source"
    }
}

/// A constant relation: emits its rows at initialization, then a final
/// watermark (a constant TVR never changes, so it is complete immediately).
pub struct Values {
    rows: Vec<Row>,
}

impl Values {
    /// Create from constant rows.
    pub fn new(rows: Vec<Row>) -> Values {
        Values { rows }
    }
}

impl Operator for Values {
    fn initialize(&mut self, _now: Ts, out: &mut Vec<Element>) -> Result<()> {
        for row in self.rows.drain(..) {
            out.push(Element::Data(Change::insert(row)));
        }
        out.push(Element::Watermark(onesql_time::Watermark::MAX));
        Ok(())
    }

    fn process(
        &mut self,
        _port: usize,
        _elem: Element,
        _now: Ts,
        _out: &mut Vec<Element>,
    ) -> Result<()> {
        Err(onesql_types::Error::exec("Values operator has no inputs"))
    }

    fn name(&self) -> &'static str {
        "Values"
    }
}

/// `WHERE` filter: keeps changes whose rows satisfy the predicate. Because
/// the predicate is a pure function of the row, an insert and its later
/// retraction always agree, so filtering commutes with retraction.
pub struct Filter {
    predicate: ScalarExpr,
    kernel: Kernel,
}

impl Filter {
    /// Create with a boolean predicate.
    pub fn new(predicate: ScalarExpr) -> Filter {
        let kernel = compile_kernel(&predicate);
        Filter { predicate, kernel }
    }
}

impl Operator for Filter {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                if self.predicate.eval(&change.row)? == Value::Bool(true) {
                    out.push(Element::Data(change));
                }
            }
            wm @ Element::Watermark(_) => out.push(wm),
        }
        Ok(())
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let verdict = {
            let frame = Frame::new(batch.columns(), batch.selection(), batch.len());
            eval_kernel(&self.kernel, &frame, None)
        };
        match verdict {
            Ok(v) => {
                let n = batch.len();
                let keep: Vec<u32> = match &v {
                    Vector::Col(c) => match c.data() {
                        ColumnData::Bool { vals, nulls: None } => vals
                            .iter()
                            .enumerate()
                            .filter_map(|(i, &b)| b.then_some(i as u32))
                            .collect(),
                        _ => (0..n)
                            .filter(|&i| v.value_at(i) == Value::Bool(true))
                            .map(|i| i as u32)
                            .collect(),
                    },
                    Vector::Scalar(s) => {
                        if *s == Value::Bool(true) {
                            (0..n as u32).collect()
                        } else {
                            Vec::new()
                        }
                    }
                };
                if keep.len() == n {
                    out.push(BatchOut::Batch(batch.clone()));
                } else if !keep.is_empty() {
                    out.push(BatchOut::Batch(batch.select_logical(&keep)));
                }
                Ok(())
            }
            Err(e) => split_and_repair(self, port, batch, e.row, out),
        }
    }

    fn name(&self) -> &'static str {
        "Filter"
    }
}

/// Projection: maps each row through the expression list, preserving diffs.
pub struct Project {
    exprs: Vec<ScalarExpr>,
    kernels: Vec<Kernel>,
}

impl Project {
    /// Create with one expression per output column.
    pub fn new(exprs: Vec<ScalarExpr>) -> Project {
        let kernels = exprs.iter().map(compile_kernel).collect();
        Project { exprs, kernels }
    }
}

impl Operator for Project {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let mut values = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    values.push(e.eval(&change.row)?);
                }
                out.push(Element::Data(Change::with_diff(
                    Row::new(values),
                    change.diff,
                )));
            }
            wm @ Element::Watermark(_) => out.push(wm),
        }
        Ok(())
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let evald = {
            let frame = Frame::new(batch.columns(), batch.selection(), batch.len());
            self.kernels
                .iter()
                .map(|k| eval_kernel(k, &frame, None).map(|v| v.into_column(batch.len())))
                .collect::<std::result::Result<Vec<_>, _>>()
        };
        match evald {
            Ok(cols) => {
                out.push(BatchOut::Batch(batch.with_columns(cols)));
                Ok(())
            }
            Err(e) => split_and_repair(self, port, batch, e.row, out),
        }
    }

    fn name(&self) -> &'static str {
        "Project"
    }
}

/// Bag union of two inputs. Data passes through; watermarks are merged with
/// the minimum across ports so event-time columns stay aligned.
pub struct UnionAll {
    tracker: WatermarkTracker,
}

impl UnionAll {
    /// Create a two-input union.
    pub fn new() -> UnionAll {
        UnionAll {
            tracker: WatermarkTracker::new(2),
        }
    }
}

impl Default for UnionAll {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for UnionAll {
    fn process(
        &mut self,
        port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            data @ Element::Data(_) => out.push(data),
            Element::Watermark(wm) => {
                if let Some(advanced) = self.tracker.observe(port, wm) {
                    out.push(Element::Watermark(advanced));
                }
            }
        }
        Ok(())
    }

    fn process_batch(
        &mut self,
        _port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        out.push(BatchOut::Batch(batch.clone()));
        Ok(())
    }

    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let wms = (self.tracker.input(0).ts(), self.tracker.input(1).ts());
        Ok(Some(Checkpoint(wms.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (w0, w1): (Ts, Ts) = Codec::from_bytes(&checkpoint.0)?;
        self.tracker = WatermarkTracker::new(2);
        self.tracker.observe(0, onesql_time::Watermark(w0));
        self.tracker.observe(1, onesql_time::Watermark(w1));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "UnionAll"
    }
}

/// `SELECT DISTINCT`: emits an insert when a row's multiplicity rises from
/// zero and a retract when it falls back to zero.
pub struct Distinct {
    seen: Bag,
}

impl Distinct {
    /// Create with empty state.
    pub fn new() -> Distinct {
        Distinct { seen: Bag::new() }
    }
}

impl Default for Distinct {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for Distinct {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let before = self.seen.multiplicity(&change.row) > 0;
                self.seen.update(change.clone());
                let after = self.seen.multiplicity(&change.row) > 0;
                match (before, after) {
                    (false, true) => out.push(Element::insert(change.row)),
                    (true, false) => out.push(Element::retract(change.row)),
                    _ => {}
                }
            }
            wm @ Element::Watermark(_) => out.push(wm),
        }
        Ok(())
    }

    fn state_metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.seen.distinct_len(),
            encoded_bytes: 0,
        }
    }

    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let entries: Vec<(Row, i64)> = self.seen.iter().map(|(r, d)| (r.clone(), d)).collect();
        Ok(Some(Checkpoint(entries.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let entries: Vec<(Row, i64)> = Codec::from_bytes(&checkpoint.0)?;
        self.seen = Bag::new();
        for (row, diff) in entries {
            self.seen.update(onesql_tvr::Change::with_diff(row, diff));
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Distinct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_plan::expr::BinOp;
    use onesql_types::row;

    fn run(op: &mut dyn Operator, elems: Vec<Element>) -> Vec<Element> {
        let mut out = Vec::new();
        for e in elems {
            op.process(0, e, Ts(0), &mut out).unwrap();
        }
        out
    }

    #[test]
    fn filter_drops_non_matching_and_passes_watermarks() {
        let mut f = Filter::new(ScalarExpr::binary(
            ScalarExpr::col(0),
            BinOp::Gt,
            ScalarExpr::lit(2i64),
        ));
        let out = run(
            &mut f,
            vec![
                Element::insert(row!(1i64)),
                Element::insert(row!(3i64)),
                Element::retract(row!(3i64)),
                Element::watermark(Ts::hm(8, 0)),
            ],
        );
        assert_eq!(
            out,
            vec![
                Element::insert(row!(3i64)),
                Element::retract(row!(3i64)),
                Element::watermark(Ts::hm(8, 0)),
            ]
        );
    }

    #[test]
    fn filter_null_predicate_drops() {
        let mut f = Filter::new(ScalarExpr::binary(
            ScalarExpr::col(0),
            BinOp::Gt,
            ScalarExpr::lit(Value::Null),
        ));
        let out = run(&mut f, vec![Element::insert(row!(1i64))]);
        assert!(out.is_empty());
    }

    #[test]
    fn project_maps_rows_preserving_diff() {
        let mut p = Project::new(vec![
            ScalarExpr::binary(ScalarExpr::col(0), BinOp::Mul, ScalarExpr::lit(2i64)),
            ScalarExpr::lit("x"),
        ]);
        let out = run(
            &mut p,
            vec![Element::insert(row!(5i64)), Element::retract(row!(5i64))],
        );
        assert_eq!(
            out,
            vec![
                Element::insert(row!(10i64, "x")),
                Element::retract(row!(10i64, "x")),
            ]
        );
    }

    #[test]
    fn union_merges_watermarks_with_min() {
        let mut u = UnionAll::new();
        let mut out = Vec::new();
        u.process(0, Element::watermark(Ts::hm(8, 10)), Ts(0), &mut out)
            .unwrap();
        assert!(out.is_empty(), "one-sided watermark must not advance");
        u.process(1, Element::watermark(Ts::hm(8, 5)), Ts(0), &mut out)
            .unwrap();
        assert_eq!(out, vec![Element::watermark(Ts::hm(8, 5))]);
        out.clear();
        u.process(1, Element::insert(row!(1i64)), Ts(0), &mut out)
            .unwrap();
        assert_eq!(out, vec![Element::insert(row!(1i64))]);
    }

    #[test]
    fn distinct_emits_on_zero_transitions() {
        let mut d = Distinct::new();
        let out = run(
            &mut d,
            vec![
                Element::insert(row!(1i64)),
                Element::insert(row!(1i64)),  // second copy: no output
                Element::retract(row!(1i64)), // still one copy: no output
                Element::retract(row!(1i64)), // gone: retract
                Element::insert(row!(1i64)),  // back: insert
            ],
        );
        assert_eq!(
            out,
            vec![
                Element::insert(row!(1i64)),
                Element::retract(row!(1i64)),
                Element::insert(row!(1i64)),
            ]
        );
        assert_eq!(d.state_metrics().keys, 1);
    }

    #[test]
    fn values_emits_rows_then_final_watermark() {
        let mut v = Values::new(vec![row!(1i64), row!(2i64)]);
        let mut out = Vec::new();
        v.initialize(Ts(0), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], Element::Watermark(onesql_time::Watermark::MAX));
        assert!(v
            .process(0, Element::insert(row!(1i64)), Ts(0), &mut out)
            .is_err());
    }

    #[test]
    fn source_passthrough() {
        let mut s = Source;
        let out = run(&mut s, vec![Element::insert(row!(1i64))]);
        assert_eq!(out, vec![Element::insert(row!(1i64))]);
    }
}
