//! The executor: an operator tree driven by a virtual processing-time clock.

use onesql_state::StateMetrics;
use onesql_time::Watermark;
use onesql_tvr::{BatchOut, ChangeBatch, Changelog, Element};
use onesql_types::{Duration, Error, Result, SchemaRef, Ts};

use crate::operator::Operator;
use crate::vector::process_event;

/// Execution configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecConfig {
    /// Allowed lateness for event-time groupings (Extension 2 notes the
    /// practical need); groups stay open this long past the watermark.
    pub allowed_lateness: Duration,
}

/// Identifies one source leaf of a compiled pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// Source index, usable with [`Executor::feed_source`].
    pub id: usize,
    /// Catalog table this leaf scans. Multiple leaves may scan the same
    /// table (NEXMark Q7 scans `Bid` twice); [`Executor::feed`] fans out.
    pub table: String,
    /// `AS OF SYSTEM TIME` snapshot point, if any.
    pub as_of: Option<Ts>,
}

/// A node of the compiled operator tree.
pub struct OpNode {
    /// The operator.
    pub op: Box<dyn Operator>,
    /// Child subtrees; child `i` feeds the operator's port `i`.
    pub children: Vec<OpNode>,
    /// Present iff this leaf is a table/stream source.
    pub source: Option<SourceInfo>,
}

impl OpNode {
    /// A leaf node.
    pub fn leaf(op: Box<dyn Operator>, source: Option<SourceInfo>) -> OpNode {
        OpNode {
            op,
            children: vec![],
            source,
        }
    }

    /// An interior node.
    pub fn unary(op: Box<dyn Operator>, child: OpNode) -> OpNode {
        OpNode {
            op,
            children: vec![child],
            source: None,
        }
    }

    /// A two-input node.
    pub fn binary(op: Box<dyn Operator>, left: OpNode, right: OpNode) -> OpNode {
        OpNode {
            op,
            children: vec![left, right],
            source: None,
        }
    }

    /// Run `visit` on each child in port order and push what it produced
    /// through this node's operator on that child's port, at `now`.
    fn walk(
        &mut self,
        now: Ts,
        out: &mut Vec<Element>,
        mut visit: impl FnMut(&mut OpNode, &mut Vec<Element>) -> Result<()>,
    ) -> Result<()> {
        let mut child_out = Vec::new();
        for (port, child) in self.children.iter_mut().enumerate() {
            visit(child, &mut child_out)?;
            for e in child_out.drain(..) {
                self.op.process(port, e, now, out)?;
            }
        }
        Ok(())
    }

    fn initialize(&mut self, now: Ts, out: &mut Vec<Element>) -> Result<()> {
        self.walk(now, out, |child, child_out| {
            child.initialize(now, child_out)
        })?;
        self.op.initialize(now, out)
    }

    fn feed(
        &mut self,
        source_id: usize,
        elem: &Element,
        now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        if let Some(info) = &self.source {
            if info.id == source_id {
                self.op.process(0, elem.clone(), now, out)?;
            }
            return Ok(());
        }
        self.walk(now, out, |child, child_out| {
            child.feed(source_id, elem, now, child_out)
        })
    }

    fn contains_source(&self, source_id: usize) -> bool {
        if let Some(info) = &self.source {
            return info.id == source_id;
        }
        self.children.iter().any(|c| c.contains_source(source_id))
    }

    fn uses_timers(&self) -> bool {
        self.op.uses_timers() || self.children.iter().any(OpNode::uses_timers)
    }

    /// Batch analogue of [`OpNode::feed`]. Only the subtree containing the
    /// source produces output (data batches carry no watermarks, so sibling
    /// subtrees contribute nothing), which is what lets the batch skip the
    /// per-element fan-in walk entirely.
    fn feed_batch(
        &mut self,
        source_id: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        if let Some(info) = &self.source {
            if info.id == source_id {
                self.op.process_batch(0, batch, out)?;
            }
            return Ok(());
        }
        for port in 0..self.children.len() {
            if !self.children[port].contains_source(source_id) {
                continue;
            }
            let mut child_out = Vec::new();
            let child_res = self.children[port].feed_batch(source_id, batch, &mut child_out);
            // Forward whatever the child produced before any error (its
            // contract: outputs of rows strictly before the failing row),
            // then surface the earliest error — a forwarding failure belongs
            // to an earlier row than the child's own failure.
            self.forward(port, child_out, out)?;
            child_res?;
        }
        Ok(())
    }

    /// Push a child's batch outputs through this node's operator.
    fn forward(
        &mut self,
        port: usize,
        child_out: Vec<BatchOut>,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        for item in child_out {
            match item {
                BatchOut::Batch(b) => self.op.process_batch(port, &b, out)?,
                // The child failed there; its error follows.
                BatchOut::Rows(ts, elems) if elems.is_empty() => {
                    out.push(BatchOut::failed_at(ts));
                }
                BatchOut::Rows(ts, elems) => process_event(&mut *self.op, port, ts, elems, out)?,
            }
        }
        Ok(())
    }

    fn tick(&mut self, now: Ts, out: &mut Vec<Element>) -> Result<()> {
        self.walk(now, out, |child, child_out| child.tick(now, child_out))?;
        self.op.on_processing_time(now, out)
    }

    fn next_timer(&self) -> Option<Ts> {
        let own = self.op.next_timer();
        let children = self.children.iter().filter_map(OpNode::next_timer).min();
        match (own, children) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn metrics(&self) -> StateMetrics {
        let mut m = self.op.state_metrics();
        for c in &self.children {
            let cm = c.metrics();
            m.keys += cm.keys;
            m.encoded_bytes += cm.encoded_bytes;
        }
        m
    }

    fn collect_sources(&self, out: &mut Vec<SourceInfo>) {
        if let Some(info) = &self.source {
            out.push(info.clone());
        }
        for c in &self.children {
            c.collect_sources(out);
        }
    }

    fn collect_checkpoints(&self, out: &mut Vec<Option<onesql_state::Checkpoint>>) -> Result<()> {
        out.push(self.op.checkpoint()?);
        for c in &self.children {
            c.collect_checkpoints(out)?;
        }
        Ok(())
    }

    fn restore_checkpoints(
        &mut self,
        cps: &[Option<onesql_state::Checkpoint>],
        idx: &mut usize,
    ) -> Result<()> {
        let cp = cps
            .get(*idx)
            .ok_or_else(|| Error::exec("checkpoint has fewer operator entries than the plan"))?;
        *idx += 1;
        match cp {
            Some(cp) => self.op.restore(cp)?,
            None => {
                // Stateless in the checkpoint; must be stateless here too.
                if self.op.checkpoint()?.is_some() {
                    return Err(Error::exec(format!(
                        "checkpoint/plan mismatch: operator {} expects state",
                        self.op.name()
                    )));
                }
            }
        }
        for c in &mut self.children {
            c.restore_checkpoints(cps, idx)?;
        }
        Ok(())
    }
}

/// Executes a compiled pipeline deterministically: callers feed elements in
/// processing-time order; the executor stamps root outputs into the result
/// changelog and steps the clock through pending materialization
/// deadlines so `ptime` metadata is exact.
pub struct Executor {
    root: OpNode,
    schema: SchemaRef,
    now: Ts,
    output: Changelog,
    watermark: Watermark,
    initialized: bool,
    /// Every source leaf in tree order, and whether any operator schedules
    /// processing-time timers: the tree's shape never changes, so both are
    /// resolved once.
    sources: Vec<SourceInfo>,
    uses_timers: bool,
}

impl Executor {
    /// Wrap a compiled operator tree.
    pub fn new(root: OpNode, schema: SchemaRef) -> Executor {
        let mut sources = Vec::new();
        root.collect_sources(&mut sources);
        Executor {
            uses_timers: root.uses_timers(),
            sources,
            root,
            schema,
            now: Ts(0),
            output: Changelog::new(),
            watermark: Watermark::MIN,
            initialized: false,
        }
    }

    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    /// All source leaves in tree order.
    pub fn sources(&self) -> &[SourceInfo] {
        &self.sources
    }

    /// The id of the `n`-th source leaf scanning `table`, if it has that
    /// many.
    fn leaf(&self, table: &str, n: usize) -> Option<usize> {
        let mut scanning = self
            .sources
            .iter()
            .filter(|s| s.table.eq_ignore_ascii_case(table));
        scanning.nth(n).map(|s| s.id)
    }

    /// Current processing time.
    pub fn now(&self) -> Ts {
        self.now
    }

    /// The latest watermark observed at the root (completeness of the
    /// output relation).
    pub fn output_watermark(&self) -> Watermark {
        self.watermark
    }

    /// The stamped output changelog (the result TVR's stream encoding),
    /// in processing-time order.
    pub fn changelog(&self) -> &Changelog {
        &self.output
    }

    /// Move the output recorded so far out, sealed, leaving the changelog
    /// empty: for a consumer that keeps the result TVR itself (the
    /// pipeline driver's merged log), so the executor retains nothing.
    /// Callers that never take read the whole history from
    /// [`Executor::changelog`].
    pub fn take_output(&mut self) -> Changelog {
        self.output.seal();
        std::mem::take(&mut self.output)
    }

    /// Aggregate state footprint across all operators.
    pub fn state_metrics(&self) -> StateMetrics {
        self.root.metrics()
    }

    /// Run initialization (constant relations, global-aggregate seeds).
    /// Idempotent; runs automatically on first feed if not called.
    pub fn initialize(&mut self) -> Result<()> {
        if self.initialized {
            return Ok(());
        }
        self.initialized = true;
        let mut out = Vec::new();
        let now = self.now;
        self.root.initialize(now, &mut out)?;
        self.record(now, out)
    }

    /// Advance the processing-time clock to `to`, firing any delayed
    /// materialization deadlines on the way (each at its exact instant).
    ///
    /// A deadline at exactly `to` does *not* fire yet: elements arriving at
    /// processing time `to` must be processed first (Listing 14's 8:18
    /// emission reflects the 8:18 input). It fires as soon as the clock
    /// moves past `to`, stamped at the deadline.
    pub fn advance_to(&mut self, to: Ts) -> Result<()> {
        self.initialize()?;
        if to < self.now {
            return Err(Error::exec(format!(
                "processing time may not regress: now {} > target {}",
                self.now, to
            )));
        }
        self.fire_timers(Some(to))?;
        self.now = to;
        Ok(())
    }

    /// Fire every timer due before `to` (every timer at all when `None`),
    /// each at its own deadline.
    fn fire_timers(&mut self, to: Option<Ts>) -> Result<()> {
        let due = |deadline: &Ts| to.is_none_or(|to| *deadline < to);
        while let Some(deadline) = self.root.next_timer().filter(due) {
            self.now = self.now.max(deadline);
            let mut out = Vec::new();
            let now = self.now;
            self.root.tick(now, &mut out)?;
            self.record(now, out)?;
        }
        Ok(())
    }

    /// Feed one element into a specific source leaf at processing time
    /// `ptime`.
    pub fn feed_source(&mut self, source_id: usize, ptime: Ts, elem: Element) -> Result<()> {
        self.advance_to(ptime)?;
        let mut out = Vec::new();
        let now = self.now;
        self.root.feed(source_id, &elem, now, &mut out)?;
        self.record(now, out)
    }

    /// Feed one element into every source leaf scanning `table`.
    pub fn feed(&mut self, table: &str, ptime: Ts, elem: Element) -> Result<()> {
        self.advance_to(ptime)?;
        // No leaf at all: the query does not read this table; ignore.
        let mut n = 0;
        while let Some(id) = self.leaf(table, n) {
            let mut out = Vec::new();
            let now = self.now;
            self.root.feed(id, &elem, now, &mut out)?;
            self.record(now, out)?;
            n += 1;
        }
        Ok(())
    }

    /// Whether any source leaf scans `table`. Feeding a table none does
    /// only advances the clock.
    pub fn scans(&self, table: &str) -> bool {
        self.leaf(table, 0).is_some()
    }

    /// Whether [`Executor::feed_batch`] accepts `table`: exactly one source
    /// leaf scans it (multi-leaf fan-out, e.g. NEXMark Q7's double Bid
    /// scan, interleaves per *event* across leaves, which a whole-batch
    /// feed cannot reproduce) and no operator in the tree schedules
    /// processing-time timers.
    pub fn supports_batches(&self, table: &str) -> bool {
        self.batch_leaf(table).is_some()
    }

    /// The one leaf scanning `table`, when the tree can take it batched.
    fn batch_leaf(&self, table: &str) -> Option<usize> {
        match (self.leaf(table, 0), self.leaf(table, 1)) {
            (Some(id), None) if !self.uses_timers => Some(id),
            _ => None,
        }
    }

    /// Feed a columnar batch of data changes for `table`, each row at its
    /// own processing time (the batch's monotone ptime lane).
    ///
    /// The resulting changelog — including any error and the outputs
    /// recorded before it — is byte-identical to feeding the rows one at a
    /// time via [`Executor::feed`].
    ///
    /// Requires [`Executor::supports_batches`] for `table`; otherwise this
    /// is an error that names the table, and nothing is fed.
    pub fn feed_batch(&mut self, table: &str, batch: &ChangeBatch) -> Result<()> {
        let Some(id) = self.batch_leaf(table) else {
            return Err(Error::exec(format!(
                "table '{table}' cannot be fed as a batch: the plan scans it \
                 from other than exactly one leaf, or schedules timers"
            )));
        };
        if batch.is_empty() {
            return Ok(());
        }
        self.advance_to(batch.ptime(0))?;
        let mut out = Vec::new();
        let res = self.root.feed_batch(id, batch, &mut out);
        // Record even on error: `out` holds the outputs of the events before
        // the failing one, which per-row feeding would have recorded already,
        // and the failing event's ptime, which it would have advanced to.
        self.record_batch(out)?;
        if res.is_ok() {
            self.now = self.now.max(batch.ptime(batch.len() - 1));
        }
        res
    }

    /// Fire any remaining timers and deliver final watermarks to all
    /// sources: the input will never change again.
    pub fn finish(&mut self, at: Ts) -> Result<()> {
        self.advance_to(at)?;
        for i in 0..self.sources.len() {
            self.feed_source(self.sources[i].id, at, Element::Watermark(Watermark::MAX))?;
        }
        // Final watermark may have armed last-gasp delay timers.
        self.fire_timers(None)
    }

    /// Take a consistent checkpoint of the whole pipeline: every stateful
    /// operator's state plus the clock and output watermark (Appendix
    /// B.2.1's periodic checkpoints). Call between feeds, never mid-feed.
    pub fn checkpoint(&self) -> Result<onesql_state::Checkpoint> {
        use onesql_state::Codec;
        let mut ops = Vec::new();
        self.root.collect_checkpoints(&mut ops)?;
        let op_bytes: Vec<Option<bytes::Bytes>> = ops.into_iter().map(|o| o.map(|c| c.0)).collect();
        let snapshot = (self.now, self.watermark.ts(), op_bytes);
        Ok(onesql_state::Checkpoint(snapshot.to_bytes()))
    }

    /// Restore a pipeline compiled from the *same plan* to the exact state
    /// of a checkpoint. The output changelog restarts empty: it records
    /// changes from the restore point onward (the pre-checkpoint prefix is
    /// already owned by whoever consumed it).
    pub fn restore(&mut self, checkpoint: &onesql_state::Checkpoint) -> Result<()> {
        use onesql_state::Codec;
        type Snapshot = (Ts, Ts, Vec<Option<bytes::Bytes>>);
        let (now, wm, op_bytes): Snapshot = Codec::from_bytes(&checkpoint.0)?;
        let cps: Vec<Option<onesql_state::Checkpoint>> = op_bytes
            .into_iter()
            .map(|o| o.map(onesql_state::Checkpoint))
            .collect();
        let mut idx = 0;
        self.root.restore_checkpoints(&cps, &mut idx)?;
        if idx != cps.len() {
            return Err(Error::exec(
                "checkpoint has more operator entries than the plan",
            ));
        }
        self.now = now;
        self.watermark = Watermark(wm);
        self.output = Changelog::new();
        // A restored pipeline must not replay initialization effects
        // (constant rows, global-aggregate seeds) — they are part of the
        // checkpointed state.
        self.initialized = true;
        Ok(())
    }

    /// Stamp batch outputs into the changelog, each row at its own ptime
    /// (the oracle stamps `self.now`, which per-row feeding would have
    /// advanced to that row's ptime). A batch goes in as columns.
    fn record_batch(&mut self, items: Vec<BatchOut>) -> Result<()> {
        for item in items {
            match item {
                BatchOut::Batch(b) => {
                    if let Some(last) = b.len().checked_sub(1) {
                        self.output.push_batch(&b)?;
                        self.now = self.now.max(b.ptime(last));
                    }
                }
                BatchOut::Rows(ts, elems) => self.record(ts, elems)?,
            }
        }
        Ok(())
    }

    /// Stamp the elements of one event fed at `ts` into the changelog,
    /// moving the clock to `ts`.
    fn record(&mut self, ts: Ts, elements: Vec<Element>) -> Result<()> {
        self.now = self.now.max(ts);
        for e in elements {
            match e {
                Element::Data(change) => {
                    if change.diff != 0 {
                        self.output.push_row(ts, change)?;
                    }
                }
                Element::Watermark(wm) => {
                    self.watermark.advance_to(wm);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{Filter, Source, UnionAll};
    use onesql_plan::expr::{BinOp, ScalarExpr};
    use onesql_types::{row, DataType, Field, Schema};
    use std::sync::Arc;

    /// Source leaf `id`, scanning Bid(price).
    fn bid_leaf(id: usize) -> OpNode {
        let table = "bid".into();
        let info = SourceInfo {
            id,
            table,
            as_of: None,
        };
        OpNode::leaf(Box::new(Source), Some(info))
    }

    fn bid_executor(root: OpNode) -> Executor {
        let schema = Schema::new(vec![Field::new("price", DataType::Int)]);
        Executor::new(root, Arc::new(schema))
    }

    fn simple_executor() -> Executor {
        // Filter(price > 2) over a Bid(price) source.
        let price_above_2 =
            ScalarExpr::binary(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(2i64));
        bid_executor(OpNode::unary(
            Box::new(Filter::new(price_above_2)),
            bid_leaf(0),
        ))
    }

    #[test]
    fn feeds_and_stamps_ptime() {
        let mut ex = simple_executor();
        ex.feed("Bid", Ts::hm(8, 8), Element::insert(row!(3i64)))
            .unwrap();
        ex.feed("Bid", Ts::hm(8, 9), Element::insert(row!(1i64)))
            .unwrap();
        let log = ex.changelog().entries();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].ptime, Ts::hm(8, 8));
    }

    #[test]
    fn processing_time_cannot_regress() {
        let mut ex = simple_executor();
        ex.advance_to(Ts::hm(8, 10)).unwrap();
        assert!(ex
            .feed("Bid", Ts::hm(8, 5), Element::insert(row!(3i64)))
            .is_err());
    }

    #[test]
    fn watermark_tracked_at_root() {
        let mut ex = simple_executor();
        ex.feed("Bid", Ts::hm(8, 7), Element::watermark(Ts::hm(8, 5)))
            .unwrap();
        assert_eq!(ex.output_watermark(), Watermark(Ts::hm(8, 5)));
    }

    #[test]
    fn unknown_table_feed_is_ignored() {
        let mut ex = simple_executor();
        ex.feed("Person", Ts(1), Element::insert(row!(1i64)))
            .unwrap();
        assert!(ex.changelog().is_empty());
    }

    #[test]
    fn sources_enumerated() {
        let ex = simple_executor();
        let sources = ex.sources();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].table, "bid");
    }

    #[test]
    fn feed_batch_matches_per_row_feeding() {
        let changes = vec![
            (Ts::hm(8, 1), onesql_tvr::Change::insert(row!(3i64))),
            (Ts::hm(8, 2), onesql_tvr::Change::insert(row!(1i64))),
            (Ts::hm(8, 3), onesql_tvr::Change::retract(row!(3i64))),
        ];
        let mut vectorized = simple_executor();
        assert!(vectorized.supports_batches("Bid"));
        let batch = ChangeBatch::from_changes(&changes).unwrap();
        vectorized.feed_batch("Bid", &batch).unwrap();
        let mut oracle = simple_executor();
        for (ts, c) in changes {
            oracle.feed("Bid", ts, Element::Data(c)).unwrap();
        }
        assert_eq!(vectorized.changelog(), oracle.changelog());
        assert_eq!(vectorized.now(), oracle.now());

        // A table the tree cannot batch — scanned by no leaf, or by two —
        // is refused by name, and nothing is fed.
        let self_union = OpNode::binary(Box::new(UnionAll::new()), bid_leaf(0), bid_leaf(1));
        for (mut ex, table) in [
            (simple_executor(), "Person"),
            (bid_executor(self_union), "Bid"),
        ] {
            assert!(!ex.supports_batches(table));
            let err = ex.feed_batch(table, &batch).unwrap_err().to_string();
            assert!(err.contains(&format!("'{table}'")), "{err}");
            assert!(ex.changelog().is_empty());
            assert_eq!(ex.now(), Ts(0));
        }
    }

    #[test]
    fn finish_delivers_final_watermark() {
        let mut ex = simple_executor();
        ex.finish(Ts::hm(9, 0)).unwrap();
        assert!(ex.output_watermark().is_final());
    }
}
