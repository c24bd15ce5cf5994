//! Compilation: logical plans to operator trees.

use onesql_plan::{BoundQuery, LogicalPlan};
use onesql_types::Result;

use crate::aggregate::Aggregate;
use crate::emit::{DelayCoalescer, WatermarkGate};
use crate::executor::{ExecConfig, Executor, OpNode, SourceInfo};
use crate::join::Join;
use crate::simple::{Distinct, Filter, Project, Source, UnionAll, Values};
use crate::window::Window;

/// The columns that identify an event-time grouping in a query's output:
/// the plan's window-identity columns (`wstart`/`wend` lineage) when
/// present, otherwise all event-time columns. These key the `ver` changelog
/// metadata (Extension 4) and the `EMIT` grouping (Extensions 5–7).
pub fn version_columns(query: &BoundQuery) -> Vec<usize> {
    let identity = query.plan.window_identity_columns();
    if identity.is_empty() {
        query.plan.schema().event_time_columns()
    } else {
        identity
    }
}

/// Compile a bound query into an executor, attaching the `EMIT`
/// materialization operators above the plan root per Extensions 5–7.
pub fn compile(query: &BoundQuery, config: ExecConfig) -> Result<Executor> {
    let mut next_source = 0usize;
    let mut root = compile_plan(&query.plan, config, &mut next_source)?;

    let schema = query.plan.schema();
    let grouping_cols = version_columns(query);

    // EMIT AFTER DELAY [AND AFTER WATERMARK]: the coalescer covers both the
    // periodic (Extension 6) and combined (Extension 7) forms.
    if let Some(delay) = query.emit.delay {
        root = OpNode::unary(
            Box::new(DelayCoalescer::new(
                delay,
                grouping_cols,
                query.emit.after_watermark,
            )),
            root,
        );
    } else if query.emit.after_watermark {
        // Pure EMIT AFTER WATERMARK (Extension 5).
        root = OpNode::unary(Box::new(WatermarkGate::new(grouping_cols)), root);
    }

    Ok(Executor::new(root, schema))
}

fn compile_plan(plan: &LogicalPlan, config: ExecConfig, next_source: &mut usize) -> Result<OpNode> {
    Ok(match plan {
        LogicalPlan::Scan { table, as_of, .. } => {
            let id = *next_source;
            *next_source += 1;
            OpNode::leaf(
                Box::new(Source),
                Some(SourceInfo {
                    id,
                    table: table.clone(),
                    as_of: *as_of,
                }),
            )
        }
        LogicalPlan::Values { rows, .. } => OpNode::leaf(Box::new(Values::new(rows.clone())), None),
        LogicalPlan::Filter { input, predicate } => OpNode::unary(
            Box::new(Filter::new(predicate.clone())),
            compile_plan(input, config, next_source)?,
        ),
        LogicalPlan::Project { input, exprs, .. } => OpNode::unary(
            Box::new(Project::new(exprs.clone())),
            compile_plan(input, config, next_source)?,
        ),
        LogicalPlan::Window {
            input,
            kind,
            time_col,
            ..
        } => OpNode::unary(
            Box::new(Window::new(*kind, *time_col)),
            compile_plan(input, config, next_source)?,
        ),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            event_time_key,
            ..
        } => {
            // Aggregation directly over a Session TVF uses the merging
            // session operator (transitive-closure sessions, paper §8)
            // instead of the generic grouped aggregate.
            if let LogicalPlan::Window {
                input: win_input,
                kind: onesql_plan::WindowKind::Session { .. },
                ..
            } = &**input
            {
                let base = win_input.schema().arity();
                let op = crate::session::SessionAggregate::new(
                    group_exprs,
                    aggs.clone(),
                    base,     // provisional wstart column
                    base + 1, // provisional wend column
                    config.allowed_lateness,
                )?;
                return Ok(OpNode::unary(
                    Box::new(op),
                    compile_plan(input, config, next_source)?,
                ));
            }
            OpNode::unary(
                Box::new(Aggregate::new(
                    group_exprs.clone(),
                    aggs.clone(),
                    *event_time_key,
                    config.allowed_lateness,
                    input.retracts(),
                )),
                compile_plan(input, config, next_source)?,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            equi,
            residual,
            time_bound,
            ..
        } => {
            let left_arity = left.schema().arity();
            let right_arity = right.schema().arity();
            let l = compile_plan(left, config, next_source)?;
            let r = compile_plan(right, config, next_source)?;
            OpNode::binary(
                Box::new(Join::new(
                    *kind,
                    equi.clone(),
                    residual.clone(),
                    *time_bound,
                    left_arity,
                    right_arity,
                )),
                l,
                r,
            )
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = compile_plan(left, config, next_source)?;
            let r = compile_plan(right, config, next_source)?;
            OpNode::binary(Box::new(UnionAll::new()), l, r)
        }
        LogicalPlan::Distinct { input } => OpNode::unary(
            Box::new(Distinct::new()),
            compile_plan(input, config, next_source)?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_plan::{plan_sql, MemoryCatalog, TableKind};
    use onesql_tvr::Element;
    use onesql_types::{row, DataType, Field, Schema, Ts};
    use std::sync::Arc;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.register(
            "Bid",
            Arc::new(Schema::new(vec![
                Field::event_time("bidtime"),
                Field::new("price", DataType::Int),
                Field::new("item", DataType::String),
            ])),
            TableKind::Stream,
        );
        cat
    }

    fn exec(sql: &str) -> Executor {
        let q = plan_sql(sql, &catalog()).unwrap();
        compile(&q, ExecConfig::default()).unwrap()
    }

    /// The executor's output replayed into its table encoding.
    fn snapshot(ex: &Executor) -> onesql_tvr::Bag {
        let mut bag = onesql_tvr::Bag::new();
        bag.apply(ex.changelog().iter().map(|entry| entry.change.clone()));
        bag
    }

    #[test]
    fn end_to_end_filter_project() {
        let mut ex = exec("SELECT item, price * 2 AS dbl FROM Bid WHERE price > 2");
        ex.feed(
            "Bid",
            Ts::hm(8, 0),
            Element::insert(row!(Ts::hm(8, 0), 3i64, "A")),
        )
        .unwrap();
        ex.feed(
            "Bid",
            Ts::hm(8, 1),
            Element::insert(row!(Ts::hm(8, 1), 1i64, "B")),
        )
        .unwrap();
        let snap = snapshot(&ex);
        assert_eq!(snap.to_rows(), vec![row!("A", 6i64)]);
    }

    #[test]
    fn end_to_end_windowed_aggregate() {
        let mut ex = exec(
            "SELECT wend, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend",
        );
        for (pt, bt, price) in [(8, 8, 2i64), (8, 12, 3), (8, 13, 4)] {
            ex.feed(
                "Bid",
                Ts::hm(pt, bt),
                Element::insert(row!(
                    Ts::hm(8, bt % 10 + if bt >= 10 { 10 } else { 0 }),
                    price,
                    "x"
                )),
            )
            .unwrap();
        }
        // bids at 8:08 (w1), 8:12 (w2), 8:13 (w2) => w1 sum 2, w2 sum 7.
        let snap = snapshot(&ex);
        assert_eq!(
            snap.to_rows(),
            vec![row!(Ts::hm(8, 10), 2i64), row!(Ts::hm(8, 20), 7i64)]
        );
    }

    #[test]
    fn q7_compiles_with_two_bid_sources() {
        let ex = exec(
            "SELECT MaxBid.wend, Bid.price, Bid.item
             FROM Bid,
               (SELECT MAX(T.price) maxPrice, T.wend wend
                FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                            dur => INTERVAL '10' MINUTE) T
                GROUP BY T.wend) MaxBid
             WHERE Bid.price = MaxBid.maxPrice AND
                   Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
                   Bid.bidtime < MaxBid.wend",
        );
        let sources = ex.sources();
        assert_eq!(sources.len(), 2);
        assert!(sources.iter().all(|s| s.table == "Bid"));
        assert_eq!(sources[0].id, 0);
        assert_eq!(sources[1].id, 1);
    }

    #[test]
    fn emit_after_watermark_gates_output() {
        let mut ex = exec(
            "SELECT wend, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend EMIT AFTER WATERMARK",
        );
        ex.feed(
            "Bid",
            Ts::hm(8, 8),
            Element::insert(row!(Ts::hm(8, 7), 2i64, "A")),
        )
        .unwrap();
        assert!(ex.changelog().is_empty(), "gated until watermark");
        ex.feed("Bid", Ts::hm(8, 16), Element::watermark(Ts::hm(8, 12)))
            .unwrap();
        let snap = snapshot(&ex);
        assert_eq!(snap.to_rows(), vec![row!(Ts::hm(8, 10), 2i64)]);
        // And the release was stamped at the watermark's processing time.
        assert_eq!(ex.changelog().entries()[0].ptime, Ts::hm(8, 16));
    }

    #[test]
    fn select_constant_without_from() {
        let q = plan_sql("SELECT 1 + 1 AS two", &catalog()).unwrap();
        let mut ex = compile(&q, ExecConfig::default()).unwrap();
        ex.initialize().unwrap();
        assert_eq!(snapshot(&ex).to_rows(), vec![row!(2i64)]);
        assert!(ex.output_watermark().is_final());
    }
}
