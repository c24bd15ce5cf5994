//! The routing key a plan implies: which worker each stream's row goes to.
//!
//! A pipeline on W > 1 workers keeps the classical answer only when rows
//! that can combine — one group, one join match, one `DISTINCT` row —
//! land on the same worker. [`routing()`] derives one [`RouteKey`] per
//! stream that guarantees it from the bound plan alone, or says why none
//! does and the plan must run on one worker.
//!
//! Under an assumed key per stream, the walk records what each output
//! column carries of its row's routing value: filters, projections and
//! windows pass columns through, a Tumble window's `wstart` and `wend`
//! carry that window's key, `UNION ALL` keeps what both sides carry. A
//! grouping, a `DISTINCT` or a join is aligned when one of its keys
//! carries the routing value (a join: on both sides, through an equi pair
//! or a time bound confining the left event time to one routed Tumble
//! window of the right). Every worker holds all of a table's rows, so a
//! table side constrains nothing an inner join meets, but a `UNION ALL`
//! or a `LEFT JOIN` that passes it next to a stream would emit it on
//! every worker. Keys are tried per stream lowest column first, then the
//! plan's Tumble windows in plan order; the first assignment every
//! operator accepts wins, so an unconstrained stream keeps column 0. A
//! plan with more than 65 536 assignments runs on one worker.

use onesql_types::{DataType, Duration, SchemaRef, Ts, Value};

use crate::catalog::TableKind;
use crate::expr::ScalarExpr;
use crate::plan::{JoinKind, LogicalPlan, WindowKind};

/// Key assignments [`routing()`] tries before it settles for one worker.
const MAX_ASSIGNMENTS: usize = 1 << 16;

/// What one stream's rows are hashed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKey {
    /// The value of this column.
    Column(usize),
    /// The start of the Tumble window holding this time column's value.
    Tumble {
        /// The time column.
        col: usize,
        /// Window width.
        dur: Duration,
        /// Offset of window boundaries from the epoch.
        offset: Duration,
    },
}

impl RouteKey {
    /// The column a row is routed by.
    pub fn column(&self) -> usize {
        let (RouteKey::Column(col) | RouteKey::Tumble { col, .. }) = *self;
        col
    }

    /// The value a row whose key column holds `value` is routed by.
    pub fn route(&self, value: Value) -> Value {
        match (*self, value) {
            (RouteKey::Tumble { dur, offset, .. }, Value::Ts(ts)) => {
                let (d, o) = (dur.millis(), offset.millis());
                Value::Ts(Ts((ts.millis() - o).div_euclid(d) * d + o))
            }
            (_, value) => value,
        }
    }
}

/// The verdict of [`routing()`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// Every stream the plan reads, as it first scans it, with its key.
    Keyed(Vec<(String, RouteKey)>),
    /// No key keeps every pair of combinable rows on one worker, for this
    /// reason: the plan runs on one worker.
    OneWorker(String),
}

impl Routing {
    /// The key `stream` (any case) is routed by: column 0 for a stream the
    /// plan does not read.
    pub fn key(&self, stream: &str) -> RouteKey {
        let Routing::Keyed(routes) = self else {
            return RouteKey::Column(0);
        };
        let route = routes.iter().find(|r| r.0.eq_ignore_ascii_case(stream));
        route.map_or(RouteKey::Column(0), |r| r.1)
    }
}

/// The streams `plan` scans, first scan first, each name (any case) once.
fn streams(plan: &LogicalPlan) -> Vec<(&String, &SchemaRef)> {
    let mut streams: Vec<(&String, &SchemaRef)> = Vec::new();
    for node in plan.nodes() {
        if let LogicalPlan::Scan {
            table,
            schema,
            kind: TableKind::Stream,
            ..
        } = node
        {
            if !streams.iter().any(|(s, _)| s.eq_ignore_ascii_case(table)) {
                streams.push((table, schema));
            }
        }
    }
    streams
}

fn reads_stream(plan: &LogicalPlan) -> bool {
    !streams(plan).is_empty()
}

/// Derive the routing of `plan`; see the module docs.
pub fn routing(plan: &LogicalPlan) -> Routing {
    let streams = streams(plan);
    if streams.is_empty() {
        return Routing::OneWorker("the plan reads no stream".to_string());
    }
    let mut windows = Vec::new();
    for node in plan.nodes() {
        if let LogicalPlan::Window {
            kind: WindowKind::Tumble { dur, offset },
            ..
        } = node
        {
            if !windows.contains(&(*dur, *offset)) {
                windows.push((*dur, *offset));
            }
        }
    }
    let candidates: Vec<Vec<RouteKey>> = streams
        .iter()
        .map(|(_, schema)| {
            let fields = schema.fields();
            let times = (0..fields.len()).filter(|&c| fields[c].data_type == DataType::Timestamp);
            let times: Vec<usize> = times.collect();
            let tumbles = windows.iter().flat_map(|&(dur, offset)| {
                let key = move |&col| RouteKey::Tumble { col, dur, offset };
                times.iter().map(key)
            });
            (0..fields.len())
                .map(RouteKey::Column)
                .chain(tumbles)
                .collect()
        })
        .collect();
    let assignments = candidates
        .iter()
        .try_fold(1usize, |n, keys| n.checked_mul(keys.len()))
        .filter(|&n| n <= MAX_ASSIGNMENTS);
    let Some(assignments) = assignments else {
        let reason = format!("its streams have over {MAX_ASSIGNMENTS} key assignments to try");
        return Routing::OneWorker(reason);
    };
    // Assignment `n` counts in mixed radix: the last stream's key turns
    // fastest, the first stream's slowest.
    let mut first_refusal = None;
    for n in 0..assignments {
        let mut rest = n;
        let mut keys: Vec<(&String, RouteKey)> = (streams.iter().zip(&candidates).rev())
            .map(|((name, _), keys)| {
                let key = keys[rest % keys.len()];
                rest /= keys.len();
                (*name, key)
            })
            .collect();
        keys.reverse();
        match carried(plan, &keys) {
            Ok(_) => {
                return Routing::Keyed(keys.into_iter().map(|(s, k)| (s.clone(), k)).collect())
            }
            Err(node) => first_refusal = first_refusal.or(Some(node)),
        }
    }
    Routing::OneWorker(first_refusal.map_or("a stream has no columns".to_string(), refusal))
}

/// The `Route:` line `EXPLAIN` shows for `plan`: each stream's key by
/// column name, or why it runs on one worker.
pub(crate) fn explain(plan: &LogicalPlan) -> String {
    let routes = match routing(plan) {
        Routing::OneWorker(reason) => return format!("one worker ({reason})"),
        Routing::Keyed(routes) => routes,
    };
    let shown = routes
        .iter()
        .zip(streams(plan))
        .map(|((stream, key), (_, schema))| {
            let column = &schema.fields()[key.column()].name;
            match *key {
                RouteKey::Column(_) => format!("{stream} by {column}"),
                RouteKey::Tumble { dur, offset, .. } if offset == Duration::ZERO => {
                    format!("{stream} by Tumble({column}, {dur})")
                }
                RouteKey::Tumble { dur, offset, .. } => {
                    format!("{stream} by Tumble({column}, {dur}, offset {offset})")
                }
            }
        });
    shown.collect::<Vec<_>>().join(", ")
}

/// Why `node`, the first operator to refuse an assignment, would combine
/// rows held by different workers.
fn refusal(node: &LogicalPlan) -> String {
    match node {
        LogicalPlan::Aggregate {
            group_exprs,
            schema,
            ..
        } => match &schema.fields()[..group_exprs.len()] {
            [] => "a global aggregate has no per-row key".to_string(),
            groups => {
                let names: Vec<&str> = groups.iter().map(|f| f.name.as_str()).collect();
                format!("GROUP BY {} keeps no routing key", names.join(", "))
            }
        },
        LogicalPlan::Distinct { .. } => "DISTINCT keeps no routing key".to_string(),
        LogicalPlan::UnionAll { .. } => {
            "every worker would emit the table side of a UNION ALL with a stream".to_string()
        }
        LogicalPlan::Join { left, .. } if !reads_stream(left) => {
            "every worker would pad the table rows a LEFT JOIN with a stream leaves unmatched"
                .to_string()
        }
        _ => "the join pairs no routing key of one side with one of the other".to_string(),
    }
}

/// What an output column says about the routing value of its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carry {
    /// The column is the routing value.
    Value,
    /// An event time: the start of its Tumble(dur, offset) window is the
    /// routing value.
    Time(Duration, Duration),
    /// The end of the routing Tumble(dur, offset) window.
    End(Duration, Duration),
}

/// What each output column of `plan` carries under `keys`; or the
/// operator in it that would combine rows held by different workers.
fn carried<'p>(
    plan: &'p LogicalPlan,
    keys: &[(&String, RouteKey)],
) -> std::result::Result<Vec<Option<Carry>>, &'p LogicalPlan> {
    let through = |cols: &[Option<Carry>], e: &ScalarExpr| match e {
        ScalarExpr::Column(c) => cols.get(*c).copied().flatten(),
        _ => None,
    };
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            schema,
            kind: TableKind::Stream,
            ..
        } => {
            let mut cols = vec![None; schema.arity()];
            if let Some((_, key)) = keys.iter().find(|(s, _)| s.eq_ignore_ascii_case(table)) {
                cols[key.column()] = Some(match *key {
                    RouteKey::Column(_) => Carry::Value,
                    RouteKey::Tumble { dur, offset, .. } => Carry::Time(dur, offset),
                });
            }
            cols
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![None; plan.schema().arity()],
        LogicalPlan::Filter { input, .. } => carried(input, keys)?,
        LogicalPlan::Project { input, exprs, .. } => {
            let cols = carried(input, keys)?;
            exprs.iter().map(|e| through(&cols, e)).collect()
        }
        LogicalPlan::Window {
            input,
            kind,
            time_col,
            ..
        } => {
            let mut cols = carried(input, keys)?;
            let bounds = match (*kind, cols[*time_col]) {
                (WindowKind::Tumble { dur, offset }, Some(Carry::Time(d, o)))
                    if (d, o) == (dur, offset) =>
                {
                    [Some(Carry::Value), Some(Carry::End(dur, offset))]
                }
                _ => [None, None],
            };
            cols.extend(bounds);
            cols
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => {
            let cols = carried(input, keys)?;
            let groups: Vec<Option<Carry>> =
                group_exprs.iter().map(|e| through(&cols, e)).collect();
            if groups.iter().all(Option::is_none) && reads_stream(input) {
                return Err(plan);
            }
            [groups, vec![None; aggs.len()]].concat()
        }
        LogicalPlan::Distinct { input } => {
            let cols = carried(input, keys)?;
            if cols.iter().all(Option::is_none) && reads_stream(input) {
                return Err(plan);
            }
            cols
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            equi,
            time_bound,
            ..
        } => {
            let (l, r) = (carried(left, keys)?, carried(right, keys)?);
            let paired = equi.iter().any(|&(a, b)| l[a].is_some() && l[a] == r[b]);
            let bounded = time_bound.is_some_and(|tb| {
                matches!(
                    (l[tb.left_col], r[tb.right_col]),
                    (Some(Carry::Time(d, o)), Some(Carry::End(dr, or)))
                        if (d, o) == (dr, or)
                            && tb.lower.millis() == -d.millis()
                            && tb.upper == Duration::ZERO
                            && !tb.upper_inclusive
                )
            });
            let (streams_l, streams_r) = (reads_stream(left), reads_stream(right));
            let misaligned = streams_l && streams_r && !paired && !bounded;
            // Every worker holds a table side, and would pad its unmatched
            // rows.
            let padded = *kind == JoinKind::Left && !streams_l && streams_r;
            if misaligned || padded {
                return Err(plan);
            }
            match kind {
                // Unmatched left rows pad the right side with NULLs.
                JoinKind::Left => [l, vec![None; r.len()]].concat(),
                JoinKind::Inner => [l, r].concat(),
            }
        }
        LogicalPlan::UnionAll { left, right } => {
            let (l, r) = (carried(left, keys)?, carried(right, keys)?);
            // Every worker holds a table side, and would emit it.
            if reads_stream(left) != reads_stream(right) {
                return Err(plan);
            }
            l.iter()
                .zip(&r)
                .map(|(a, b)| a.filter(|a| Some(*a) == *b))
                .collect()
        }
    })
}
