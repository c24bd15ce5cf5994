//! Static pipeline analysis: the `EXPLAIN LINT` vocabulary and the plan
//! walks its checks apply.
//!
//! The analyzer itself is a dry run of a script on a copy of a session's
//! definitions, so it lives next to the session
//! (`onesql_core::session`): each statement binds where execution would
//! bind it, and the script's DDL runs through the session's own code on
//! the copy. This module holds what that walk reports and reads — the
//! [`Diagnostic`] type, [`Severity`], the `SET lint` [`LintMode`],
//! [`render_report`] — and the pure walks over a bound [`LogicalPlan`]
//! behind the state and watermark checks.
//!
//! Every finding is a [`Diagnostic`] with a stable `OSQL...` code, a
//! severity, a human message, and a byte-range [`Span`] into the original
//! script text, so callers can render `line:column` positions or highlight
//! the offending statement.
//!
//! The diagnostic vocabulary (see `docs/LINTING.md` for the full
//! catalogue):
//!
//! | code    | severity | meaning |
//! |---------|----------|---------|
//! | OSQL000 | error    | statement fails to parse or bind, or the session would refuse it |
//! | OSQL001 | warning  | unbounded keyed state (join / aggregate / distinct with no time bound) |
//! | OSQL003 | warning  | windowed pipeline emitting without `EMIT AFTER WATERMARK` |
//! | OSQL004 | error    | `CHECKPOINT PIPELINE` that cannot checkpoint or restore |
//! | OSQL005 | warning  | watermark-dependent query over a source with no event-time column |
//! | OSQL006 | error    | sink schema drift between INSERTs (or vs a net sink's target stream) |
//! | OSQL007 | note/err | dead CREATEs; INSERT over a stream no source feeds |
//! | OSQL008 | warning  | contradictory session knobs |

use onesql_sql::{line_col_at, Span};
use onesql_types::{Error, Result};

use crate::catalog::TableKind;
use crate::plan::LogicalPlan;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: probably intentional, worth knowing.
    Note,
    /// The script will run but likely misbehaves or underperforms.
    Warning,
    /// The script will fail at execution time (or silently corrupt
    /// results); `SET lint = 'strict'` refuses to run it.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding, anchored to a byte range of the analyzed script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`OSQL001`...). Codes never change meaning;
    /// new checks get new codes.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Human-readable explanation, including what to do about it.
    pub message: String,
    /// Byte range into the analyzed script text (usually the whole
    /// offending statement).
    pub span: Span,
    /// Zero-based index of the statement the finding is about.
    pub statement: usize,
}

impl Diagnostic {
    /// Render as `CODE severity at line L, column C: message`, resolving
    /// the span against the script text the diagnostics were produced
    /// from.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = line_col_at(src, self.span.start);
        format!(
            "{} {} at line {line}, column {col}: {}",
            self.code, self.severity, self.message
        )
    }
}

/// Render a whole report, one line per diagnostic, or a clean-bill line.
pub fn render_report(diags: &[Diagnostic], src: &str) -> String {
    if diags.is_empty() {
        return "no lint findings".to_string();
    }
    let lines: Vec<String> = diags.iter().map(|d| d.render(src)).collect();
    lines.join("\n")
}

/// How `Session::execute_script` treats lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// Refuse to execute a script with any `Error`-severity finding.
    Strict,
    /// Lint and attach findings to the outcome, but always execute.
    #[default]
    Warn,
    /// Skip analysis entirely.
    Off,
}

impl LintMode {
    /// Parse a `SET lint = '<mode>'` value.
    pub fn parse(s: &str) -> Result<LintMode> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Ok(LintMode::Strict),
            "warn" => Ok(LintMode::Warn),
            "off" => Ok(LintMode::Off),
            other => Err(Error::plan(format!(
                "SET lint: expected 'strict', 'warn', or 'off', got '{other}'"
            ))),
        }
    }

    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            LintMode::Strict => "strict",
            LintMode::Warn => "warn",
            LintMode::Off => "off",
        }
    }
}

// -- plan walks -------------------------------------------------------------

/// OSQL001: one message per stateful operator in `plan` whose keyed state
/// can never be freed, inputs first.
pub fn unbounded_state(plan: &LogicalPlan) -> Vec<String> {
    let mut nodes = plan.nodes();
    nodes.reverse();
    let findings = nodes.into_iter().filter_map(|node| match node {
        LogicalPlan::Join {
            left,
            right,
            time_bound: None,
            ..
        } if left.is_unbounded() && right.is_unbounded() => Some(
            "stream-stream join has no time-bounded predicate: both \
             sides' state grows without bound because no watermark \
             ever proves a row can stop matching; bound one side's \
             event time relative to the other's (e.g. \
             `L.t BETWEEN R.t - INTERVAL ... AND R.t`)",
        ),
        LogicalPlan::Aggregate {
            input,
            event_time_key: None,
            ..
        } if input.is_unbounded() => Some(
            "aggregate over an unbounded stream groups by no \
             event-time column, so it runs in retraction mode and \
             keeps every group's state forever; group by a windowed \
             column (wstart/wend) or accept unbounded state",
        ),
        LogicalPlan::Distinct { input } if input.is_unbounded() => Some(
            "DISTINCT over an unbounded stream remembers every row \
             ever seen; dedupe within windows instead",
        ),
        _ => None,
    });
    findings.map(str::to_string).collect()
}

/// OSQL003: what `plan` does that watermarks finalize (so emitting
/// without the gate streams raw revisions), if anything.
pub fn watermark_finalized_op(plan: &LogicalPlan) -> Option<&'static str> {
    plan.nodes().into_iter().find_map(|node| match node {
        LogicalPlan::Aggregate {
            event_time_key: Some(_),
            ..
        } => Some("aggregates per event-time window"),
        LogicalPlan::Window { .. } => Some("assigns event-time windows"),
        _ => None,
    })
}

/// OSQL005: one message per window in `plan` assigned from a column no
/// watermark tracks, outermost first.
pub fn unwatermarked_windows(plan: &LogicalPlan) -> Vec<String> {
    let windows = plan.nodes().into_iter().filter_map(|node| match node {
        LogicalPlan::Window {
            input,
            kind,
            time_col,
            ..
        } => Some((input.schema().field(*time_col).ok()?.clone(), kind.name())),
        _ => None,
    });
    windows
        .filter(|(field, _)| !field.event_time)
        .map(|(field, kind)| {
            format!(
                "{kind} windows are assigned from column '{}', which no \
                 WATERMARK FOR clause tracks: the windows only finalize \
                 at end of stream; declare `WATERMARK FOR {}` on the \
                 source (or window on its watermarked column)",
                field.name, field.name,
            )
        })
        .collect()
}

/// OSQL005: does `plan` scan a stream with an event-time column?
pub fn scans_event_time_stream(plan: &LogicalPlan) -> bool {
    plan.nodes().into_iter().any(|node| match node {
        LogicalPlan::Scan {
            schema,
            kind: TableKind::Stream,
            ..
        } => !schema.event_time_columns().is_empty(),
        _ => false,
    })
}
