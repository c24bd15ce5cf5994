//! Session-level lint integration: `EXPLAIN LINT` through a live
//! [`onesql_core::Session`], the `lint` session knob, and the tier-1 lint
//! gate over the SQL scripts the repo ships (the NEXMark full-stack suite,
//! which the consistency checker's scenarios reuse verbatim).

use onesql_core::StatementResult;
use onesql_nexmark::queries;
use onesql_plan::Severity;

/// A channel source with an event-time column plus a file sink — the
/// smallest catalog most tests need.
const PRELUDE: &str = "\
CREATE SOURCE bids (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
  WITH (connector = 'channel');
CREATE SINK out WITH (connector = 'file', path = '/tmp/lint_out.csv');
";

fn codes(diags: &[onesql_plan::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

// ---------------------------------------------------------------------------
// EXPLAIN LINT through the session
// ---------------------------------------------------------------------------

#[test]
fn explain_lint_statement_form_uses_session_catalog() {
    let mut session = onesql_connect::session();
    session.execute_script(PRELUDE).unwrap();
    // DISTINCT over an unbounded stream: keyed state never freed.
    let result = session
        .execute("EXPLAIN LINT SELECT DISTINCT auction FROM bids")
        .unwrap();
    let report = result.render_lint().expect("EXPLAIN LINT renders a report");
    assert!(report.contains("OSQL001"), "report: {report}");
    assert!(report.contains("at line 1"), "report: {report}");
}

#[test]
fn explain_lint_statement_form_clean_bill() {
    let mut session = onesql_connect::session();
    session.execute_script(PRELUDE).unwrap();
    let result = session
        .execute("EXPLAIN LINT SELECT price FROM bids WHERE price > 10")
        .unwrap();
    assert_eq!(result.render_lint().as_deref(), Some("no lint findings"));
}

#[test]
fn explain_lint_script_form_lints_quoted_script() {
    let mut session = onesql_connect::session();
    // The quoted-script form analyzes a whole self-contained script,
    // catalog evolution included ('' escapes a quote inside the literal).
    let result = session
        .execute(
            "EXPLAIN LINT 'CREATE SOURCE s (t TIMESTAMP, v INT, WATERMARK FOR t) \
               WITH (connector = ''channel'');
             CREATE SINK snk WITH (connector = ''file'', path = ''/tmp/o'');
             INSERT INTO snk SELECT wend, COUNT(*) FROM Tumble(data => TABLE(s),
               timecol => DESCRIPTOR(t), dur => INTERVAL ''1'' MINUTE)
               GROUP BY wend EMIT STREAM;'",
        )
        .unwrap();
    let StatementResult::Diagnostics {
        script,
        diagnostics,
    } = &result
    else {
        panic!("expected Diagnostics, got {result:?}");
    };
    // Windowed aggregate emitting without AFTER WATERMARK.
    assert_eq!(codes(diagnostics), ["OSQL003"]);
    // Spans index into the *inner* script text, so render works off it.
    let span = diagnostics[0].span;
    assert!(script[span.start..span.end].starts_with("INSERT INTO snk"));
}

#[test]
fn explain_lint_reports_bind_errors_with_position() {
    let mut session = onesql_connect::session();
    session.execute_script(PRELUDE).unwrap();
    let result = session
        .execute("EXPLAIN LINT SELECT no_such_col FROM bids")
        .unwrap();
    let report = result.render_lint().unwrap();
    assert!(report.contains("OSQL000"), "report: {report}");
    assert!(report.contains("error"), "report: {report}");
}

// ---------------------------------------------------------------------------
// OSQL004 follows the connector registry's replayability verdict
// ---------------------------------------------------------------------------

/// `CREATE <source>; INSERT; CHECKPOINT` over one source definition.
fn checkpointed(create_source: &str, select: &str) -> String {
    format!(
        "{create_source};
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint_ck.csv');
         INSERT INTO out {select} EMIT STREAM;
         CHECKPOINT PIPELINE out TO '/tmp/lint_ck';"
    )
}

#[test]
fn osql004_reads_replayability_from_the_registry() {
    const COLS: &str = "(t TIMESTAMP, price INT, WATERMARK FOR t)";
    let feed = |with: &str| format!("SOURCE feed {COLS} WITH ({with})");
    // (source DDL, query, the connector named as volatile — None: clean)
    let cases = [
        (
            format!("CREATE {}", feed("connector = 'channel'")),
            "SELECT price FROM feed",
            Some("feed (channel)"),
        ),
        (
            format!(
                "CREATE PARTITIONED {}",
                feed("connector = 'channel', partitions = 2")
            ),
            "SELECT price FROM feed",
            Some("feed (channel)"),
        ),
        // A plain `net` source acks as it consumes; the PARTITIONED one
        // holds acks until a checkpoint is durable.
        (
            format!(
                "CREATE {}",
                feed("connector = 'net', addr = 'tcp:127.0.0.1:0'")
            ),
            "SELECT price FROM feed",
            Some("feed (net)"),
        ),
        (
            format!(
                "CREATE PARTITIONED {}",
                feed("connector = 'net', addr = 'tcp:127.0.0.1:0'")
            ),
            "SELECT price FROM feed",
            None,
        ),
        (
            format!(
                "CREATE {}",
                feed("connector = 'file', path = '/tmp/lint_in.csv'")
            ),
            "SELECT price FROM feed",
            None,
        ),
        (
            "CREATE SOURCE nex WITH (connector = 'nexmark', events = 10)".to_string(),
            "SELECT price FROM Bid",
            None,
        ),
        // Telemetry feeds read a latest-snapshot hub and a lossy ring.
        (
            "CREATE SOURCE sys WITH (connector = 'metrics', pipelines = 'q')".to_string(),
            "SELECT metric FROM sys",
            Some("sys (metrics)"),
        ),
        (
            "CREATE SOURCE spans WITH (connector = 'trace')".to_string(),
            "SELECT name FROM spans",
            Some("spans (trace)"),
        ),
    ];
    for (create, select, volatile) in &cases {
        // In-script CREATE: the session asks the registry while seeding.
        let in_script = onesql_connect::session().lint_script(&checkpointed(create, select));
        // Pre-existing source: the verdict was stored at CREATE time.
        let mut session = onesql_connect::session();
        session.execute(create).unwrap();
        let script = checkpointed("SET workers = 1", select);
        let stored = session.lint_script(&script);
        for diags in [&in_script, &stored] {
            match volatile {
                Some(named) => {
                    assert_eq!(codes(diags), ["OSQL004"], "{create}: {diags:?}");
                    assert_eq!(diags[0].severity, Severity::Warning);
                    assert!(
                        diags[0].message.contains(named)
                            && diags[0].message.contains("not replayable"),
                        "{create}: {}",
                        diags[0].message
                    );
                }
                None => assert!(codes(diags).is_empty(), "{create}: {diags:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The `lint` session knob
// ---------------------------------------------------------------------------

/// A script with a warning (ungated windowed emit) that still executes.
const WARNING_SCRIPT: &str = "\
CREATE SOURCE bids (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
  WITH (connector = 'channel');
CREATE SINK out WITH (connector = 'file', path = '/tmp/lint_warn.csv');
INSERT INTO out SELECT wend, COUNT(*) FROM Tumble(data => TABLE(bids),
  timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE)
  GROUP BY wend EMIT STREAM;";

/// A script with an error-severity finding: the two INSERTs disagree on
/// the sink's schema (OSQL006).
const ERROR_SCRIPT: &str = "\
CREATE SOURCE bids (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
  WITH (connector = 'channel');
CREATE SINK out WITH (connector = 'file', path = '/tmp/lint_err.csv');
INSERT INTO out SELECT price FROM bids EMIT STREAM;
INSERT INTO out SELECT price, auction FROM bids EMIT STREAM;";

#[test]
fn warn_mode_attaches_diagnostics_and_executes() {
    let mut session = onesql_connect::session();
    let outcome = session.execute_script(WARNING_SCRIPT).unwrap();
    assert_eq!(codes(&outcome.diagnostics), ["OSQL003"]);
    // Warn is the default: the script still ran to a pipeline.
    assert_eq!(outcome.results.len(), 3);
}

#[test]
fn strict_mode_refuses_error_findings() {
    let mut session = onesql_connect::session();
    session.execute("SET lint = 'strict'").unwrap();
    let err = session.execute_script(ERROR_SCRIPT).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("lint (strict)"), "error: {msg}");
    assert!(msg.contains("OSQL006"), "error: {msg}");
    assert!(msg.contains("SET lint = 'warn'"), "error: {msg}");
}

#[test]
fn strict_mode_lets_warnings_through() {
    let mut session = onesql_connect::session();
    session.execute("SET lint = 'strict'").unwrap();
    let outcome = session.execute_script(WARNING_SCRIPT).unwrap();
    // Strict only blocks Error severity; warnings attach and execute.
    assert_eq!(codes(&outcome.diagnostics), ["OSQL003"]);
}

#[test]
fn off_mode_skips_analysis() {
    let mut session = onesql_connect::session();
    session.execute("SET lint = 'off'").unwrap();
    let outcome = session.execute_script(WARNING_SCRIPT).unwrap();
    assert!(outcome.diagnostics.is_empty());
    assert_eq!(outcome.results.len(), 3);
}

#[test]
fn warn_mode_executes_scripts_with_error_findings() {
    // OSQL006 is severity Error, but only strict mode turns it into a
    // refusal; warn mode reports it and proceeds.
    let mut session = onesql_connect::session();
    let outcome = session.execute_script(ERROR_SCRIPT).unwrap();
    assert_eq!(codes(&outcome.diagnostics), ["OSQL006"]);
    assert_eq!(outcome.diagnostics[0].severity, Severity::Error);
    assert_eq!(outcome.results.len(), 4);
}

#[test]
fn plain_source_checkpoint_lints_clean_and_runs_under_strict() {
    // The linter follows the runtime: a pipeline over a non-partitioned
    // replayable source checkpoints, so strict mode has nothing to refuse.
    let store = std::env::temp_dir().join(format!("lint_session_ck_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut session = onesql_connect::session();
    session.execute("SET lint = 'strict'").unwrap();
    let outcome = session
        .execute_script(&format!(
            "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 3, events = 100);
             CREATE SINK sunk WITH (connector = 'changelog');
             INSERT INTO sunk SELECT auction, price FROM Bid EMIT STREAM;
             CHECKPOINT PIPELINE sunk TO '{}';",
            store.display()
        ))
        .unwrap();
    assert!(outcome.diagnostics.is_empty(), "{:?}", outcome.diagnostics);
    assert!(matches!(
        outcome.results.last(),
        Some(StatementResult::Checkpointed { epoch: 1, .. })
    ));
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn lint_script_uses_session_state_for_knob_checks() {
    let mut session = onesql_connect::session();
    session.execute("SET lint = 'off'").unwrap();
    // `lint_script` is on-demand analysis: it works even when the
    // execute-time hook is off.
    let diags = session.lint_script(WARNING_SCRIPT);
    assert_eq!(codes(&diags), ["OSQL003"]);
}

// ---------------------------------------------------------------------------
// Connector-declared streams
// ---------------------------------------------------------------------------

#[test]
fn nexmark_declared_streams_are_visible_to_the_analyzer() {
    let session = onesql_connect::session();
    // A schema-less nexmark CREATE SOURCE declares Person/Auction/Bid;
    // the analyzer must bind `Bid` without executing the CREATE.
    let diags = session.lint_script(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 1, events = 100);
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint_nex.csv');
         INSERT INTO out SELECT auction, price FROM Bid EMIT STREAM;",
    );
    assert!(codes(&diags).is_empty(), "diags: {diags:?}");
}

// ---------------------------------------------------------------------------
// Tier-1 lint gate: every shipped NEXMark full-stack script
// ---------------------------------------------------------------------------

/// Queries whose join carries no time-bounded predicate, so their join
/// state can never be freed (q7's `Bid.dateTime >= wend - INTERVAL ...`
/// bound is the suite's counter-example).
const UNBOUNDED_JOINS: [&str; 3] = ["q3", "q4_avg_by_category", "q8"];

#[test]
fn shipped_nexmark_scripts_lint_as_classified() {
    let session = onesql_connect::session();
    let sink = std::path::Path::new("/tmp/lint_gate.csv");
    for gated in [false, true] {
        let config = queries::ScriptConfig {
            gated,
            ..queries::ScriptConfig::default()
        };
        for spec in queries::full_stack() {
            let script = queries::full_stack_script(spec.sql, sink, &config);
            let diags = session.lint_script(&script);
            let codes = codes(&diags);
            let name = spec.name;

            // Ungated windowed queries leak per-row revisions to the sink;
            // gating the EMIT clears the finding.
            assert_eq!(
                codes.contains(&"OSQL003"),
                spec.gate_col.is_some() && !gated,
                "{name} (gated={gated}): watermark-gate findings disagree \
                 with FullStackSpec::gate_col: {codes:?}"
            );
            // Joins without a time bound hold state forever; q7 is bounded.
            assert_eq!(
                codes.contains(&"OSQL001"),
                UNBOUNDED_JOINS.contains(&name),
                "{name} (gated={gated}): unbounded-state findings changed: \
                 {codes:?}"
            );
            // Shipped scripts must bind and must never trip an
            // error-severity finding — strict mode could run them all.
            assert!(
                diags.iter().all(|d| d.severity < Severity::Error),
                "{name} (gated={gated}): shipped script has error-severity \
                 findings: {diags:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shipped example scripts (mirrors of the scripts the examples build at
// runtime — paths/knobs substituted with representative values). Each
// example's intentional findings are pinned here; a new finding in one
// of these shapes means the example regressed.
// ---------------------------------------------------------------------------

/// `examples/sql_pipeline.rs`: Q7 over a partitioned net source into a
/// changelog sink. The ungated EMIT is the point of the example (it
/// prints the raw changelog), so OSQL003 is the pinned remainder.
const SQL_PIPELINE_SCRIPT: &str = "\
CREATE STREAM Person (id INT, name STRING, email STRING, city STRING,
                      state STRING, dateTime TIMESTAMP,
                      WATERMARK FOR dateTime);
CREATE STREAM Auction (id INT, itemName STRING, initialBid INT,
                       reserve INT, dateTime TIMESTAMP, expires TIMESTAMP,
                       seller INT, category INT,
                       WATERMARK FOR dateTime);
CREATE STREAM Bid (auction INT, bidder INT, price INT,
                   dateTime TIMESTAMP, WATERMARK FOR dateTime);
CREATE PARTITIONED SOURCE feed
  WITH (connector = 'net', addr = 'unix:/tmp/q7.sock',
        partitions = 4, streams = 'Person,Auction,Bid',
        poll_wait_ms = 10000);
CREATE SINK wins WITH (connector = 'changelog');";

#[test]
fn example_sql_pipeline_script_pins_to_the_ungated_emit() {
    let session = onesql_connect::session();
    let script = format!(
        "{SQL_PIPELINE_SCRIPT}\nEXPLAIN {q7};\nINSERT INTO wins {q7} EMIT STREAM;",
        q7 = queries::Q7
    );
    let diags = session.lint_script(&script);
    assert_eq!(codes(&diags), ["OSQL003"], "diags: {diags:?}");
}

#[test]
fn example_observe_pipeline_script_pins_to_the_ungated_emit() {
    // `examples/observe_pipeline.rs`: Q7 watched by a metrics pipeline.
    // The q7 INSERT deliberately streams the raw changelog (OSQL003);
    // the observer INSERT is gated and must stay clean.
    let session = onesql_connect::session();
    let script = format!(
        "SET workers = 1;
         SET batch_size = 64;
         SET max_batch = 128;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = 4000, partitions = 4);
         CREATE SINK q7_out WITH (connector = 'changelog');
         INSERT INTO q7_out {q7} EMIT STREAM;
         CREATE SOURCE sys_metrics WITH (connector = 'metrics', pipelines = 'q7_out');
         CREATE SINK lag WITH (connector = 'changelog');
         INSERT INTO lag
           SELECT T.wend, MAX(T.value) AS peak_lag_ms
           FROM Tumble(data => TABLE(sys_metrics), timecol => DESCRIPTOR(mtime),
                       dur => INTERVAL '1' MINUTE) T
           WHERE T.metric = 'watermark_lag_ms'
           GROUP BY T.wend
           EMIT STREAM AFTER WATERMARK;",
        q7 = queries::Q7
    );
    let diags = session.lint_script(&script);
    assert_eq!(codes(&diags), ["OSQL003"], "diags: {diags:?}");
    assert!(diags[0].message.contains("q7_out"), "{}", diags[0].message);
}

#[test]
fn example_durable_pipeline_script_lints_clean() {
    // `examples/durable_pipeline.rs`: filter-only pipeline, workers
    // aligned with partitions, transactional file sink.
    let session = onesql_connect::session();
    let diags = session.lint_script(
        "SET workers = 4;
         SET batch_size = 128;
         SET max_batch = 256;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 42, events = 20000, partitions = 4);
         CREATE SINK out WITH (connector = 'file', path = '/tmp/durable.csv',
                               transactional = TRUE);
         INSERT INTO out
           SELECT auction, price, dateTime FROM Bid WHERE price > 900 EMIT STREAM;",
    );
    assert!(codes(&diags).is_empty(), "diags: {diags:?}");
}

// ---------------------------------------------------------------------------
// The analyzer dry-runs the session's own DDL
// ---------------------------------------------------------------------------

#[test]
fn dropping_and_recreating_an_adopting_source_lints_as_it_executes() {
    // `a` adopts the pre-declared stream `s` rather than registering it,
    // so DROP SOURCE a leaves `s` in the catalog for `b` to adopt again.
    let script = "CREATE STREAM s (t TIMESTAMP, v INT, WATERMARK FOR t);
         CREATE SOURCE a WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', streams = 's');
         DROP SOURCE a;
         CREATE SOURCE b WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', streams = 's');
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out SELECT v FROM s EMIT STREAM;";
    let mut session = onesql_connect::session();
    let diags = session.lint_script(script);
    assert!(!codes(&diags).contains(&"OSQL000"), "{diags:?}");
    session.execute("SET lint = 'strict'").unwrap();
    let outcome = session.execute_script(script).unwrap();
    assert_eq!(outcome.pipelines().len(), 1);
}

#[test]
fn a_misspelled_source_option_is_the_sessions_own_error() {
    let script = "CREATE STREAM first (x INT);
         CREATE SOURCE f (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'file', path = '/tmp/lint_lateness.csv', lateness = 5);
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out SELECT v FROM f EMIT STREAM;";
    let mut session = onesql_connect::session();
    let diags = session.lint_script(script);
    let finding = &diags[0];
    assert_eq!(
        (finding.code, finding.severity, finding.statement),
        ("OSQL000", Severity::Error, 1),
        "{diags:?}"
    );
    assert!(
        finding
            .message
            .contains("unknown option 'lateness'; supported options: ["),
        "{}",
        finding.message
    );
    // Word for word what execution stops at.
    let mut unlinted = onesql_connect::session();
    unlinted.execute("SET lint = 'off'").unwrap();
    let executed = unlinted.execute_script(script).unwrap_err();
    assert_eq!(finding.message, executed.to_string());

    session.execute("SET lint = 'strict'").unwrap();
    let refused = session.execute_script(script).unwrap_err().to_string();
    assert!(
        refused.contains("lint (strict)") && refused.contains("unknown option 'lateness'"),
        "{refused}"
    );
    // Refused before the first statement ran.
    assert!(session.engine().schema_of("first").is_err());
}
