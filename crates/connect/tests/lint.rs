//! Positive and negative coverage for every `OSQL...` diagnostic class,
//! plus span correctness and a never-panics property test — all through
//! `Session::lint_script` on a fresh session over the built-in
//! connectors, so every case is judged the way execution would judge it.

use onesql_plan::{Diagnostic, Severity};
use proptest::prelude::*;

fn lint(script: &str) -> Vec<Diagnostic> {
    onesql_connect::session().lint_script(script)
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// A watermarked bids source + file sink, the baseline most tests extend.
const PRELUDE: &str = "\
CREATE SOURCE bids (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
  WITH (connector = 'channel');
CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
";

#[test]
fn clean_script_has_no_findings() {
    let script = format!(
        "{PRELUDE}INSERT INTO out SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
         timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) \
         GROUP BY wstart EMIT STREAM AFTER WATERMARK;"
    );
    assert_eq!(lint(&script), vec![], "clean script must lint clean");
}

// -- OSQL000: parse / bind errors -------------------------------------------

#[test]
fn osql000_bind_error_carries_statement_span() {
    let script = format!("{PRELUDE}SELECT nope FROM bids;");
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL000"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].statement, 2);
    assert_eq!(diags[0].span.slice(&script), "SELECT nope FROM bids");
    assert!(diags[0].message.contains("nope"), "{}", diags[0].message);
}

#[test]
fn osql000_parse_error_spans_whole_text() {
    let diags = lint("SELECT FROM");
    assert_eq!(codes(&diags), vec!["OSQL000"]);
    assert!(
        diags[0].message.contains("line 1"),
        "parse errors keep positions: {}",
        diags[0].message
    );
}

#[test]
fn osql000_negative_valid_statements_bind() {
    assert_eq!(lint("SELECT 1;"), vec![]);
}

// -- OSQL001: unbounded keyed state -----------------------------------------

#[test]
fn osql001_unwindowed_stream_join_fires() {
    let script = format!(
        "{PRELUDE}CREATE SOURCE asks (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         INSERT INTO out SELECT b.price FROM bids b JOIN asks a
           ON b.auction = a.auction EMIT STREAM;"
    );
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL001"]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(
        diags[0].message.contains("time-bounded"),
        "{}",
        diags[0].message
    );
    assert!(diags[0].span.slice(&script).starts_with("INSERT INTO out"));
}

#[test]
fn osql001_negative_time_bounded_join_is_clean() {
    let script = format!(
        "{PRELUDE}CREATE SOURCE asks (t TIMESTAMP, price INT, auction INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         INSERT INTO out SELECT b.price FROM bids b, asks a
           WHERE b.auction = a.auction AND
                 b.t >= a.t - INTERVAL '1' MINUTE AND b.t < a.t
           EMIT STREAM;"
    );
    assert_eq!(lint(&script), vec![]);
}

#[test]
fn osql001_retraction_aggregate_fires_windowed_does_not() {
    let retraction = format!(
        "{PRELUDE}INSERT INTO out SELECT auction, COUNT(*) FROM bids GROUP BY auction EMIT STREAM;"
    );
    let diags = lint(&retraction);
    assert_eq!(codes(&diags), vec!["OSQL001"]);
    assert!(
        diags[0].message.contains("retraction"),
        "{}",
        diags[0].message
    );

    let windowed = format!(
        "{PRELUDE}INSERT INTO out SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
         timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) \
         GROUP BY wstart EMIT STREAM AFTER WATERMARK;"
    );
    assert_eq!(lint(&windowed), vec![]);
}

#[test]
fn osql001_distinct_over_stream_fires() {
    let script = format!("{PRELUDE}INSERT INTO out SELECT DISTINCT price FROM bids EMIT STREAM;");
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL001"]);
    assert!(
        diags[0].message.contains("DISTINCT"),
        "{}",
        diags[0].message
    );
}

// -- Shard keys: the plan picks them, so nothing is left to lint ---------

const SHARDED_PRELUDE: &str = "\
SET workers = 2;
CREATE PARTITIONED SOURCE bids (auction INT, t TIMESTAMP, price INT, WATERMARK FOR t)
  WITH (connector = 'channel', partitions = 2);
CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
";

/// Grouping off column 0 at `workers = 2` lints clean: the plan routes by
/// the grouping key, and `EXPLAIN` names it.
#[test]
fn grouping_off_column_0_lints_clean_and_routes_by_its_key() {
    let query = "SELECT price, wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
                 timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) GROUP BY price, wstart";
    let script = format!("{SHARDED_PRELUDE}INSERT INTO out {query} EMIT STREAM AFTER WATERMARK;");
    assert_eq!(lint(&script), vec![]);
    let mut session = onesql_connect::session();
    let outcome = session
        .execute_script(&format!("{SHARDED_PRELUDE}EXPLAIN {query};"))
        .unwrap();
    let explain = outcome.explains()[0];
    assert!(explain.contains("Route: bids by price\n"), "{explain}");
}

// -- OSQL003: windowed pipeline without the watermark gate ------------------

#[test]
fn osql003_ungated_windowed_insert_fires() {
    let script = format!(
        "{PRELUDE}INSERT INTO out SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
         timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) \
         GROUP BY wstart EMIT STREAM;"
    );
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL003"]);
    assert!(
        diags[0].message.contains("AFTER WATERMARK"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql003_negative_gated_or_unwindowed_is_clean() {
    let gated = format!(
        "{PRELUDE}INSERT INTO out SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
         timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) \
         GROUP BY wstart EMIT STREAM AFTER WATERMARK;"
    );
    assert_eq!(lint(&gated), vec![]);
    // No window anywhere: a plain filter pipeline may emit raw.
    let unwindowed = format!("{PRELUDE}INSERT INTO out SELECT price FROM bids EMIT STREAM;");
    assert_eq!(lint(&unwindowed), vec![]);
}

// -- OSQL004: doomed CHECKPOINT ---------------------------------------------

#[test]
fn osql004_negative_plain_replayable_pipeline_checkpoints_clean() {
    // Every pipeline checkpoints: a non-partitioned, replayable (file)
    // source is nothing to report.
    let script = "CREATE SOURCE bids (t TIMESTAMP, price INT, WATERMARK FOR t)
           WITH (connector = 'file', path = '/tmp/lint-in.csv');
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
         INSERT INTO out SELECT price FROM bids EMIT STREAM;
         CHECKPOINT PIPELINE out TO '/tmp/lint-ck';";
    assert_eq!(lint(script), vec![]);
}

#[test]
fn osql004_follows_the_connectors_replayability_verdict() {
    // Whether a source can replay is its connector family's call (a plain
    // `net` source acks as it consumes, the PARTITIONED one holds acks
    // until a checkpoint is durable): the analyzer only reads the verdict.
    let plain = "CREATE SOURCE feed (t TIMESTAMP, price INT, WATERMARK FOR t)
               WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
             CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
             INSERT INTO out SELECT price FROM feed EMIT STREAM;
             CHECKPOINT PIPELINE out TO '/tmp/lint-ck';";
    let diags = lint(plain);
    assert_eq!(codes(&diags), vec!["OSQL004"]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(
        diags[0].message.contains("feed (net)") && diags[0].message.contains("not replayable"),
        "{}",
        diags[0].message
    );
    assert!(diags[0]
        .span
        .slice(plain)
        .starts_with("CHECKPOINT PIPELINE"));
    let partitioned = plain.replace("CREATE SOURCE", "CREATE PARTITIONED SOURCE");
    assert_eq!(lint(&partitioned), vec![], "acks held until durable");
}

#[test]
fn osql004_non_replayable_sharded_source_warns() {
    let script = format!(
        "{SHARDED_PRELUDE}INSERT INTO out SELECT auction, wstart, COUNT(*) \
         FROM Tumble(data => TABLE(bids), timecol => DESCRIPTOR(t), \
         dur => INTERVAL '1' MINUTE) \
         GROUP BY auction, wstart EMIT STREAM AFTER WATERMARK;
         CHECKPOINT PIPELINE out TO '/tmp/lint-ck';"
    );
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL004"]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(
        diags[0].message.contains("not replayable"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql004_unknown_pipeline_is_error() {
    let diags = lint("CHECKPOINT PIPELINE ghost TO '/tmp/lint-ck';");
    assert_eq!(codes(&diags), vec!["OSQL004"]);
    assert!(
        diags[0].message.contains("no such pipeline"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql004_negative_replayable_sharded_pipeline_is_clean() {
    // A partitioned file source takes one path per partition.
    let script = "SET workers = 2;
         CREATE PARTITIONED SOURCE bids (auction INT, t TIMESTAMP, price INT, WATERMARK FOR t)
           WITH (connector = 'file', path = '/tmp/lint-in-0.csv,/tmp/lint-in-1.csv');
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
         INSERT INTO out SELECT auction, wstart, COUNT(*)
           FROM Tumble(data => TABLE(bids), timecol => DESCRIPTOR(t),
                       dur => INTERVAL '1' MINUTE)
           GROUP BY auction, wstart EMIT STREAM AFTER WATERMARK;
         CHECKPOINT PIPELINE out TO '/tmp/lint-ck';";
    assert_eq!(lint(script), vec![]);
}

// -- OSQL005: watermark-dependent query with no event-time column -----------

#[test]
fn osql005_window_on_unwatermarked_column_fires() {
    // `t` is a TIMESTAMP but carries no WATERMARK FOR, so windows only
    // finalize at end of stream.
    let script = "CREATE SOURCE bids (t TIMESTAMP, price INT) WITH (connector = 'channel');
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
         INSERT INTO out SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(bids), \
         timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) \
         GROUP BY wstart EMIT STREAM AFTER WATERMARK;";
    let diags = lint(script);
    assert_eq!(codes(&diags), vec!["OSQL005"]);
    assert!(
        diags[0].message.contains("WATERMARK FOR"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql005_gated_emit_without_event_time_fires() {
    let script = "CREATE SOURCE bids (t TIMESTAMP, price INT) WITH (connector = 'channel');
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
         INSERT INTO out SELECT price FROM bids EMIT STREAM AFTER WATERMARK;";
    let diags = lint(script);
    assert_eq!(codes(&diags), vec!["OSQL005"]);
    assert!(
        diags[0].message.contains("end of stream"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql005_negative_watermarked_source_is_clean() {
    let script =
        format!("{PRELUDE}INSERT INTO out SELECT price FROM bids EMIT STREAM AFTER WATERMARK;");
    assert_eq!(lint(&script), vec![]);
}

// -- OSQL006: sink schema drift ---------------------------------------------

#[test]
fn osql006_conflicting_inserts_fire() {
    let script = format!(
        "{PRELUDE}INSERT INTO out SELECT price FROM bids EMIT STREAM;
         INSERT INTO out SELECT price, auction FROM bids EMIT STREAM;"
    );
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL006"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("differs"), "{}", diags[0].message);
    assert!(diags[0]
        .span
        .slice(&script)
        .contains("SELECT price, auction"));
}

#[test]
fn osql006_net_sink_stream_mismatch_fires() {
    let script = "CREATE SOURCE bids (t TIMESTAMP, price INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         CREATE STREAM quotes (q INT, r INT, s INT);
         CREATE SINK fwd WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', stream = 'quotes');
         INSERT INTO fwd SELECT price FROM bids EMIT STREAM;";
    let diags = lint(script);
    assert_eq!(codes(&diags), vec!["OSQL006"]);
    assert!(diags[0].message.contains("quotes"), "{}", diags[0].message);
}

#[test]
fn osql006_negative_consistent_inserts_are_clean() {
    let script = format!(
        "{PRELUDE}INSERT INTO out SELECT price FROM bids EMIT STREAM;
         INSERT INTO out SELECT auction FROM bids EMIT STREAM;"
    );
    // Same arity and types (both single INT); names may differ.
    assert_eq!(lint(&script), vec![]);
}

// -- OSQL007: unfed streams and dead CREATEs --------------------------------

#[test]
fn osql007_insert_over_unfed_stream_is_error() {
    let script = "CREATE STREAM quotes (q INT);
         CREATE SINK out WITH (connector = 'file', path = '/tmp/lint-out');
         INSERT INTO out SELECT q FROM quotes EMIT STREAM;";
    let diags = lint(script);
    assert_eq!(codes(&diags), vec!["OSQL007"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(
        diags[0].message.contains("no CREATE SOURCE feeds"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql007_dead_create_is_noted() {
    let script = format!(
        "{PRELUDE}CREATE STREAM orphan (x INT);\nINSERT INTO out SELECT price FROM bids EMIT STREAM;"
    );
    let diags = lint(&script);
    assert_eq!(codes(&diags), vec!["OSQL007"]);
    assert_eq!(diags[0].severity, Severity::Note);
    assert!(
        diags[0].message.contains("never used"),
        "{}",
        diags[0].message
    );
    assert!(diags[0].span.slice(&script).contains("orphan"));
}

#[test]
fn osql007_negative_fed_and_used_objects_are_clean() {
    let script = format!("{PRELUDE}INSERT INTO out SELECT price FROM bids EMIT STREAM;");
    assert_eq!(lint(&script), vec![]);
}

// -- OSQL008: contradictory knobs -------------------------------------------

#[test]
fn osql008_min_batch_above_max_batch_is_the_sessions_refusal() {
    // The session refuses the SET that empties the adaptive range, so the
    // finding is that refusal (OSQL000), reported once, not also OSQL008.
    let diags = lint("SET min_batch = 100;\nSET max_batch = 50;");
    assert_eq!(codes(&diags), vec!["OSQL000"]);
    assert!(
        diags[0].message.contains("below min_batch (100)"),
        "{}",
        diags[0].message
    );
    // The finding anchors to the statement completing the contradiction.
    assert_eq!(diags[0].statement, 1);
}

#[test]
fn osql008_batch_size_outside_adaptive_range_fires() {
    let diags = lint("SET batch_size = 10;\nSET min_batch = 20;\nSET max_batch = 40;");
    assert_eq!(codes(&diags), vec!["OSQL008"]);
    assert!(
        diags[0].message.contains("below min_batch"),
        "{}",
        diags[0].message
    );
}

#[test]
fn osql008_workers_above_partitions_is_no_contradiction_either_order() {
    // Rows route by the hash of the key the plan derives, not by
    // partition, so no worker count idles a worker: `workers` above a
    // source's `partitions` is no finding, in either order. The one
    // finding is the dead CREATE (OSQL007).
    let set_last = "CREATE PARTITIONED SOURCE bids (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel', partitions = 2);
         SET workers = 4;";
    let set_first = "SET workers = 4;
         CREATE PARTITIONED SOURCE bids (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel', partitions = 2);";
    for script in [set_last, set_first] {
        assert_eq!(codes(&lint(script)), vec!["OSQL007"], "{script}");
    }
}

#[test]
fn osql008_negative_consistent_knobs_are_clean() {
    assert_eq!(
        lint("SET min_batch = 10;\nSET max_batch = 100;\nSET batch_size = 50;"),
        vec![]
    );
}

// -- report rendering -------------------------------------------------------

#[test]
fn diagnostics_render_with_line_and_column() {
    let script = format!("{PRELUDE}SELECT nope FROM bids;");
    let diags = lint(&script);
    let line = diags[0].render(&script);
    assert!(
        line.starts_with("OSQL000 error at line 4, column 1:"),
        "{line}"
    );
    let report = onesql_plan::render_report(&diags, &script);
    assert!(report.contains("OSQL000"), "{report}");
    assert_eq!(onesql_plan::render_report(&[], &script), "no lint findings");
}

// -- never panics -----------------------------------------------------------

/// Connector names the dry run hands `WITH` bags to, each with the option
/// keys its source or sink reads (plus one the registry does not know).
const CONNECTORS: [(&str, &[&str]); 8] = [
    (
        "file",
        &[
            "path",
            "format",
            "header",
            "lateness_ms",
            "mode",
            "transactional",
        ],
    ),
    ("channel", &["capacity", "partitions"]),
    ("nexmark", &["events", "seed", "partitions"]),
    (
        "net",
        &[
            "addr",
            "streams",
            "stream",
            "partitions",
            "partition",
            "poll_wait_ms",
            "silence_limit_ms",
            "producer_restarts",
            "batch_events",
            "spool_events",
            "connect_timeout_ms",
            "ack_wait_ms",
            "keepalive_ms",
        ],
    ),
    ("metrics", &["pipelines"]),
    ("trace", &["pipelines"]),
    ("changelog", &["path", "watermarks"]),
    ("nope", &["path"]),
];

/// Keys no connector reads, or reads under another spelling.
const NEAR_MISSES: [&str; 4] = ["lateness", "Path", "key", "PARTITIONS"];

fn option_value() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..5).prop_map(|n| n.to_string()),
        Just("TRUE".to_string()),
        Just("FALSE".to_string()),
        "'[a-z0-9:/,. =]{0,10}'",
        Just("'tcp:127.0.0.1:0'".to_string()),
        Just("'unix:/tmp/lint.sock'".to_string()),
        Just("'s,q'".to_string()),
        Just("'jsonl'".to_string()),
        Just("'appends'".to_string()),
    ]
}

/// `CREATE SOURCE` / `CREATE SINK` with an arbitrary connector and up to
/// three arbitrary `WITH` options, mostly from that connector's own
/// vocabulary: what reaches connector `declare`.
fn connector_ddl() -> impl Strategy<Value = String> {
    let object = prop_oneof![
        Just("SOURCE s (t TIMESTAMP, v INT, WATERMARK FOR t)"),
        Just("PARTITIONED SOURCE p (k INT, t TIMESTAMP, WATERMARK FOR t)"),
        Just("SOURCE ghost"),
        Just("PARTITIONED SOURCE ghost"),
        Just("SINK out"),
    ];
    let options = proptest::collection::vec((0..20usize, option_value()), 0..4);
    (object, 0..CONNECTORS.len(), options).prop_map(|(object, connector, options)| {
        let (name, vocabulary) = CONNECTORS[connector];
        let mut with = vec![format!("connector = '{name}'")];
        with.extend(options.into_iter().map(|(key, value)| {
            let key = match key.checked_sub(16) {
                Some(miss) => NEAR_MISSES[miss],
                None => vocabulary[key % vocabulary.len()],
            };
            format!("{key} = {value}")
        }));
        format!("CREATE {object} WITH ({})", with.join(", "))
    })
}

/// Fragments that compose into scripts exercising every statement kind,
/// valid or not — the analyzer must never panic, whatever the mix.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        connector_ddl(),
        connector_ddl(),
        Just("CREATE SOURCE s (t TIMESTAMP, v INT, WATERMARK FOR t) WITH (connector = 'channel')".to_string()),
        Just("CREATE PARTITIONED SOURCE p (k INT, t TIMESTAMP, WATERMARK FOR t) WITH (connector = 'channel', partitions = 2)".to_string()),
        Just("CREATE SOURCE ghost WITH (connector = 'nexmark', events = 10)".to_string()),
        Just("CREATE SOURCE a WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', streams = 's')".to_string()),
        Just("CREATE SINK out WITH (connector = 'file', path = '/tmp/x')".to_string()),
        Just("CREATE SINK fwd WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', stream = 's')".to_string()),
        Just("CREATE STREAM q (a INT)".to_string()),
        Just("CREATE STREAM s (t TIMESTAMP, v INT, WATERMARK FOR t)".to_string()),
        Just("CREATE TEMPORAL TABLE r (id INT, rate INT) WITH (key = 'id')".to_string()),
        Just("INSERT INTO out SELECT v FROM s EMIT STREAM".to_string()),
        Just("INSERT INTO out SELECT DISTINCT v FROM s EMIT STREAM".to_string()),
        Just("INSERT INTO out SELECT k, COUNT(*) FROM p GROUP BY k EMIT STREAM".to_string()),
        Just("INSERT INTO fwd SELECT wstart, COUNT(*) FROM Tumble(data => TABLE(s), timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) GROUP BY wstart EMIT STREAM".to_string()),
        Just("SELECT missing FROM nowhere".to_string()),
        Just("SET workers = 4".to_string()),
        Just("SET min_batch = 100".to_string()),
        Just("SET max_batch = 10".to_string()),
        Just("SET batch_size = 1".to_string()),
        Just("CHECKPOINT PIPELINE out TO '/tmp/ck'".to_string()),
        Just("RESTORE PIPELINE out FROM '/tmp/ck'".to_string()),
        Just("SHOW PIPELINES".to_string()),
        Just("DROP SOURCE IF EXISTS s".to_string()),
        Just("DROP SOURCE a".to_string()),
        Just("DROP STREAM IF EXISTS q".to_string()),
        Just("DROP TABLE r".to_string()),
        Just("DROP SINK IF EXISTS out".to_string()),
        Just("EXPLAIN SELECT 1".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lint_script_never_panics(stmts in proptest::collection::vec(fragment(), 0..8)) {
        let script = stmts.join(";\n");
        // Parse failures included: still no panic.
        let _ = lint(&script);
    }
}
