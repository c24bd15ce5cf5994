//! The SQL-first pipeline API, black-box: a pipeline whose source is
//! defined *entirely* in SQL (`CREATE SOURCE` / `CREATE SINK` / `INSERT
//! INTO ... SELECT ... EMIT`) must behave exactly like the same pipeline
//! over a source built in Rust and registered as a bespoke connector —
//! byte-identical sink changelogs on one worker and on several — plus the
//! validation story: misspelled connectors and options, ill-typed
//! values, and impossible recovery combinations all surface as
//! descriptive errors, never panics.

mod common;

use std::sync::{Arc, Mutex};

use onesql::connect::{default_registry, session};
use onesql::{
    ChannelPublisher, DriverConfig, Engine, NexmarkSource, PartitionedNexmarkSource,
    PartitionedSource, PartitionedVec, Session, StatementResult,
};
use onesql_nexmark::model::{Auction, Bid, Person};
use onesql_nexmark::queries;
use onesql_types::{row, Row, Ts};

use common::{assemble, Bespoke};

const EVENTS: u64 = 3_000;
const PARTS: usize = 4;
const WORKERS: usize = 2;

/// Q7 with the paper's EMIT clause, shared verbatim by both wirings.
fn q7_emit() -> String {
    format!("{} EMIT STREAM", queries::Q7)
}

/// The changelog and final table Q7 produces on `workers` workers over
/// the source `build` constructs in Rust, registered as a bespoke
/// connector.
fn imperative(
    workers: usize,
    build: impl Fn() -> Box<dyn PartitionedSource> + Send + Sync + 'static,
) -> (String, Vec<Row>) {
    let streams = vec![
        ("Person", Person::schema()),
        ("Auction", Auction::schema()),
        ("Bid", Bid::schema()),
    ];
    let mut registry = default_registry();
    registry.register_source("bespoke", Bespoke::new(streams, build));
    let mut session = Session::new(registry);
    let script = format!(
        "SET workers = {workers};
         CREATE SOURCE nex WITH (connector = 'bespoke');
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out {};",
        q7_emit()
    );
    let mut pipeline = assemble(&mut session, &script);
    let rendered = session.take_handle::<Arc<Mutex<String>>>("out").unwrap();
    pipeline.run().unwrap();
    let out = rendered.lock().unwrap().clone();
    assert!(!out.is_empty(), "imperative Q7 produced no output");
    (out, pipeline.table().unwrap())
}

/// The changelog Q7 produces over a plain source built in Rust.
fn imperative_plain() -> String {
    let build = || -> Box<dyn PartitionedSource> {
        Box::new(PartitionedVec::single(NexmarkSource::seeded(7, EVENTS)))
    };
    imperative(1, build).0
}

/// [`imperative`] over the partitioned source.
fn imperative_sharded(workers: usize) -> (String, Vec<Row>) {
    imperative(workers, || {
        Box::new(PartitionedNexmarkSource::seeded(7, EVENTS, PARTS))
    })
}

#[test]
fn sql_script_q7_matches_imperative_plain_driver() {
    let mut session = session();
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {EVENTS});
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out {};",
        q7_emit()
    );
    let mut pipeline = assemble(&mut session, &script);
    assert_eq!(
        pipeline.workers(),
        1,
        "one worker unless SET workers says otherwise"
    );
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("out")
        .expect("the in-memory changelog sink exports its buffer");
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, EVENTS);
    assert_eq!(*rendered.lock().unwrap(), imperative_plain());
}

#[test]
fn sql_script_q7_matches_imperative_sharded_driver() {
    // The script is fully self-contained: the worker count rides in a
    // `SET` statement instead of a Rust-side setter call.
    let mut session = session();
    let script = format!(
        "SET workers = {WORKERS};
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = {PARTS});
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out {};",
        q7_emit()
    );
    let mut pipeline = assemble(&mut session, &script);
    assert_eq!(pipeline.workers(), WORKERS, "SET workers applied");
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("out")
        .expect("the in-memory changelog sink exports its buffer");
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, EVENTS);
    let (changelog, table) = imperative_sharded(WORKERS);
    assert_eq!(*rendered.lock().unwrap(), changelog);
    // Each ten-minute window lives on one worker, so the two workers'
    // answer is the one worker's over the same input.
    assert_eq!(pipeline.table().unwrap(), table);
    assert_eq!(table, imperative_sharded(1).1);
}

// ---------------------------------------------------------------------------
// Definitions persist; pipelines drive channels through exported handles.
// ---------------------------------------------------------------------------

#[test]
fn channel_pipeline_via_script_and_handles() {
    let mut session = session();
    session
        .execute_script(
            "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
               WITH (connector = 'channel', capacity = 128);
             CREATE SINK out WITH (connector = 'changelog');",
        )
        .unwrap();
    // A later script binds against the persisted definitions.
    let mut pipeline = assemble(
        &mut session,
        "INSERT INTO out SELECT price FROM Bid WHERE price > 2 EMIT STREAM;",
    );
    let publishers = session
        .take_handle::<Vec<ChannelPublisher>>("Bid")
        .expect("the channel source exports its publishers");
    for i in 0..10i64 {
        publishers[0].insert(Ts(i), row!(Ts(i), i)).unwrap();
    }
    publishers[0].finish().unwrap();
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, 10);
    assert_eq!(metrics.events_out, 7, "prices 3..=9 pass the filter");
}

/// A `channel` can retract, so `MAX` over it keeps every price: taking
/// back the maximum revises the group to the next one.
#[test]
fn max_over_a_channel_takes_back_a_retracted_maximum() {
    let mut session = session();
    session
        .execute_script(
            "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
               WITH (connector = 'channel');
             CREATE SINK out WITH (connector = 'changelog');",
        )
        .unwrap();
    let mut pipeline = assemble(
        &mut session,
        "INSERT INTO out SELECT MAX(price) AS top FROM Bid EMIT STREAM;",
    );
    let publishers = session.take_handle::<Vec<ChannelPublisher>>("Bid").unwrap();
    let rendered = session.take_handle::<Arc<Mutex<String>>>("out").unwrap();
    publishers[0].insert(Ts(1), row!(Ts(1), 10i64)).unwrap();
    publishers[0].insert(Ts(2), row!(Ts(2), 5i64)).unwrap();
    publishers[0].retract(Ts(3), row!(Ts(1), 10i64)).unwrap();
    publishers[0].finish().unwrap();
    pipeline.run().unwrap();
    assert_eq!(pipeline.table().unwrap(), vec![row!(5i64)]);
    let out = rendered.lock().unwrap().clone();
    assert!(
        out.contains("undo  10") && out.contains("+     5 "),
        "{out}"
    );
}

#[test]
fn explain_drop_and_redefinition() {
    let mut session = session();
    let outcome = session
        .execute_script(
            "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
               WITH (connector = 'channel');
             EXPLAIN SELECT v FROM S WHERE v > 1;",
        )
        .unwrap();
    let explains = outcome.explains();
    assert_eq!(explains.len(), 1);
    assert!(explains[0].contains("Filter"), "{}", explains[0]);
    assert!(explains[0].contains("Scan: S"), "{}", explains[0]);

    // Double CREATE is refused; DROP then recreate works.
    let err = session
        .execute("CREATE SOURCE S (v INT) WITH (connector = 'channel')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("already exists"), "{err}");
    session.execute("DROP SOURCE S").unwrap();
    session
        .execute(
            "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t) WITH (connector = 'channel')",
        )
        .unwrap();

    // DROP of missing objects: IF EXISTS tolerates, bare DROP errors.
    session.execute("DROP SINK IF EXISTS nope").unwrap();
    let err = session.execute("DROP SINK nope").err().unwrap().to_string();
    assert!(err.contains("no such object"), "{err}");
}

#[test]
fn source_and_sink_sharing_a_name_keep_separate_handles() {
    let mut session = session();
    let mut pipeline = assemble(
        &mut session,
        "CREATE SOURCE data (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         CREATE SINK data WITH (connector = 'changelog');
         INSERT INTO data SELECT v FROM data EMIT STREAM;",
    );
    let publishers = session
        .take_handle::<Vec<ChannelPublisher>>("data")
        .expect("the source's publishers must survive the sink build");
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("data")
        .expect("the sink's buffer is retrievable under the same name");
    publishers[0].insert(Ts(0), row!(Ts(0), 7i64)).unwrap();
    publishers[0].finish().unwrap();
    pipeline.run().unwrap();
    assert!(rendered.lock().unwrap().contains('7'));
}

#[test]
fn failed_create_source_registers_no_streams() {
    // The nexmark connector declares Person, Auction, Bid; if one of
    // them clashes, the CREATE must fail without leaving the others
    // registered behind.
    let mut session = session();
    session
        .execute("CREATE TEMPORAL TABLE Auction (id INT, reserve INT)")
        .unwrap();
    let err = session
        .execute("CREATE SOURCE nex WITH (connector = 'nexmark', events = 10)")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("already registered as a table"), "{err}");
    // 'Person' must NOT have leaked into the catalog.
    session
        .execute("CREATE STREAM Person (id INT, dateTime TIMESTAMP, WATERMARK FOR dateTime)")
        .expect("a failed CREATE SOURCE must not half-register streams");
}

#[test]
fn temporal_table_ddl_queries_as_of() {
    let mut session = session();
    session
        .execute("CREATE TEMPORAL TABLE Rates (currency STRING, rate INT) WITH (key = 'currency')")
        .unwrap();
    let table = session.engine_mut().temporal_table_mut("Rates").unwrap();
    table.insert(Ts::hm(9, 0), row!("EUR", 114i64)).unwrap();
    table.insert(Ts::hm(10, 0), row!("EUR", 120i64)).unwrap();
    let StatementResult::Rows(rows) = session
        .execute("SELECT rate FROM Rates AS OF SYSTEM TIME TIMESTAMP '9:30'")
        .unwrap()
    else {
        panic!("expected the table view")
    };
    assert_eq!(rows, vec![row!(114i64)]);
}

#[test]
fn bare_select_over_a_table_returns_its_ordered_limited_rows() {
    let mut session = session();
    session
        .engine_mut()
        .register_table(
            "Category",
            onesql::StreamBuilder::new()
                .column("id", onesql_types::DataType::Int)
                .column("name", onesql_types::DataType::String),
            onesql_nexmark::model::category_rows(),
        )
        .unwrap();
    let result = session
        .execute("SELECT id, name FROM Category WHERE id > 10 ORDER BY id DESC LIMIT 2")
        .unwrap();
    let StatementResult::Rows(rows) = result else {
        panic!("expected the table view, got {result:?}")
    };
    assert_eq!(rows, vec![row!(14i64, "art"), row!(13i64, "cars")]);
}

#[test]
fn bare_select_over_a_stream_is_refused_toward_insert_into() {
    let mut session = session();
    session
        .execute("CREATE SOURCE nex WITH (connector = 'nexmark', events = 10)")
        .unwrap();
    let err = session
        .execute("SELECT price FROM Bid")
        .unwrap_err()
        .to_string();
    assert!(err.contains("[bid]"), "{err}");
    assert!(err.contains("INSERT INTO"), "{err}");
}

#[test]
fn trailing_semicolons_accepted_by_both_entry_points() {
    // A statement copied out of a script (with its `;`) must parse
    // identically through Engine::plan and Session::execute.
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        onesql::StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", onesql_types::DataType::Int),
    );
    engine.plan("SELECT price FROM Bid;").unwrap();
    engine.plan("SELECT price FROM Bid;;").unwrap();
    let mut session = session();
    session.execute("EXPLAIN SELECT 1;").unwrap();
    let rows = session.execute("SELECT 1; -- copied\n").unwrap();
    assert!(matches!(rows, StatementResult::Rows(r) if r == vec![row!(1i64)]));
}

// ---------------------------------------------------------------------------
// Connector-option validation: descriptive errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn unknown_connector_names_are_suggested() {
    let mut session = session();
    let err = session
        .execute("CREATE SOURCE s (v INT) WITH (connector = 'fil', path = 'x')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("unknown source connector 'fil'"), "{err}");
    assert!(err.contains("did you mean 'file'"), "{err}");

    let err = session
        .execute("CREATE SINK s WITH (connector = 'changelgo')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("did you mean 'changelog'"), "{err}");
}

#[test]
fn unknown_and_duplicate_with_keys_are_rejected() {
    let mut session = session();
    let err = session
        .execute("CREATE SOURCE s WITH (connector = 'nexmark', events = 10, sed = 5)")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("unknown option 'sed'"), "{err}");
    assert!(err.contains("did you mean 'seed'"), "{err}");

    let err = session
        .execute("CREATE SOURCE s (v INT) WITH (connector = 'file', path = 'a', path = 'b')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("duplicate WITH option 'path'"), "{err}");
}

#[test]
fn option_type_and_missing_key_errors_name_the_option() {
    let mut session = session();
    let err = session
        .execute(
            "CREATE PARTITIONED SOURCE s
               WITH (connector = 'nexmark', events = 10, partitions = 'abc')",
        )
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("option 'partitions'"), "{err}");
    assert!(err.contains("'abc'"), "{err}");

    let err = session
        .execute("CREATE SOURCE s (v INT) WITH (connector = 'file')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("missing required option 'path'"), "{err}");

    let err = session
        .execute("CREATE SOURCE s (v INT) WITH (connector = 'net', addr = '127.0.0.1:0')")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("'tcp:host:port'"), "{err}");
}

#[test]
fn insert_against_missing_objects_errors() {
    let mut session = session();
    session
        .execute("CREATE SINK out WITH (connector = 'changelog')")
        .unwrap();
    // Unknown sink.
    let err = session
        .execute("INSERT INTO nowhere SELECT 1")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("no such sink"), "{err}");
    // A query over streams no CREATE SOURCE feeds.
    session.execute("CREATE STREAM Orphan (v INT)").unwrap();
    let err = session
        .execute("INSERT INTO out SELECT v FROM Orphan")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("no CREATE SOURCE feeds"), "{err}");

    // A *partially* fed query must also error (a silently empty join is
    // worse than a missing-source error), naming only the unfed stream.
    session
        .execute(
            "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
             WITH (connector = 'channel')",
        )
        .unwrap();
    let err = session
        .execute("INSERT INTO out SELECT price FROM Bid B JOIN Orphan O ON B.price = O.v")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("orphan"), "{err}");
    assert!(
        !err.contains("[bid"),
        "only the unfed stream is named: {err}"
    );
}

#[test]
fn drop_source_unregisters_its_streams() {
    let mut session = session();
    session
        .execute(
            "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t) WITH (connector = 'channel')",
        )
        .unwrap();
    session.execute("DROP SOURCE S").unwrap();
    // The auto-registered stream must be gone with it, so the source
    // can be recreated under a different schema...
    session
        .execute("CREATE SOURCE S (v INT, x STRING) WITH (connector = 'channel')")
        .expect("recreate with a different schema after DROP");
    session.execute("DROP SOURCE S").unwrap();
    // ...and a pre-existing CREATE STREAM is *not* swept up by DROP
    // SOURCE (the source did not register it).
    session.execute("CREATE STREAM T (v INT)").unwrap();
    session
        .execute(
            "CREATE SOURCE net_t WITH (connector = 'net', addr = 'tcp:127.0.0.1:0',
             streams = 'T')",
        )
        .unwrap();
    session.execute("DROP SOURCE net_t").unwrap();
    let err = session
        .execute("CREATE STREAM T (v INT)")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("already exists"), "T must survive: {err}");
}

#[test]
fn drop_stream_refused_while_a_source_feeds_it() {
    let mut session = session();
    session
        .execute("CREATE SOURCE nex WITH (connector = 'nexmark', events = 10)")
        .unwrap();
    let err = session
        .execute("DROP STREAM Person")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("source 'nex' feeds it"), "{err}");
    // After dropping the source, the stream goes with it (auto-
    // registered), so DROP STREAM then reports absence.
    session.execute("DROP SOURCE nex").unwrap();
    session.execute("DROP STREAM IF EXISTS Person").unwrap();
}

#[test]
fn side_irrelevant_net_options_are_rejected() {
    let mut session = session();
    // Consumer-side knob on the (producer-side) net sink.
    let err = session
        .execute(
            "CREATE SINK ship WITH (connector = 'net', addr = 'tcp:h:1',
             stream = 'S', silence_limit_ms = 100)",
        )
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("unknown option 'silence_limit_ms'"), "{err}");
    // Producer-side knob on the (consumer-side) net source.
    let err = session
        .execute(
            "CREATE SOURCE feed (v INT) WITH (connector = 'net',
             addr = 'tcp:127.0.0.1:0', keepalive_ms = 100)",
        )
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("unknown option 'keepalive_ms'"), "{err}");
    // Options that would sit inert are refused across families: a
    // header on JSON-lines, and multi-partition nets without
    // PARTITIONED — both at CREATE time, not first-INSERT time.
    let err = session
        .execute(
            "CREATE SINK j WITH (connector = 'file', path = '/tmp/x.jsonl',
             format = 'jsonl', header = FALSE)",
        )
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("only applies to format='csv'"), "{err}");
    let err = session
        .execute(
            "CREATE SOURCE feed (v INT) WITH (connector = 'net',
             addr = 'tcp:127.0.0.1:0', partitions = 4)",
        )
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("needs CREATE PARTITIONED SOURCE"), "{err}");
}

#[test]
fn failed_insert_does_not_clobber_live_handles() {
    let mut session = session();
    let mut pipeline = assemble(
        &mut session,
        "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         CREATE SINK good WITH (connector = 'changelog');
         CREATE SINK other WITH (connector = 'changelog');
         CREATE SINK bad WITH (connector = 'file', path = '/nonexistent-dir/x.csv');
         INSERT INTO good SELECT v FROM S EMIT STREAM;",
    );
    // A later INSERT that fails at sink build (unwritable path) must
    // not replace the live pipeline's exported publishers.
    let err = session
        .execute("INSERT INTO bad SELECT v FROM S EMIT STREAM")
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("cannot create"), "{err}");
    let publishers = session
        .take_handle::<Vec<ChannelPublisher>>("S")
        .expect("live pipeline's publishers survive the failed INSERT");
    publishers[0].insert(Ts(0), row!(Ts(0), 3i64)).unwrap();
    publishers[0].finish().unwrap();
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, 1, "the live pipeline still ingests");

    // The channel the failed INSERT built died with its driver: the next
    // INSERT is fed by its own connectors only (a stale channel nobody
    // can finish would also hang this run).
    let StatementResult::Pipeline(mut next) = session
        .execute("INSERT INTO other SELECT v FROM S EMIT STREAM")
        .unwrap()
    else {
        panic!("expected a pipeline")
    };
    let publishers = session
        .take_handle::<Vec<ChannelPublisher>>("S")
        .expect("the new pipeline's publishers");
    publishers[0].insert(Ts(0), row!(Ts(0), 4i64)).unwrap();
    publishers[0].finish().unwrap();
    let metrics = next.run().unwrap();
    assert_eq!((metrics.sources.len(), metrics.events_in), (1, 1));
}

/// The one behaviour change of folding the worker set into
/// [`DriverConfig`]: the setter replaces the whole configuration, `SET
/// workers` included.
#[test]
fn set_driver_config_replaces_workers_too() {
    let insert = "INSERT INTO out SELECT auction, COUNT(*) FROM Bid GROUP BY auction;";
    let mut session = session();
    session
        .execute_script(
            "SET workers = 4;
             CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = 200);
             CREATE SINK out WITH (connector = 'changelog');",
        )
        .unwrap();
    let workers = |session: &mut onesql::Session| match session.execute(insert).unwrap() {
        StatementResult::Pipeline(pipeline) => pipeline.workers(),
        other => panic!("expected a pipeline, got {other:?}"),
    };
    assert_eq!(workers(&mut session), 4);
    session.set_driver_config(DriverConfig {
        vectorize: false,
        ..DriverConfig::default()
    });
    assert_eq!(workers(&mut session), 1, "workers went back to the default");
}

/// `EXPLAIN ANALYZE` and `INSERT INTO` build the same pipeline from the
/// same bound query, on one worker or two: what goes in and what comes
/// out do not depend on which statement ran it.
#[test]
fn explain_analyze_and_insert_count_the_same_events() {
    for workers in [1, WORKERS] {
        let mut session = session();
        session
            .execute_script(&format!(
                "SET workers = {workers};
                 CREATE PARTITIONED SOURCE nex
                   WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = {PARTS});
                 CREATE SINK out WITH (connector = 'changelog');"
            ))
            .unwrap();
        let analyzed = session
            .execute(&format!("EXPLAIN ANALYZE {}", q7_emit()))
            .unwrap();
        let StatementResult::Analyzed { rows, .. } = analyzed else {
            panic!("expected Analyzed")
        };
        let analyzed = |name: &str| rows.iter().find(|r| r.name == name).unwrap().value;
        let inserted = session
            .execute(&format!("INSERT INTO out {}", q7_emit()))
            .unwrap();
        let StatementResult::Pipeline(mut pipeline) = inserted else {
            panic!("expected a pipeline")
        };
        let metrics = pipeline.run().unwrap();
        assert_eq!(metrics.events_in, EVENTS);
        assert!(metrics.events_out > 0);
        assert_eq!(analyzed("events_in"), metrics.events_in as i64);
        assert_eq!(analyzed("events_out"), metrics.events_out as i64);
    }
}

#[test]
fn checkpoint_restore_over_a_non_replayable_source_is_a_descriptive_error() {
    // Channels are non-replayable: a sharded pipeline over them can run
    // and even checkpoint, but restoring that checkpoint into a fresh
    // pipeline must refuse descriptively (the pre-crash events exist
    // nowhere to replay from) — never panic, never silently drop data.
    let mut session = session();
    let mut pipeline = assemble(
        &mut session,
        "SET workers = 2;
         CREATE PARTITIONED SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel', partitions = 2);
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out SELECT v FROM S EMIT STREAM;",
    );
    let publishers = session
        .take_handle::<Vec<ChannelPublisher>>("S")
        .expect("publishers exported");
    for i in 0..32i64 {
        publishers[(i % 2) as usize]
            .insert(Ts(i), row!(Ts(i), i))
            .unwrap();
    }
    while pipeline.events_in() < 32 {
        pipeline.step().unwrap();
    }
    let checkpoint = pipeline.driver_mut().checkpoint().unwrap();
    assert!(checkpoint.offsets.iter().flatten().any(|&o| o > 0));

    // A fresh pipeline from the same persistent definitions gets fresh
    // (empty) channels; seeking them to the checkpoint offsets must err.
    let StatementResult::Pipeline(mut fresh) = session
        .execute("INSERT INTO out SELECT v FROM S EMIT STREAM")
        .unwrap()
    else {
        panic!("expected a pipeline")
    };
    let err = fresh
        .driver_mut()
        .restore(&checkpoint)
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("not replayable"), "{err}");
}

#[test]
fn sql_built_sources_keep_their_names() {
    // Every connector builds one partitioned type for N >= 1; the names
    // metrics rows and watermark-provenance labels are keyed by must not
    // show it: one partition is named as the plain source always was.
    let dir = std::env::temp_dir().join("onesql_sql_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join(format!("names-a-{}.csv", std::process::id()));
    let b = dir.join(format!("names-b-{}.csv", std::process::id()));
    std::fs::write(&a, "8:01,5\n").unwrap();
    std::fs::write(&b, "8:02,6\n").unwrap();
    const COLS: &str = "(t TIMESTAMP, v INT, WATERMARK FOR t)";
    let cases = [
        (
            format!(
                "CREATE SOURCE S {COLS} WITH (connector = 'file', path = '{}')",
                a.display()
            ),
            "SELECT v FROM S",
            format!("file:{}", a.display()),
        ),
        (
            format!(
                "CREATE PARTITIONED SOURCE S {COLS} WITH (connector = 'file', path = '{},{}')",
                a.display(),
                b.display()
            ),
            "SELECT v FROM S",
            format!("files:{}x2", a.display()),
        ),
        (
            format!("CREATE SOURCE S {COLS} WITH (connector = 'channel')"),
            "SELECT v FROM S",
            "channel:S".to_string(),
        ),
        (
            format!(
                "CREATE PARTITIONED SOURCE S {COLS} WITH (connector = 'channel', partitions = 2)"
            ),
            "SELECT v FROM S",
            "channel:Sx2".to_string(),
        ),
        (
            "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = 10)".to_string(),
            "SELECT price FROM Bid",
            "nexmark:seed=7".to_string(),
        ),
        (
            "CREATE PARTITIONED SOURCE nex
               WITH (connector = 'nexmark', seed = 7, events = 10, partitions = 4)"
                .to_string(),
            "SELECT price FROM Bid",
            "nexmark:seed=7x4".to_string(),
        ),
    ];
    for (create, select, name) in cases {
        let mut session = session();
        let mut pipeline = assemble(
            &mut session,
            &format!(
                "{create};
                 CREATE SINK out WITH (connector = 'changelog');
                 INSERT INTO out {select} EMIT STREAM;"
            ),
        );
        let metrics = pipeline.metrics();
        assert_eq!(metrics.sources[0].name, name, "{create}");
        let holder = &metrics.watermark_provenance[0].holder;
        if create.contains("PARTITIONED") {
            assert_eq!(*holder, format!("{name}[0]"), "{create}");
        } else {
            assert_eq!(*holder, name, "{create}");
        }
    }
}

// ---------------------------------------------------------------------------
// File connectors end to end: a pure-SQL CSV -> filter -> CSV pipeline.
// ---------------------------------------------------------------------------

#[test]
fn file_to_file_pipeline_from_sql_only() {
    let dir = std::env::temp_dir().join("onesql_sql_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join(format!("in-{}.csv", std::process::id()));
    let output = dir.join(format!("out-{}.csv", std::process::id()));
    std::fs::write(&input, "8:01,5\n8:02,1\n8:03,9\n").unwrap();

    let mut session = session();
    let script = format!(
        "CREATE SOURCE Bid (bidtime TIMESTAMP, price INT, WATERMARK FOR bidtime)
           WITH (connector = 'file', path = '{}', format = 'csv');
         CREATE SINK filtered
           WITH (connector = 'file', path = '{}', mode = 'appends', header = FALSE);
         INSERT INTO filtered SELECT price FROM Bid WHERE price > 2 EMIT AFTER WATERMARK;",
        input.display(),
        output.display()
    );
    let mut pipeline = assemble(&mut session, &script);
    pipeline.run().unwrap();
    let written = std::fs::read_to_string(&output).unwrap();
    assert_eq!(written, "5\n9\n");
}
