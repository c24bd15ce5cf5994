//! What the ingest benches share: each run is a script over a source.
//!
//! A pipeline exists only as an `INSERT INTO <sink> SELECT ...`, and every
//! one is labelled by its sink, so it publishes to the metrics hub each
//! round. `EXPLAIN ANALYZE` runs the same query over fresh connectors with
//! no sink and no label: the bare side of a label A/B.

use std::sync::Arc;

use onesql_connect::{channel, default_registry, PartitionedSource, PartitionedVec};
use onesql_core::connect::{Exports, OptionBag, Sink, SinkConnector, SinkSpec};
use onesql_core::connect::{SourceConnector, SourceSpec};
use onesql_core::{Session, StatementResult, StreamBuilder, StreamRow};
use onesql_types::{Result, Row, SchemaRef, Ts};

/// A sink family that drops every row: a pipeline needs a sink, and the
/// benches measure what comes before it.
pub struct Discard;

impl Sink for Discard {
    fn name(&self) -> &str {
        "discard"
    }

    fn write(&mut self, _: &[StreamRow]) -> Result<()> {
        Ok(())
    }
}

impl SinkConnector for Discard {
    fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> Result<()> {
        Ok(())
    }

    fn build(&self, _: &SinkSpec, _: &mut OptionBag, _: &mut Exports) -> Result<Box<dyn Sink>> {
        Ok(Box::new(Discard))
    }
}

/// A source family feeding `Bid`: every instance is a closed channel
/// already holding `events` rows, row `i` at processing time `i`, so the
/// driver polls it as it would a busy channel. Filling it is part of
/// every timed run. The `channel` connector will not do: `EXPLAIN
/// ANALYZE` drops the publishers it exports, so the bare side could not
/// fill it.
pub struct FilledChannel {
    pub bid: StreamBuilder,
    pub events: usize,
    pub row: fn(usize) -> Row,
}

impl SourceConnector for FilledChannel {
    fn declare(&self, _: &SourceSpec, _: &mut OptionBag) -> Result<Vec<(String, SchemaRef)>> {
        Ok(vec![(
            "Bid".to_string(),
            Arc::new(self.bid.clone().build()),
        )])
    }

    fn build(
        &self,
        _: &SourceSpec,
        _: &mut OptionBag,
        _: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let (publisher, source) = channel("Bid", self.events + 1);
        for i in 0..self.events {
            publisher.insert(Ts(i as i64), (self.row)(i))?;
        }
        Ok(Box::new(PartitionedVec::single(source)))
    }
}

/// A session with the default connectors, a `filled` source family (when
/// given) and a `discard` sink family.
pub fn session(filled: Option<FilledChannel>) -> Session {
    let mut registry = default_registry();
    if let Some(filled) = filled {
        registry.register_source("filled", filled);
    }
    registry.register_sink("discard", Discard);
    Session::new(registry)
}

/// Run `sql` over the sources `ddl` creates in `session`: as a pipeline
/// into a sink named `label` (which labels it), or, without a label,
/// under `EXPLAIN ANALYZE`. Returns the events ingested and the
/// scheduling rounds taken.
pub fn run(session: &mut Session, ddl: &str, sql: &str, label: Option<&str>) -> (u64, u64) {
    session.execute_script(ddl).unwrap();
    let Some(label) = label else {
        let StatementResult::Analyzed { rows, .. } =
            session.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
        else {
            unreachable!("EXPLAIN ANALYZE reports its metrics")
        };
        let counter = |name: &str| {
            let row = rows.iter().find(|row| row.name == name);
            row.map_or(0, |row| row.value as u64)
        };
        return (counter("events_in"), counter("rounds"));
    };
    let script = format!(
        "CREATE SINK {label} WITH (connector = 'discard');
         INSERT INTO {label} {sql};"
    );
    let outcome = session.execute_script(&script).unwrap();
    let metrics = outcome.into_pipeline().unwrap().run().unwrap();
    (metrics.events_in, metrics.rounds)
}
