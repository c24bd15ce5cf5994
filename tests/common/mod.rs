//! Test support shared by the integration tests. Every test binary that
//! declares `mod common;` compiles its own copy and uses part of it.

#![allow(dead_code)]

use std::sync::Arc;

use onesql::connect::{AdaptiveBatch, Exports, OptionBag, SourceConnector, SourceSpec};
use onesql::{DriverConfig, PartitionedSource, Session, SqlPipeline};
use onesql_types::{Result, Schema, SchemaRef};

/// `script`'s one pipeline, assembled in `session`.
pub fn assemble(session: &mut Session, script: &str) -> SqlPipeline {
    session
        .execute_script(script)
        .unwrap()
        .into_pipeline()
        .unwrap()
}

/// `workers` workers polling `batch` events every round: equal adaptive
/// bounds pin the size.
pub fn fixed_batch(batch: usize, workers: usize) -> DriverConfig {
    let adaptive = AdaptiveBatch {
        min_batch: batch,
        max_batch: batch,
    };
    DriverConfig {
        workers,
        batch_size: batch,
        adaptive,
        ..DriverConfig::default()
    }
}

/// A source family declaring `streams` whose every `INSERT` gets a fresh
/// `build()`: how a bespoke test source registers in a session.
pub struct Bespoke<F> {
    streams: Vec<(String, SchemaRef)>,
    build: F,
}

impl<F> Bespoke<F>
where
    F: Fn() -> Box<dyn PartitionedSource> + Send + Sync,
{
    /// A family declaring `streams`, each `(name, schema)`.
    pub fn new(streams: Vec<(&str, Schema)>, build: F) -> Bespoke<F> {
        let streams = streams
            .into_iter()
            .map(|(name, schema)| (name.to_string(), Arc::new(schema)))
            .collect();
        Bespoke { streams, build }
    }
}

impl<F> SourceConnector for Bespoke<F>
where
    F: Fn() -> Box<dyn PartitionedSource> + Send + Sync,
{
    fn declare(&self, _: &SourceSpec, _: &mut OptionBag) -> Result<Vec<(String, SchemaRef)>> {
        Ok(self.streams.clone())
    }

    fn build(
        &self,
        _: &SourceSpec,
        _: &mut OptionBag,
        _: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        Ok((self.build)())
    }
}
