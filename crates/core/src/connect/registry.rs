//! The connector-factory registry: how `CREATE SOURCE ... WITH (...)`
//! option bags become running [`PartitionedSource`]s / [`Sink`]s.
//!
//! The registry is deliberately dumb: it maps a `connector='...'` name to
//! a factory and owns nothing else. Each factory interprets a validated
//! [`OptionBag`] — typed getters that record which keys were consumed, so
//! an unknown or misspelled key produces an error naming the offending
//! option (and suggesting the nearest known one) instead of being
//! silently ignored. Factories are registered by the `onesql-connect`
//! crate (`default_registry()`); the [`crate::session::Session`] consults
//! the registry when it executes connector DDL.
//!
//! Factories expose two operations because DDL and pipeline assembly
//! happen at different times:
//!
//! - [`SourceConnector::declare`] runs at `CREATE SOURCE` time: validate
//!   the options and report the `(stream, schema)` pairs the connector
//!   feeds, so the session can register them in the catalog before any
//!   query binds against them.
//! - [`SourceConnector::build`] runs per `INSERT INTO ... SELECT`:
//!   instantiate a fresh connector. Side handles a caller needs to drive
//!   the connector (channel publishers, in-memory changelog buffers) are
//!   surfaced through [`Exports`].

use std::any::Any;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use onesql_plan::{Catalog, ConnectorOptions};
use onesql_sql::ast::OptionValue;
use onesql_types::{Error, Result, SchemaRef};

use crate::connect::{PartitionedSource, Sink};

/// Levenshtein distance, for "did you mean" suggestions on misspelled
/// option keys and connector names.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// `, did you mean '<best>'?` when a close-enough candidate exists.
fn suggest<'a>(unknown: &str, known: impl Iterator<Item = &'a str>) -> String {
    known
        .map(|k| (edit_distance(unknown, k), k))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, k)| format!(" (did you mean '{k}'?)"))
        .unwrap_or_default()
}

/// A `WITH` option bag under validation: typed getters that record every
/// key they touch, so [`OptionBag::finish`] can reject keys the connector
/// never asked about — typos surface as errors naming the offending
/// option, not as silently-ignored settings.
pub struct OptionBag {
    /// Error-message prefix, e.g. `source 'bids' (connector 'file')`.
    context: String,
    pairs: Vec<(String, OptionValue)>,
    /// Keys a getter consumed.
    taken: BTreeSet<String>,
    /// Keys a getter ever asked for — the connector's vocabulary, used
    /// for suggestions.
    known: BTreeSet<String>,
}

impl OptionBag {
    /// Wrap normalized options under an error-message context.
    pub fn new(context: impl Into<String>, options: &ConnectorOptions) -> OptionBag {
        OptionBag {
            context: context.into(),
            pairs: options.pairs().to_vec(),
            taken: BTreeSet::new(),
            known: BTreeSet::new(),
        }
    }

    fn lookup(&mut self, key: &str) -> Option<OptionValue> {
        self.known.insert(key.to_string());
        let value = self
            .pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone());
        if value.is_some() {
            self.taken.insert(key.to_string());
        }
        value
    }

    /// A string option, if present.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<String>> {
        match self.lookup(key) {
            None => Ok(None),
            Some(OptionValue::String(s)) => Ok(Some(s)),
            Some(other) => Err(Error::plan(format!(
                "{}: option '{key}' expects a string, got {other}",
                self.context
            ))),
        }
    }

    /// A required string option.
    pub fn require_str(&mut self, key: &str) -> Result<String> {
        self.opt_str(key)?.ok_or_else(|| {
            Error::plan(format!("{}: missing required option '{key}'", self.context))
        })
    }

    /// A non-negative integer option, if present. Accepts bare numbers
    /// and numeric strings.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>> {
        let text = match self.lookup(key) {
            None => return Ok(None),
            Some(OptionValue::Number(n)) => n,
            Some(OptionValue::String(s)) => s,
            Some(other) => {
                return Err(Error::plan(format!(
                    "{}: option '{key}' expects a number, got {other}",
                    self.context
                )))
            }
        };
        text.parse::<u64>().map(Some).map_err(|_| {
            Error::plan(format!(
                "{}: option '{key}' expects a non-negative integer, got '{text}'",
                self.context
            ))
        })
    }

    /// A required non-negative integer option.
    pub fn require_u64(&mut self, key: &str) -> Result<u64> {
        self.opt_u64(key)?.ok_or_else(|| {
            Error::plan(format!("{}: missing required option '{key}'", self.context))
        })
    }

    /// A boolean option, if present. Accepts `TRUE`/`FALSE` and the
    /// strings `'true'`/`'false'`.
    pub fn opt_bool(&mut self, key: &str) -> Result<Option<bool>> {
        match self.lookup(key) {
            None => Ok(None),
            Some(OptionValue::Bool(b)) => Ok(Some(b)),
            Some(OptionValue::String(s)) if s.eq_ignore_ascii_case("true") => Ok(Some(true)),
            Some(OptionValue::String(s)) if s.eq_ignore_ascii_case("false") => Ok(Some(false)),
            Some(other) => Err(Error::plan(format!(
                "{}: option '{key}' expects TRUE or FALSE, got {other}",
                self.context
            ))),
        }
    }

    /// Reject any option no getter consumed, naming it and suggesting the
    /// nearest key the connector understands. Call after the factory has
    /// read everything it supports.
    pub fn finish(&self) -> Result<()> {
        for (key, _) in &self.pairs {
            if !self.taken.contains(key) {
                return Err(Error::plan(format!(
                    "{}: unknown option '{key}'{}; supported options: [{}]",
                    self.context,
                    suggest(key, self.known.iter().map(String::as_str)),
                    self.known
                        .iter()
                        .map(String::as_str)
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The error-message context (for factories composing their own
    /// messages).
    pub fn context(&self) -> &str {
        &self.context
    }
}

/// What a source factory sees: the DDL shape around the option bag.
pub struct SourceSpec<'a> {
    /// Source name from the DDL.
    pub name: &'a str,
    /// `CREATE PARTITIONED SOURCE`?
    pub partitioned: bool,
    /// The inline schema, if one was declared (it names the stream
    /// `name` feeds).
    pub schema: Option<SchemaRef>,
    /// The relation catalog, for connectors whose `streams=...` option
    /// references pre-declared streams.
    pub catalog: &'a dyn Catalog,
}

/// What a sink factory sees.
pub struct SinkSpec<'a> {
    /// Sink name from the DDL.
    pub name: &'a str,
}

/// Side handles a factory surfaces alongside the connector it builds:
/// channel publishers, in-memory output buffers — anything the caller
/// needs to drive or observe the pipeline from Rust.
#[derive(Default)]
pub struct Exports {
    items: Vec<Box<dyn Any + Send>>,
}

impl Exports {
    /// Surface a handle. Retrieve it with
    /// [`crate::session::Session::take_handle`].
    pub fn put<T: Any + Send>(&mut self, handle: T) {
        self.items.push(Box::new(handle));
    }

    /// Drain the handles.
    pub fn into_items(self) -> Vec<Box<dyn Any + Send>> {
        self.items
    }
}

/// Factory for one `connector='...'` source family.
pub trait SourceConnector: Send + Sync {
    /// Validate `options` and report the `(stream, schema)` pairs this
    /// source will feed, in the order the connector declares them. Runs
    /// once at `CREATE SOURCE` time; must consume every supported option
    /// (the caller rejects leftovers via [`OptionBag::finish`]).
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>>;

    /// Instantiate a fresh connector. Runs per `INSERT INTO ... SELECT`
    /// so every pipeline gets its own connector instance. A connector
    /// with one plain [`Source`](crate::connect::Source) wraps it with
    /// [`PartitionedVec::single`](crate::connect::PartitionedVec::single).
    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>>;

    /// Whether a source built from `spec` can replay its events into a
    /// restored pipeline — the static twin of
    /// [`Source::replayable`](crate::connect::Source::replayable), which
    /// the linter reads (OSQL004) without building anything. Default:
    /// yes.
    fn replayable(&self, _spec: &SourceSpec) -> bool {
        true
    }

    /// Whether a source built from `spec` can emit a retraction (a
    /// negative diff). A stream whose every source answers no is
    /// insert-only to the plan, and a `MIN`/`MAX` over it keeps one value
    /// instead of a multiset; a retraction from such a source then fails
    /// the pipeline with a typed error. Default: yes.
    fn retracts(&self, _spec: &SourceSpec) -> bool {
        true
    }
}

/// Factory for one `connector='...'` sink family.
pub trait SinkConnector: Send + Sync {
    /// Validate `options`. Runs once at `CREATE SINK` time; must consume
    /// every supported option.
    fn declare(&self, spec: &SinkSpec, options: &mut OptionBag) -> Result<()>;

    /// Instantiate a fresh sink. Runs per `INSERT INTO ... SELECT`.
    fn build(
        &self,
        spec: &SinkSpec,
        options: &mut OptionBag,
        exports: &mut Exports,
    ) -> Result<Box<dyn Sink>>;
}

/// Maps `connector='...'` names to factories.
#[derive(Default, Clone)]
pub struct ConnectorRegistry {
    sources: BTreeMap<String, Arc<dyn SourceConnector>>,
    sinks: BTreeMap<String, Arc<dyn SinkConnector>>,
}

impl ConnectorRegistry {
    /// An empty registry. `onesql-connect`'s `default_registry()` returns
    /// one populated with the built-in connector families.
    pub fn new() -> ConnectorRegistry {
        ConnectorRegistry::default()
    }

    /// Register (or replace) a source connector family.
    pub fn register_source(
        &mut self,
        connector: impl Into<String>,
        factory: impl SourceConnector + 'static,
    ) {
        self.sources
            .insert(connector.into().to_ascii_lowercase(), Arc::new(factory));
    }

    /// Register (or replace) a sink connector family.
    pub fn register_sink(
        &mut self,
        connector: impl Into<String>,
        factory: impl SinkConnector + 'static,
    ) {
        self.sinks
            .insert(connector.into().to_ascii_lowercase(), Arc::new(factory));
    }

    /// Look up a source factory; unknown names list (and suggest from)
    /// the registered families.
    pub fn source(&self, connector: &str) -> Result<Arc<dyn SourceConnector>> {
        let key = connector.to_ascii_lowercase();
        self.sources.get(&key).cloned().ok_or_else(|| {
            Error::plan(format!(
                "unknown source connector '{connector}'{}; registered source \
                 connectors: [{}]",
                suggest(&key, self.sources.keys().map(String::as_str)),
                self.source_names().join(", ")
            ))
        })
    }

    /// Look up a sink factory; unknown names list (and suggest from) the
    /// registered families.
    pub fn sink(&self, connector: &str) -> Result<Arc<dyn SinkConnector>> {
        let key = connector.to_ascii_lowercase();
        self.sinks.get(&key).cloned().ok_or_else(|| {
            Error::plan(format!(
                "unknown sink connector '{connector}'{}; registered sink \
                 connectors: [{}]",
                suggest(&key, self.sinks.keys().map(String::as_str)),
                self.sink_names().join(", ")
            ))
        })
    }

    /// Registered source connector names.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }

    /// Registered sink connector names.
    pub fn sink_names(&self) -> Vec<&str> {
        self.sinks.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_sql::ast::WithOption;

    fn bag(pairs: &[(&str, OptionValue)]) -> OptionBag {
        let options: Vec<WithOption> = pairs
            .iter()
            .map(|(k, v)| WithOption {
                key: k.to_string(),
                value: v.clone(),
            })
            .collect();
        OptionBag::new(
            "source 's' (connector 'test')",
            &ConnectorOptions::new(&options).unwrap(),
        )
    }

    #[test]
    fn typed_getters() {
        let mut b = bag(&[
            ("path", OptionValue::String("/tmp/x".into())),
            ("partitions", OptionValue::Number("4".into())),
            ("header", OptionValue::Bool(true)),
            ("seed", OptionValue::String("9".into())),
        ]);
        assert_eq!(b.require_str("path").unwrap(), "/tmp/x");
        assert_eq!(b.opt_u64("partitions").unwrap(), Some(4));
        assert_eq!(b.opt_bool("header").unwrap(), Some(true));
        assert_eq!(b.opt_u64("seed").unwrap(), Some(9), "numeric strings ok");
        assert_eq!(b.opt_u64("absent").unwrap(), None);
        b.finish().unwrap();
    }

    #[test]
    fn type_errors_name_the_option() {
        let mut b = bag(&[("partitions", OptionValue::String("abc".into()))]);
        let err = b.opt_u64("partitions").unwrap_err().to_string();
        assert!(err.contains("option 'partitions'"), "{err}");
        assert!(err.contains("'abc'"), "{err}");

        let mut b = bag(&[("path", OptionValue::Number("3".into()))]);
        let err = b.opt_str("path").unwrap_err().to_string();
        assert!(err.contains("expects a string"), "{err}");
    }

    #[test]
    fn missing_required_key_named() {
        let mut b = bag(&[]);
        let err = b.require_str("path").unwrap_err().to_string();
        assert!(err.contains("missing required option 'path'"), "{err}");
    }

    #[test]
    fn unknown_key_suggests_nearest() {
        let mut b = bag(&[("pth", OptionValue::String("/x".into()))]);
        let _ = b.opt_str("path").unwrap();
        let _ = b.opt_u64("partitions").unwrap();
        let err = b.finish().unwrap_err().to_string();
        assert!(err.contains("unknown option 'pth'"), "{err}");
        assert!(err.contains("did you mean 'path'"), "{err}");
        assert!(err.contains("partitions"), "lists the vocabulary: {err}");
    }

    #[test]
    fn unknown_connector_suggests_nearest() {
        struct Nope;
        impl SourceConnector for Nope {
            fn declare(
                &self,
                _: &SourceSpec,
                _: &mut OptionBag,
            ) -> Result<Vec<(String, SchemaRef)>> {
                Ok(Vec::new())
            }
            fn build(
                &self,
                _: &SourceSpec,
                _: &mut OptionBag,
                _: &mut Exports,
            ) -> Result<Box<dyn PartitionedSource>> {
                Err(Error::plan("nope"))
            }
        }
        let mut reg = ConnectorRegistry::new();
        reg.register_source("file", Nope);
        let err = reg.source("fil").err().unwrap().to_string();
        assert!(err.contains("unknown source connector 'fil'"), "{err}");
        assert!(err.contains("did you mean 'file'"), "{err}");
        assert!(reg.source("FILE").is_ok(), "case-insensitive lookup");
        let err = reg.sink("anything").err().unwrap().to_string();
        assert!(err.contains("registered sink connectors: []"), "{err}");
    }

    #[test]
    fn edit_distance_sanity() {
        assert_eq!(edit_distance("file", "file"), 0);
        assert_eq!(edit_distance("fil", "file"), 1);
        assert_eq!(edit_distance("channel", "nexmark"), 7);
    }
}
