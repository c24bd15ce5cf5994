//! The engine's own telemetry as a stream: a source that turns
//! [`MetricsHub`](onesql_core::MetricsHub) snapshots into rows, so a
//! pipeline can be observed — windowed, joined, alerted on — with the
//! same SQL dialect that defined it. This is the paper's "one SQL"
//! thesis applied to operations: the monitoring query is just another
//! query.
//!
//! ```sql
//! CREATE SOURCE sys_metrics WITH (connector = 'metrics', pipelines = 'q7_out');
//! ```
//!
//! declares the stream `sys_metrics (mtime TIMESTAMP, pipeline STRING,
//! metric STRING, kind STRING, value INT, WATERMARK FOR mtime)`. Every
//! time a watched pipeline publishes a fresh snapshot (each scheduling
//! round of a labelled driver), the source emits one row per metric from
//! [`PipelineMetrics::render_rows`](onesql_core::connect::PipelineMetrics::render_rows),
//! event-timed at the snapshot's driver clock. The watermark follows the
//! *slowest* watched pipeline, so windows over the metric stream close
//! only when every watched pipeline has progressed past them.

use std::collections::BTreeMap;
use std::sync::Arc;

use onesql_core::connect::{
    Exports, OptionBag, PartitionedSource, PartitionedVec, Source, SourceBatch, SourceConnector,
    SourceEvent, SourceSpec, SourceStatus,
};
use onesql_core::observe::{hub, PipelineSnapshot};
use onesql_tvr::Change;
use onesql_types::{DataType, Error, Field, Result, Row, Schema, SchemaRef, Ts, Value};

/// The fixed schema of the metric stream (the connector rejects an
/// inline column list): `mtime` is the event-time column, watermarked.
pub fn metrics_schema() -> Schema {
    Schema::new(vec![
        Field::event_time("mtime"),
        Field::new("pipeline", DataType::String),
        Field::new("metric", DataType::String),
        Field::new("kind", DataType::String),
        Field::new("value", DataType::Int),
    ])
}

/// Per-watched-pipeline cursor: the hub sequence number of the last
/// snapshot already rendered, and whether that snapshot was final.
#[derive(Default)]
struct Cursor {
    last_seq: u64,
    finished: bool,
    /// Driver clock of the last rendered snapshot (watermark input).
    at: Option<Ts>,
}

/// A [`Source`] streaming the metrics hub; see the [module docs](self).
pub struct MetricsSource {
    name: String,
    streams: Vec<String>,
    cursors: BTreeMap<String, Cursor>,
    /// Rows rendered but not yet handed to the driver (`poll_batch`
    /// respects `max_events`).
    pending: std::collections::VecDeque<SourceEvent>,
    /// Last watermark asserted (assertions must only advance).
    watermark: Option<Ts>,
}

impl MetricsSource {
    /// A source feeding stream `stream`, watching `pipelines` (labels
    /// under which drivers publish to the global hub).
    pub fn new(stream: impl Into<String>, pipelines: Vec<String>) -> MetricsSource {
        MetricsSource {
            name: "metrics".to_string(),
            streams: vec![stream.into()],
            cursors: pipelines
                .into_iter()
                .map(|p| (p.to_ascii_lowercase(), Cursor::default()))
                .collect(),
            pending: std::collections::VecDeque::new(),
            watermark: None,
        }
    }

    /// Render one snapshot into pending rows.
    fn render(&mut self, snapshot: &PipelineSnapshot) {
        for metric in snapshot.metrics.render_rows() {
            let row = Row::new(vec![
                Value::Ts(snapshot.at),
                Value::from(snapshot.pipeline.as_str()),
                Value::from(metric.name),
                Value::from(metric.kind.as_str()),
                Value::Int(metric.value),
            ]);
            self.pending.push_back(SourceEvent {
                stream: 0,
                ptime: snapshot.at,
                change: Change::insert(row),
            });
        }
    }
}

impl Source for MetricsSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        // Pull anything new out of the hub first.
        let fresh: Vec<PipelineSnapshot> = self
            .cursors
            .iter()
            .filter_map(|(pipeline, cursor)| {
                hub().latest(pipeline).filter(|s| s.seq > cursor.last_seq)
            })
            .collect();
        for snapshot in &fresh {
            self.render(snapshot);
            // The snapshot came from iterating `cursors`, so the entry
            // exists; skipping a vanished one only delays its metrics.
            if let Some(cursor) = self.cursors.get_mut(&snapshot.pipeline) {
                cursor.last_seq = snapshot.seq;
                cursor.finished = snapshot.finished;
                cursor.at = Some(snapshot.at);
            }
        }

        let mut batch = SourceBatch::empty(SourceStatus::Idle);
        while batch.events.len() < max_events {
            match self.pending.pop_front() {
                Some(event) => batch.events.push(event),
                None => break,
            }
        }

        // The metric stream's watermark trails the slowest watched
        // pipeline's driver clock by 1ms (future snapshots of that
        // pipeline may carry the same clock, and assertions are strict).
        if let Some(min_at) = self
            .cursors
            .values()
            .map(|c| c.at)
            .collect::<Option<Vec<_>>>()
            .and_then(|ats| ats.into_iter().min())
        {
            let candidate = Ts(min_at.0.saturating_sub(1));
            if self.watermark.is_none_or(|w| candidate > w) {
                self.watermark = Some(candidate);
                batch.watermark = Some(candidate);
            }
        }

        // `Ready` only while rows `max_events` cut off are still buffered:
        // the next poll returns those whatever the watched pipelines do.
        batch.status = if !self.pending.is_empty() {
            SourceStatus::Ready
        } else if batch.events.is_empty() && self.cursors.values().all(|c| c.finished) {
            SourceStatus::Finished
        } else {
            SourceStatus::Idle
        };
        Ok(batch)
    }

    /// The hub keeps only each pipeline's latest snapshot.
    fn replayable(&self) -> bool {
        false
    }
}

/// Factory for `connector = 'metrics'`: requires `pipelines = 'a,b'`
/// (the labels to watch), defines its own schema, and is deliberately
/// unpartitionable — telemetry is a single low-volume stream.
pub struct MetricsConnector;

impl MetricsConnector {
    fn validate(spec: &SourceSpec, options: &mut OptionBag) -> Result<Vec<String>> {
        if spec.schema.is_some() {
            return Err(Error::plan(format!(
                "source '{}': connector 'metrics' defines its own schema \
                 (mtime TIMESTAMP, pipeline STRING, metric STRING, kind \
                 STRING, value INT); drop the column list",
                spec.name
            )));
        }
        if spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': connector 'metrics' is not partitionable",
                spec.name
            )));
        }
        let raw = options.require_str("pipelines")?;
        let pipelines: Vec<String> = raw
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect();
        if pipelines.is_empty() {
            return Err(Error::plan(format!(
                "source '{}': option 'pipelines' names no pipeline; give \
                 the label(s) the watched pipelines publish under (their \
                 INSERT INTO targets)",
                spec.name
            )));
        }
        Ok(pipelines)
    }
}

impl SourceConnector for MetricsConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        Self::validate(spec, options)?;
        Ok(vec![(spec.name.to_string(), Arc::new(metrics_schema()))])
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let pipelines = Self::validate(spec, options)?;
        Ok(Box::new(PartitionedVec::single(MetricsSource::new(
            spec.name, pipelines,
        ))))
    }

    fn replayable(&self, _spec: &SourceSpec) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_core::connect::PipelineMetrics;
    use onesql_core::observe;

    fn publish(pipeline: &str, at: Ts, finished: bool, events_in: u64) {
        let metrics = PipelineMetrics {
            events_in,
            ..PipelineMetrics::default()
        };
        observe::hub().publish(pipeline, at, finished, metrics);
    }

    #[test]
    fn streams_snapshots_as_rows_with_trailing_watermark() {
        let label = "metrics_rs_unit_a";
        observe::hub().clear(label);
        let mut source = MetricsSource::new("sys_metrics", vec![label.to_string()]);

        // Nothing published yet: idle, no watermark.
        let batch = source.poll_batch(1024).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.watermark, None);
        assert_eq!(batch.status, SourceStatus::Idle);

        publish(label, Ts(100), false, 7);
        let batch = source.poll_batch(1024).unwrap();
        assert!(!batch.events.is_empty());
        assert_eq!(batch.watermark, Some(Ts(99)));
        // The whole snapshot fitted: nothing is left buffered.
        assert_eq!(batch.status, SourceStatus::Idle);
        let row = &batch.events[0].change.row;
        assert_eq!(row.values()[0], Value::Ts(Ts(100)));
        assert_eq!(row.values()[1], Value::from(label));
        let events_in = batch
            .events
            .iter()
            .map(|e| e.change.row.values())
            .find(|v| v[2] == Value::from("events_in"))
            .expect("events_in row present");
        assert_eq!(events_in[3], Value::from("counter"));
        assert_eq!(events_in[4], Value::Int(7));

        // Same snapshot again: nothing new, but not finished either.
        let batch = source.poll_batch(1024).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.status, SourceStatus::Idle);

        publish(label, Ts(200), true, 9);
        // max_events is respected; leftovers arrive on the next poll.
        let batch = source.poll_batch(3).unwrap();
        assert_eq!(batch.events.len(), 3);
        assert_eq!(batch.status, SourceStatus::Ready);
        let batch = source.poll_batch(usize::MAX).unwrap();
        assert!(!batch.events.is_empty());
        let batch = source.poll_batch(usize::MAX).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.status, SourceStatus::Finished);
        observe::hub().clear(label);
    }

    #[test]
    fn watermark_follows_the_slowest_watched_pipeline() {
        let (a, b) = ("metrics_rs_unit_b1", "metrics_rs_unit_b2");
        observe::hub().clear(a);
        observe::hub().clear(b);
        let mut source = MetricsSource::new("m", vec![a.to_string(), b.to_string()]);

        publish(a, Ts(500), false, 1);
        // Only one of two watched pipelines has published: no watermark.
        let batch = source.poll_batch(usize::MAX).unwrap();
        assert_eq!(batch.watermark, None);

        publish(b, Ts(50), false, 1);
        let batch = source.poll_batch(usize::MAX).unwrap();
        assert_eq!(batch.watermark, Some(Ts(49)));

        // The slow pipeline catching up advances the watermark.
        publish(b, Ts(600), true, 2);
        let batch = source.poll_batch(usize::MAX).unwrap();
        assert_eq!(batch.watermark, Some(Ts(499)));
        observe::hub().clear(a);
        observe::hub().clear(b);
    }

    #[test]
    fn connector_validates_its_options() {
        let registry = crate::default_registry();
        let mut session = onesql_core::Session::new(registry);
        let err = session
            .execute("CREATE SOURCE m (x INT) WITH (connector = 'metrics', pipelines = 'p')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("defines its own schema"), "{err}");
        let err = session
            .execute("CREATE SOURCE m WITH (connector = 'metrics', pipelines = ' ')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("names no pipeline"), "{err}");
        let err = session
            .execute("CREATE SOURCE m WITH (connector = 'metrics')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("pipelines"), "{err}");
        session
            .execute("CREATE SOURCE m WITH (connector = 'metrics', pipelines = 'q7_out')")
            .unwrap();
    }
}
