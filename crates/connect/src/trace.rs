//! The flight recorder's spans as a stream: a source that turns
//! [`FlightRecorder`](onesql_core::FlightRecorder) records into rows, so
//! a trace can be queried — filtered, windowed, joined against metrics —
//! with the same SQL dialect that defined the traced pipelines. This is
//! the `metrics` connector's sibling: where that one streams aggregate
//! counters, this one streams causal spans.
//!
//! ```sql
//! SET trace = 'on';
//! CREATE SOURCE sys_trace WITH (connector = 'trace', pipelines = 'q7_out');
//! ```
//!
//! declares the stream `sys_trace (ttime TIMESTAMP, pipeline STRING,
//! name STRING, span STRING, parent STRING, worker INT, partition INT,
//! start_us INT, dur_us INT, WATERMARK FOR ttime)`. Every span the
//! global recorder captures becomes one row, event-timed at the span's
//! close (milliseconds since the UNIX epoch). Span and parent IDs are
//! hex strings (`0x...`), exactly as the Chrome export renders them, so
//! rows join against an exported trace byte-for-byte.
//!
//! The optional `pipelines = 'a,b'` option filters rows to those
//! pipeline labels (case-insensitive) and lets the stream *finish*: once
//! every watched pipeline has published a final metrics snapshot, no
//! more spans are coming and the source reports end-of-stream. Without
//! the option the stream is unbounded and simply idles between spans.

use std::collections::VecDeque;

use onesql_core::connect::{
    Exports, OptionBag, PartitionedSource, PartitionedVec, Source, SourceBatch, SourceConnector,
    SourceEvent, SourceSpec, SourceStatus,
};
use onesql_core::observe::{hub, recorder, TraceRecord};
use onesql_tvr::Change;
use onesql_types::{DataType, Error, Field, Result, Row, Schema, SchemaRef, Ts, Value};

/// The fixed schema of the trace stream (the connector rejects an inline
/// column list): `ttime` is the event-time column, watermarked.
pub fn trace_schema() -> Schema {
    Schema::new(vec![
        Field::event_time("ttime"),
        Field::new("pipeline", DataType::String),
        Field::new("name", DataType::String),
        Field::new("span", DataType::String),
        Field::new("parent", DataType::String),
        Field::new("worker", DataType::Int),
        Field::new("partition", DataType::Int),
        Field::new("start_us", DataType::Int),
        Field::new("dur_us", DataType::Int),
    ])
}

/// A [`Source`] streaming the global flight recorder; see the
/// [module docs](self).
pub struct TraceSource {
    name: String,
    streams: Vec<String>,
    /// Lowercased pipeline labels to keep (empty = keep everything).
    pipelines: Vec<String>,
    /// Recorder sequence already consumed (`since` cursor).
    last_seq: u64,
    /// Rows rendered but not yet handed to the driver.
    pending: VecDeque<SourceEvent>,
    /// Last watermark asserted (assertions must only advance).
    watermark: Option<Ts>,
}

impl TraceSource {
    /// A source feeding stream `stream`, optionally filtered to
    /// `pipelines` (labels; empty watches every span).
    pub fn new(stream: impl Into<String>, pipelines: Vec<String>) -> TraceSource {
        TraceSource {
            name: "trace".to_string(),
            streams: vec![stream.into()],
            pipelines: pipelines
                .into_iter()
                .map(|p| p.to_ascii_lowercase())
                .collect(),
            last_seq: 0,
            pending: VecDeque::new(),
            watermark: None,
        }
    }

    fn keeps(&self, record: &TraceRecord) -> bool {
        self.pipelines.is_empty()
            || self
                .pipelines
                .iter()
                .any(|p| record.pipeline.eq_ignore_ascii_case(p))
    }

    /// Render one recorder entry into a pending row.
    fn render(&mut self, record: &TraceRecord) {
        let end_ms = Ts((record.end_micros / 1000).min(i64::MAX as u64) as i64);
        let row = Row::new(vec![
            Value::Ts(end_ms),
            Value::from(record.pipeline.as_str()),
            Value::from(record.name),
            Value::from(format!("{:#x}", record.span)),
            Value::from(format!("{:#x}", record.parent)),
            Value::Int(i64::from(record.worker)),
            Value::Int(i64::from(record.partition)),
            Value::Int(record.start_micros.min(i64::MAX as u64) as i64),
            Value::Int(record.end_micros.saturating_sub(record.start_micros) as i64),
        ]);
        self.pending.push_back(SourceEvent {
            stream: 0,
            ptime: end_ms,
            change: Change::insert(row),
        });
    }
}

impl Source for TraceSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn streams(&self) -> &[String] {
        &self.streams
    }

    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        // Pull anything the recorder captured since the last poll. The
        // ring may have evicted past our cursor under sustained load;
        // `since` then simply returns what survived — a bounded recorder
        // is a deliberately lossy window, not a durable log.
        let fresh = recorder().since(self.last_seq);
        let mut latest_end: Option<u64> = None;
        for record in &fresh {
            self.last_seq = self.last_seq.max(record.seq);
            if self.keeps(record) {
                self.render(record);
                latest_end =
                    Some(latest_end.map_or(record.end_micros, |l| l.max(record.end_micros)));
            }
        }

        let mut batch = SourceBatch::empty(SourceStatus::Idle);
        while batch.events.len() < max_events {
            match self.pending.pop_front() {
                Some(event) => batch.events.push(event),
                None => break,
            }
        }

        // The trace stream's watermark trails the newest rendered span's
        // close by 1ms: spans closing later in the same millisecond may
        // still arrive, and assertions are strict.
        if let Some(end) = latest_end {
            let candidate = Ts(((end / 1000).min(i64::MAX as u64) as i64).saturating_sub(1));
            if self.watermark.is_none_or(|w| candidate > w) {
                self.watermark = Some(candidate);
                batch.watermark = Some(candidate);
            }
        }

        let finished = !self.pipelines.is_empty()
            && self
                .pipelines
                .iter()
                .all(|p| hub().latest(p).is_some_and(|s| s.finished));
        // `Ready` only while rows `max_events` cut off are still buffered:
        // the next poll returns those whatever the watched pipelines do.
        batch.status = if !self.pending.is_empty() {
            SourceStatus::Ready
        } else if batch.events.is_empty() && finished {
            SourceStatus::Finished
        } else {
            SourceStatus::Idle
        };
        Ok(batch)
    }

    /// The flight recorder is a lossy ring, not a durable log.
    fn replayable(&self) -> bool {
        false
    }
}

/// Factory for `connector = 'trace'`: defines its own schema, optional
/// `pipelines = 'a,b'` filter, and is deliberately unpartitionable —
/// a trace is a single low-volume stream.
pub struct TraceConnector;

impl TraceConnector {
    fn validate(spec: &SourceSpec, options: &mut OptionBag) -> Result<Vec<String>> {
        if spec.schema.is_some() {
            return Err(Error::plan(format!(
                "source '{}': connector 'trace' defines its own schema \
                 (ttime TIMESTAMP, pipeline STRING, name STRING, span \
                 STRING, parent STRING, worker INT, partition INT, \
                 start_us INT, dur_us INT); drop the column list",
                spec.name
            )));
        }
        if spec.partitioned {
            return Err(Error::plan(format!(
                "source '{}': connector 'trace' is not partitionable",
                spec.name
            )));
        }
        let pipelines: Vec<String> = match options.opt_str("pipelines")? {
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
            None => Vec::new(),
        };
        Ok(pipelines)
    }
}

impl SourceConnector for TraceConnector {
    fn declare(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
    ) -> Result<Vec<(String, SchemaRef)>> {
        Self::validate(spec, options)?;
        Ok(vec![(
            spec.name.to_string(),
            std::sync::Arc::new(trace_schema()),
        )])
    }

    fn build(
        &self,
        spec: &SourceSpec,
        options: &mut OptionBag,
        _exports: &mut Exports,
    ) -> Result<Box<dyn PartitionedSource>> {
        let pipelines = Self::validate(spec, options)?;
        Ok(Box::new(PartitionedVec::single(TraceSource::new(
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
    use onesql_core::observe;

    fn push_record(pipeline: &str, span: u64, parent: u64, start: u64, end: u64) -> u64 {
        observe::recorder().push(observe::TraceRecord {
            seq: 0,
            span,
            parent,
            name: "driver.round",
            pipeline: pipeline.to_string(),
            worker: -1,
            partition: -1,
            start_micros: start,
            end_micros: end,
        })
    }

    #[test]
    fn streams_recorder_spans_as_rows() {
        let label = "trace_rs_unit_a";
        let mut source = TraceSource::new("sys_trace", vec![label.to_string()]);
        // Skip whatever other tests already recorded.
        source.last_seq = u64::MAX / 2;
        let batch = source.poll_batch(1024).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.status, SourceStatus::Idle);

        // The cursor only ever advances via the recorder's own seqs;
        // rewind to just before our pushes.
        let first = push_record(label, 0x10, 0, 2_000_000, 2_500_000);
        source.last_seq = first - 1;
        push_record("someone_else", 0x11, 0, 2_000_000, 2_600_000);
        push_record(label, 0x12, 0x10, 3_000_000, 3_250_000);

        let batch = source.poll_batch(1024).unwrap();
        assert_eq!(batch.events.len(), 2, "filtered to the watched label");
        let row = &batch.events[0].change.row;
        assert_eq!(row.values()[0], Value::Ts(Ts(2500)));
        assert_eq!(row.values()[1], Value::from(label));
        assert_eq!(row.values()[2], Value::from("driver.round"));
        assert_eq!(row.values()[3], Value::from("0x10"));
        assert_eq!(row.values()[4], Value::from("0x0"));
        assert_eq!(row.values()[7], Value::Int(2_000_000));
        assert_eq!(row.values()[8], Value::Int(500_000));
        let row = &batch.events[1].change.row;
        assert_eq!(row.values()[3], Value::from("0x12"));
        assert_eq!(row.values()[4], Value::from("0x10"));
        // Watermark trails the newest rendered close (3250ms) by 1.
        assert_eq!(batch.watermark, Some(Ts(3249)));
        // Every span fitted: nothing is left buffered.
        assert_eq!(batch.status, SourceStatus::Idle);

        // Nothing new: idle, watermark already asserted.
        let batch = source.poll_batch(1024).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.watermark, None);
        assert_eq!(batch.status, SourceStatus::Idle);
    }

    #[test]
    fn finishes_when_watched_pipelines_finish() {
        let label = "trace_rs_unit_b";
        observe::hub().clear(label);
        let mut source = TraceSource::new("t", vec![label.to_string()]);
        source.last_seq = u64::MAX / 2;
        assert_eq!(
            source.poll_batch(16).unwrap().status,
            SourceStatus::Idle,
            "unfinished pipeline keeps the stream open"
        );
        observe::hub().publish(
            label,
            Ts(10),
            true,
            onesql_core::connect::PipelineMetrics::default(),
        );
        assert_eq!(
            source.poll_batch(16).unwrap().status,
            SourceStatus::Finished
        );
        observe::hub().clear(label);
    }

    #[test]
    fn connector_validates_its_options() {
        let registry = crate::default_registry();
        let mut session = onesql_core::Session::new(registry);
        let err = session
            .execute("CREATE SOURCE t (x INT) WITH (connector = 'trace')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("defines its own schema"), "{err}");
        session
            .execute("CREATE SOURCE t WITH (connector = 'trace', pipelines = 'q7_out')")
            .unwrap();
    }
}
