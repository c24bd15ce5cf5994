//! File connectors: CSV and JSON-lines sources and sinks.
//!
//! Sources are **schema-driven**: the caller supplies the stream's schema
//! and each line parses into a typed [`Row`] (see [`crate::text`] /
//! [`crate::json`]). Event rows replay with their event-time column as the
//! processing time, and every batch carries a bounded-out-of-orderness
//! watermark (`max event time seen − lateness`), so downstream
//! `EMIT AFTER WATERMARK` queries make progress while the file streams in.
//!
//! Sinks render the query's output either as a faithful changelog (data
//! columns plus `undo` / `ptime` / `ver`) or, for final-only streams, as
//! plain appended records that a source with the same schema reads back.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Lines, Write};
use std::path::Path;

use onesql_core::connect::{
    ColumnarBatch, PartitionedSource, PartitionedVec, Sink, Source, SourceBatch, SourceColumns,
    SourceEvent, SourceStatus, WrapsPartitioned,
};
use onesql_exec::{Cells, StreamBatch, StreamRow};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{
    digits, ColumnBuilder, Duration, Error, Result, Row, Schema, SchemaRef, Ts, Value,
};

use crate::json;
use crate::text;

/// Tuning for file sources.
#[derive(Debug, Clone)]
pub struct FileSourceConfig {
    /// Watermark bound: the per-batch watermark is the max event time seen
    /// minus this. Zero asserts in-order files.
    pub lateness: Duration,
    /// CSV only: skip the first line (a header).
    pub has_header: bool,
}

impl Default for FileSourceConfig {
    fn default() -> FileSourceConfig {
        FileSourceConfig {
            lateness: Duration::ZERO,
            has_header: false,
        }
    }
}

/// Line format of a text file source.
#[derive(Clone, Copy)]
enum LineFormat {
    Csv,
    JsonLines,
}

/// Shared machinery of the two text-file sources.
struct TextFileSource {
    name: String,
    streams: Vec<String>,
    schema: SchemaRef,
    lines: Lines<BufReader<File>>,
    format: LineFormat,
    config: FileSourceConfig,
    /// First event-time column, if the schema has one.
    et_col: Option<usize>,
    /// Synthetic processing-time counter for schemas without event time.
    seq: i64,
    /// Max event time seen (drives the watermark).
    max_ts: Option<Ts>,
    /// Lines consumed so far (for error messages).
    line_no: u64,
    done: bool,
}

impl TextFileSource {
    fn open(
        path: impl AsRef<Path>,
        stream: impl Into<String>,
        schema: SchemaRef,
        format: LineFormat,
        config: FileSourceConfig,
    ) -> Result<TextFileSource> {
        let path = path.as_ref();
        let file = File::open(path)
            .map_err(|e| Error::exec(format!("cannot open '{}': {e}", path.display())))?;
        let et_col = schema.event_time_columns().first().copied();
        let mut source = TextFileSource {
            name: format!("file:{}", path.display()),
            streams: vec![stream.into()],
            schema,
            lines: BufReader::new(file).lines(),
            format,
            config,
            et_col,
            seq: 0,
            max_ts: None,
            line_no: 0,
            done: false,
        };
        // `has_header` is CSV-only (JSON-lines has no header concept; a
        // config struct reused from a CSV source must not eat a record).
        if source.config.has_header && matches!(source.format, LineFormat::Csv) {
            source.line_no += 1;
            let _ = source.lines.next();
        }
        Ok(source)
    }

    fn parse_line(&self, line: &str) -> Result<Row> {
        match self.format {
            LineFormat::Csv => text::parse_record(&text::split_csv_line(line), &self.schema),
            LineFormat::JsonLines => json::json_to_row(line, &self.schema),
        }
        .map_err(|e| Error::exec(format!("{}: line {}: {e}", self.name, self.line_no)))
    }

    /// Read the next complete record line: skips blanks and joins quoted
    /// multi-line CSV records. `None` marks end of file (and sets `done`).
    fn next_record_line(&mut self) -> Result<Option<String>> {
        loop {
            let Some(line) = self.lines.next() else {
                self.done = true;
                return Ok(None);
            };
            let mut line =
                line.map_err(|e| Error::exec(format!("{}: read error: {e}", self.name)))?;
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            // A quoted CSV field may legally contain newlines; keep
            // consuming physical lines until the quotes balance.
            if matches!(self.format, LineFormat::Csv) {
                while !text::csv_quotes_balanced(&line) {
                    let next = self.lines.next().ok_or_else(|| {
                        Error::exec(format!(
                            "{}: line {}: unterminated quoted field at end of file",
                            self.name, self.line_no
                        ))
                    })?;
                    let next =
                        next.map_err(|e| Error::exec(format!("{}: read error: {e}", self.name)))?;
                    self.line_no += 1;
                    line.push('\n');
                    line.push_str(&next);
                }
            }
            return Ok(Some(line));
        }
    }

    fn poll(&mut self, max_events: usize) -> Result<SourceBatch> {
        if self.done {
            return Ok(SourceBatch::empty(SourceStatus::Finished));
        }
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        while batch.events.len() < max_events {
            let Some(line) = self.next_record_line()? else {
                batch.status = SourceStatus::Finished;
                break;
            };
            let row = self.parse_line(&line)?;
            // Replay semantics: event time doubles as arrival time (the
            // driver keeps the global clock monotone for late rows).
            let ptime = match self.et_col {
                Some(col) => match row.value(col)? {
                    Value::Ts(t) => *t,
                    other => {
                        return Err(Error::exec(format!(
                            "{}: line {}: event-time column holds {other:?}",
                            self.name, self.line_no
                        )))
                    }
                },
                None => {
                    self.seq += 1;
                    Ts(self.seq - 1)
                }
            };
            self.max_ts = Some(self.max_ts.map_or(ptime, |m| m.max(ptime)));
            batch.events.push(SourceEvent {
                stream: 0,
                ptime,
                change: Change::insert(row),
            });
        }
        if let Some(max) = self.max_ts {
            // Trail the max by 1ms beyond the lateness bound: a watermark
            // asserts future events are *strictly* later, and files may
            // hold several rows at one timestamp.
            batch.watermark = Some(max - self.config.lateness - Duration(1));
        }
        Ok(batch)
    }

    /// Chunked columnar poll (CSV only): parse up to `max_events` records
    /// field-by-field into per-column [`ColumnBuilder`]s — numeric and
    /// timestamp fields go straight to unboxed storage, and no
    /// intermediate [`Row`] is ever built — then hand the driver a ready
    /// [`ChangeBatch`] of inserts.
    ///
    /// Behavior mirrors [`TextFileSource::poll`] exactly: the same error
    /// messages at the same lines, the same watermark rule, the same
    /// finish condition. The ptime lane is the event times clamped to a
    /// running max (the driver's per-event monotone-clock clamp, applied
    /// while building).
    fn poll_cols(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        if !matches!(self.format, LineFormat::Csv) {
            return Ok(None);
        }
        let arity = self.schema.arity();
        if self.done {
            return Ok(Some(ColumnarBatch {
                status: SourceStatus::Finished,
                ..ColumnarBatch::default()
            }));
        }
        let mut builders: Vec<ColumnBuilder> = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(max_events))
            .collect();
        let mut ptimes: Vec<Ts> = Vec::with_capacity(max_events);
        let mut status = SourceStatus::Ready;
        while ptimes.len() < max_events {
            let Some(line) = self.next_record_line()? else {
                status = SourceStatus::Finished;
                break;
            };
            let fields = text::split_csv_line(&line);
            if fields.len() != arity {
                // parse_record's arity error, with the line context
                // `parse_line` would attach. The Ok branch cannot fire —
                // the arity check above guarantees a mismatch — but a
                // synthesized message beats panicking.
                let err = match text::parse_record(&fields, &self.schema) {
                    Err(e) => e,
                    Ok(_) => Error::exec(format!("expected {arity} fields, got {}", fields.len())),
                };
                return Err(Error::exec(format!(
                    "{}: line {}: {err}",
                    self.name, self.line_no
                )));
            }
            let mut et_ts = None;
            for (col, (field, b)) in self.schema.fields().iter().zip(&mut builders).enumerate() {
                let parsed =
                    text::parse_field_into(&fields[col], field.data_type, b).map_err(|e| {
                        Error::exec(format!("{}: line {}: {e}", self.name, self.line_no))
                    })?;
                if Some(col) == self.et_col {
                    et_ts = parsed;
                }
            }
            let raw = match self.et_col {
                Some(col) => match et_ts {
                    Some(t) => t,
                    None => {
                        // The event-time field parsed, but not as a
                        // timestamp; re-parse it once for the exact value
                        // the row path's error would print.
                        let dt = self.schema.fields()[col].data_type;
                        let held = match text::parse_value(&fields[col], dt) {
                            Ok(other) => format!("{other:?}"),
                            Err(_) => format!("unparseable '{}'", fields[col]),
                        };
                        return Err(Error::exec(format!(
                            "{}: line {}: event-time column holds {held}",
                            self.name, self.line_no
                        )));
                    }
                },
                None => {
                    self.seq += 1;
                    Ts(self.seq - 1)
                }
            };
            self.max_ts = Some(self.max_ts.map_or(raw, |m| m.max(raw)));
            ptimes.push(ptimes.last().map_or(raw, |&p| p.max(raw)));
        }
        let diffs = vec![1i64; ptimes.len()];
        let cols = builders.into_iter().map(ColumnBuilder::finish).collect();
        Ok(Some(ColumnarBatch {
            columns: SourceColumns::single(0, ChangeBatch::new_dense(cols, diffs, ptimes)),
            watermark: self
                .max_ts
                .map(|max| max - self.config.lateness - Duration(1)),
            status,
            trace_parent: None,
        }))
    }
}

// A single file partition is itself a well-formed source, which is what
// lets `PartitionedVec` fold N ≥ 1 of them into the partitioned connector.
impl Source for TextFileSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn streams(&self) -> &[String] {
        &self.streams
    }
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        self.poll(max_events)
    }
    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        self.poll_cols(max_events)
    }
}

/// Reads a CSV file as a stream of inserts.
pub struct CsvFileSource(TextFileSource);

impl CsvFileSource {
    /// Open `path`, parsing each line against `schema` and feeding engine
    /// stream `stream`.
    pub fn new(
        path: impl AsRef<Path>,
        stream: impl Into<String>,
        schema: SchemaRef,
        config: FileSourceConfig,
    ) -> Result<CsvFileSource> {
        Ok(CsvFileSource(TextFileSource::open(
            path,
            stream,
            schema,
            LineFormat::Csv,
            config,
        )?))
    }
}

impl Source for CsvFileSource {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn streams(&self) -> &[String] {
        &self.0.streams
    }
    fn poll_batch(&mut self, max_events: usize) -> Result<SourceBatch> {
        self.0.poll(max_events)
    }
    fn poll_columns(&mut self, max_events: usize) -> Result<Option<ColumnarBatch>> {
        self.0.poll_cols(max_events)
    }
}

/// A partitioned file source: N ≥ 1 files feeding one stream, one partition
/// per file — the on-disk analog of a partitioned Kafka topic, and what
/// the `file` connector builds for one path as for several.
///
/// Each partition replays its file independently (its own watermark from
/// its own max event time, its own replayable offset counting parsed
/// records), so the driver can poll them round-robin, combine
/// their watermarks as the min, and seek any partition back to a
/// checkpointed offset by re-reading its file. The `Vec<inner>` + offset
/// plumbing is [`PartitionedVec`]; this type only opens the files.
pub struct PartitionedFileSource(PartitionedVec<TextFileSource>);

impl PartitionedFileSource {
    fn open_all(
        paths: &[impl AsRef<Path>],
        stream: &str,
        schema: SchemaRef,
        format: LineFormat,
        config: FileSourceConfig,
    ) -> Result<PartitionedFileSource> {
        if paths.is_empty() {
            return Err(Error::plan(
                "partitioned file source needs at least one file",
            ));
        }
        let parts = paths
            .iter()
            .map(|p| TextFileSource::open(p, stream, schema.clone(), format, config.clone()))
            .collect::<Result<Vec<_>>>()?;
        // One file is the plain source, under the plain source's name.
        Ok(PartitionedFileSource(PartitionedVec::folded(
            format!("files:{}x{}", paths[0].as_ref().display(), paths.len()),
            parts,
        )?))
    }

    /// One partition per CSV file, all parsed against `schema` into
    /// engine stream `stream`.
    pub fn csv(
        paths: &[impl AsRef<Path>],
        stream: &str,
        schema: SchemaRef,
        config: FileSourceConfig,
    ) -> Result<PartitionedFileSource> {
        PartitionedFileSource::open_all(paths, stream, schema, LineFormat::Csv, config)
    }

    /// One partition per JSON-lines file.
    pub fn json_lines(
        paths: &[impl AsRef<Path>],
        stream: &str,
        schema: SchemaRef,
        config: FileSourceConfig,
    ) -> Result<PartitionedFileSource> {
        PartitionedFileSource::open_all(paths, stream, schema, LineFormat::JsonLines, config)
    }
}

impl WrapsPartitioned for PartitionedFileSource {
    fn parts(&self) -> &dyn PartitionedSource {
        &self.0
    }

    fn parts_mut(&mut self) -> &mut dyn PartitionedSource {
        &mut self.0
    }
}

/// What a file sink writes per output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvSinkMode {
    /// Data columns plus `undo` / `ptime` / `ver` metadata: a faithful
    /// changelog any consumer can replay.
    Changelog,
    /// Data columns only. Valid for append-only outputs (e.g.
    /// `EMIT AFTER WATERMARK` aggregates); a retraction is an error.
    Appends,
}

/// Names of the metadata columns a changelog-mode sink appends.
const META_NAMES: [&str; 3] = onesql_exec::STREAM_META_COLUMNS;

/// A line's metadata: `undo`, `ptime`, `ver`, and the clock text of the
/// last `ptime` written.
type Meta<'a> = (bool, Ts, u64, &'a mut LastClock);

/// The clock text of the last `ptime` a call wrote: the rows of one flush
/// share a few ptimes, so most reuse it.
#[derive(Default)]
struct LastClock(Option<(Ts, digits::Encoded)>);

impl LastClock {
    fn append_to(&mut self, out: &mut Vec<u8>, ptime: Ts) {
        match self.0 {
            Some((last, text)) if last == ptime => out.extend_from_slice(text.as_bytes()),
            _ => {
                let text = digits::clock(ptime);
                out.extend_from_slice(text.as_bytes());
                self.0 = Some((ptime, text));
            }
        }
    }
}

/// Row-to-bytes rendering of the file sink: CSV or JSON-lines, changelog
/// or appends mode, with the bind-time header line and JSON keys. Rows
/// and columnar batches go through the same per-type encoders ([`text`],
/// [`json`]).
struct LineRenderer {
    name: String,
    mode: CsvSinkMode,
    format: LineFormat,
    /// Each JSON field's `"name":`, the metadata columns' after the data
    /// columns' in changelog mode; built once at bind time.
    json_keys: Option<Vec<Vec<u8>>>,
    header: bool,
    /// The lines of one `write` call; reused, so rendering a row
    /// allocates nothing once the buffer has grown to a round's size.
    buf: Vec<u8>,
}

impl LineRenderer {
    fn new(name: String, mode: CsvSinkMode, format: LineFormat, header: bool) -> LineRenderer {
        LineRenderer {
            name,
            mode,
            format,
            json_keys: None,
            header,
            buf: Vec::new(),
        }
    }

    /// Bind the output schema, returning the header line to write (CSV
    /// with headers enabled only).
    fn bind(&mut self, schema: SchemaRef) -> Result<Option<String>> {
        let changelog = self.mode == CsvSinkMode::Changelog;
        let header = (self.header && matches!(self.format, LineFormat::Csv)).then(|| {
            // Column names are quoted as the string values they are.
            let meta = if changelog { &META_NAMES[..] } else { &[] };
            let names = schema.names().into_iter().chain(meta.iter().copied());
            let mut line = Vec::new();
            text::push_csv_row(&mut line, &Row::from_values(names.map(Value::str)));
            String::from_utf8_lossy(&line).into_owned()
        });
        let mut fields = schema.fields().to_vec();
        if changelog {
            fields.push(onesql_types::Field::new(
                META_NAMES[0],
                onesql_types::DataType::Bool,
            ));
            fields.push(onesql_types::Field::new(
                META_NAMES[1],
                onesql_types::DataType::Timestamp,
            ));
            fields.push(onesql_types::Field::new(
                META_NAMES[2],
                onesql_types::DataType::Int,
            ));
        }
        self.json_keys = Some(json::object_keys(&Schema::new(fields)));
        Ok(header)
    }

    /// Refuse a retraction in appends mode.
    fn check(&self, undo: bool) -> Result<()> {
        if undo && self.mode == CsvSinkMode::Appends {
            return Err(Error::exec(format!(
                "{}: retraction reached an appends-mode sink; use \
                 CsvSinkMode::Changelog or a watermark-gated query",
                self.name
            )));
        }
        Ok(())
    }

    fn json_keys(&self) -> Result<&[Vec<u8>]> {
        self.json_keys
            .as_deref()
            .ok_or_else(|| Error::exec(format!("{}: sink was never bound", self.name)))
    }

    /// Append one row's line: its data fields, written by `fields` (CSV
    /// fields need their separators; JSON fields take the next key), then
    /// the metadata in changelog mode.
    fn render_line(
        &self,
        out: &mut Vec<u8>,
        (undo, ptime, ver, clock): Meta<'_>,
        csv: impl FnOnce(&mut Vec<u8>),
        json: impl FnOnce(&mut json::Object<'_>),
    ) -> Result<()> {
        self.check(undo)?;
        let changelog = self.mode == CsvSinkMode::Changelog;
        match self.format {
            LineFormat::Csv => {
                csv(out);
                if changelog {
                    // `true`/`false` (not the paper's "undo" rendering,
                    // which ChangelogSink provides) so the column parses
                    // back as the Bool the meta schema declares.
                    out.extend_from_slice(if undo { b",true," } else { b",false," });
                    clock.append_to(out, ptime);
                    out.push(b',');
                    text::push_u64(out, ver);
                }
            }
            LineFormat::JsonLines => {
                let mut object = json::Object::open(out, self.json_keys()?);
                json(&mut object);
                if changelog {
                    if let Some(out) = object.field() {
                        text::push_bool(out, undo);
                    }
                    if let Some(out) = object.field() {
                        text::push_int(out, ptime.millis());
                    }
                    if let Some(out) = object.field() {
                        text::push_u64(out, ver);
                    }
                }
                object.close();
            }
        }
        out.push(b'\n');
        Ok(())
    }

    /// Append `rows` to `out`, one terminated line each. On an error,
    /// `out` holds the lines of the rows before the offending one.
    fn render_rows(&self, rows: &[StreamRow], out: &mut Vec<u8>) -> Result<()> {
        let mut clock = LastClock::default();
        for sr in rows {
            self.render_row(out, &sr.row, (sr.undo, sr.ptime, sr.ver, &mut clock))?;
        }
        Ok(())
    }

    /// One row's line, its values written by their types' encoders.
    fn render_row(&self, out: &mut Vec<u8>, row: &Row, meta: Meta<'_>) -> Result<()> {
        self.render_line(
            out,
            meta,
            |out| text::push_csv_row(out, row),
            |object| {
                for value in row.values() {
                    let Some(out) = object.field() else {
                        break;
                    };
                    json::push_value(out, value);
                }
            },
        )
    }

    /// [`LineRenderer::render_rows`] for the same rows as columns, each
    /// value written by its column's encoder.
    fn render_batch(&self, batch: &StreamBatch<'_>, out: &mut Vec<u8>) -> Result<()> {
        let mut clock = LastClock::default();
        for i in 0..batch.len() {
            let row = batch.get(i);
            let meta = (row.undo, row.ptime, row.ver, &mut clock);
            let (columns, at) = match row.cells {
                Cells::Columns(columns, at) => (columns, at),
                Cells::Row(row) => {
                    self.render_row(out, row, meta)?;
                    continue;
                }
            };
            self.render_line(
                out,
                meta,
                |out| {
                    for (c, column) in columns.iter().enumerate() {
                        if c > 0 {
                            out.push(b',');
                        }
                        text::push_csv_column(out, column, at);
                    }
                },
                |object| {
                    for column in columns {
                        let Some(out) = object.field() else {
                            break;
                        };
                        json::push_column(out, column, at);
                    }
                },
            )?;
        }
        Ok(())
    }

    /// Render into the reused buffer and hand the writer all of the bytes
    /// in one `write_all`. A row that cannot be rendered fails the call
    /// after the rows before it were written; none after it are.
    fn write_with(
        &mut self,
        writer: &mut impl Write,
        render: impl FnOnce(&Self, &mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let rendered = render(self, &mut buf);
        let written = writer.write_all(&buf);
        self.buf = buf;
        written.map_err(|e| Error::exec(format!("{}: write error: {e}", self.name)))?;
        rendered
    }

    fn write_rows(&mut self, rows: &[StreamRow], writer: &mut impl Write) -> Result<()> {
        self.write_with(writer, |r, buf| r.render_rows(rows, buf))
    }

    fn write_batch(&mut self, batch: &StreamBatch<'_>, writer: &mut impl Write) -> Result<()> {
        self.write_with(writer, |r, buf| r.render_batch(batch, buf))
    }
}

// ---------------------------------------------------------------------------
// The file sink: two-phase
// ---------------------------------------------------------------------------

/// Refuse a destination that cannot be written, so a pipeline fails when
/// it is built rather than at its first output row. Neither an existing
/// file nor a missing one changes: the probe removes the file it creates.
pub(crate) fn check_writable(path: &Path) -> std::result::Result<(), String> {
    let probe = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path);
    match probe {
        Ok(_) => std::fs::remove_file(path),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map(drop),
        Err(e) => Err(e),
    }
    .map_err(|e| format!("cannot create '{}': {e}", path.display()))
}

/// Magic opening a file sink's staging sidecar.
const TXN_MAGIC: [u8; 4] = *b"OSQT";

/// Staged `(epoch, length)` entries the sidecar keeps after a commit.
/// Must be at least the checkpoint store's retention (`SET
/// checkpoint_retain`, default 3) for every retained epoch to stay
/// restorable; 64 leaves a wide margin while bounding sidecar growth.
const TXN_RETAIN: usize = 64;

/// Lifecycle of a file sink instance.
enum TxnState {
    /// Built and bound, fate undecided: the first `write` starts a fresh
    /// output file; an `on_restore` recovers the previous incarnation's.
    Pending,
    /// Output file open, appending.
    Active,
    /// Pipeline finished; output is final and the sidecar is gone.
    Finished,
}

/// The file sink, CSV (with or without a header) or JSON-lines, and the
/// only one the `file` connector builds. It is two-phase, for
/// exactly-once *sink files*, not just changelogs: rows append to the
/// destination file as usual, but every checkpoint barrier durably
/// stages the association `(epoch, committed byte length)` in a
/// `<path>.txn` sidecar **before** the pipeline checkpoint itself is
/// persisted, and `ack_checkpoint` commits it. Restoring epoch E in a
/// fresh process truncates the file back to E's recorded length —
/// discarding exactly the uncommitted staging the replay will
/// regenerate — so a pipeline killed at any point and restored produces
/// a destination file *byte-identical* to an uninterrupted run. A normal
/// finish removes the sidecar, leaving the same final artifacts either
/// way.
///
/// The sidecar is framed like every durable-checkpoint file (magic +
/// version + length + CRC, atomic tmp-rename; see
/// `onesql_core::durable`), so a corrupt or truncated sidecar is a typed
/// error, never silent duplication.
pub struct TxnFileSink {
    renderer: LineRenderer,
    path: std::path::PathBuf,
    sidecar: std::path::PathBuf,
    header: Option<String>,
    state: TxnState,
    /// `(epoch, committed byte length)` per staged checkpoint, ascending.
    epochs: Vec<(u64, u64)>,
    /// Highest epoch whose durability was acknowledged (phase two).
    committed: u64,
    writer: Option<BufWriter<File>>,
}

impl TxnFileSink {
    /// A CSV sink writing `path` (sidecar `path.txn`), with a header line
    /// if `header`. No file is touched until the first write (fresh
    /// start) or `on_restore` (recovery) decides this instance's fate.
    pub fn new(path: impl AsRef<Path>, mode: CsvSinkMode, header: bool) -> TxnFileSink {
        TxnFileSink::with_format(path, mode, LineFormat::Csv, header)
    }

    /// A JSON-lines sink.
    pub fn json_lines(path: impl AsRef<Path>, mode: CsvSinkMode) -> TxnFileSink {
        TxnFileSink::with_format(path, mode, LineFormat::JsonLines, false)
    }

    fn with_format(
        path: impl AsRef<Path>,
        mode: CsvSinkMode,
        format: LineFormat,
        header: bool,
    ) -> TxnFileSink {
        let path = path.as_ref().to_path_buf();
        let mut sidecar_name = path.file_name().unwrap_or_default().to_os_string();
        sidecar_name.push(".txn");
        let sidecar = path.with_file_name(sidecar_name);
        TxnFileSink {
            renderer: LineRenderer::new(format!("file:{}", path.display()), mode, format, header),
            path,
            sidecar,
            header: None,
            state: TxnState::Pending,
            epochs: Vec::new(),
            committed: 0,
            writer: None,
        }
    }

    /// Refuse a destination that cannot be written ([`check_writable`]).
    pub(crate) fn check_writable(&self) -> Result<()> {
        check_writable(&self.path).map_err(|e| self.err(e))
    }

    fn err(&self, msg: impl std::fmt::Display) -> onesql_types::Error {
        Error::exec(format!("{}: {msg}", self.renderer.name))
    }

    /// Persist the sidecar atomically: `committed`, then the staged
    /// `(epoch, length)` pairs.
    fn write_sidecar(&self) -> Result<()> {
        let mut payload = Vec::with_capacity(16 + self.epochs.len() * 16);
        payload.extend_from_slice(&self.committed.to_le_bytes());
        payload.extend_from_slice(&(self.epochs.len() as u64).to_le_bytes());
        for &(epoch, len) in &self.epochs {
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&len.to_le_bytes());
        }
        onesql_core::durable::write_atomic(&self.sidecar, TXN_MAGIC, &payload)
    }

    fn read_sidecar(&self) -> Result<(u64, Vec<(u64, u64)>)> {
        let payload = onesql_core::durable::read_verified(&self.sidecar, TXN_MAGIC)?;
        let word = |i: usize| -> Result<u64> {
            let bytes = payload.get(i * 8..i * 8 + 8).ok_or_else(|| {
                self.err(format!(
                    "sidecar '{}' payload is short",
                    self.sidecar.display()
                ))
            })?;
            let mut arr = [0u8; 8];
            arr.copy_from_slice(bytes);
            Ok(u64::from_le_bytes(arr))
        };
        let committed = word(0)?;
        let count = word(1)?;
        let mut epochs = Vec::with_capacity(usize::try_from(count).unwrap_or(0).min(1024));
        for i in 0..count {
            let base = 2 + (i as usize) * 2;
            epochs.push((word(base)?, word(base + 1)?));
        }
        Ok((committed, epochs))
    }

    /// Fresh start: create (truncate) the destination and write the
    /// header. A stale sidecar from an abandoned earlier run is overwritten
    /// with the empty baseline, durably, so that no restore can cut the
    /// new file to a length recorded for the old one. Without a sidecar
    /// there is nothing to overwrite; the first checkpoint writes one.
    fn start_fresh(&mut self) -> Result<()> {
        let file = File::create(&self.path)
            .map_err(|e| self.err(format!("cannot create '{}': {e}", self.path.display())))?;
        let mut writer = BufWriter::new(file);
        if let Some(header) = &self.header {
            writeln!(writer, "{header}").map_err(|e| self.err(format!("write error: {e}")))?;
            writer
                .flush()
                .map_err(|e| self.err(format!("flush error: {e}")))?;
        }
        self.writer = Some(writer);
        self.epochs.clear();
        self.committed = 0;
        if self.sidecar.exists() {
            self.write_sidecar()?;
        }
        self.state = TxnState::Active;
        Ok(())
    }

    /// The open output, started fresh on first use, next to the renderer
    /// (borrowed together so callers can render and name errors while
    /// they write).
    fn active(&mut self) -> Result<(&mut LineRenderer, &mut BufWriter<File>)> {
        match self.state {
            TxnState::Pending => self.start_fresh()?,
            TxnState::Active => {}
            TxnState::Finished => {
                return Err(self.err("write after the pipeline finished"));
            }
        }
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| Error::exec("file sink is active without an open writer"))?;
        Ok((&mut self.renderer, writer))
    }

    /// Flush buffered lines, sync the file and return its byte length.
    fn synced_len(&mut self) -> Result<u64> {
        let (renderer, writer) = self.active()?;
        let err =
            |what: &str, e: std::io::Error| Error::exec(format!("{}: {what}: {e}", renderer.name));
        writer.flush().map_err(|e| err("flush error", e))?;
        let file = writer.get_ref();
        file.sync_all().map_err(|e| err("sync error", e))?;
        Ok(file.metadata().map_err(|e| err("cannot stat", e))?.len())
    }
}

impl Sink for TxnFileSink {
    fn name(&self) -> &str {
        &self.renderer.name
    }

    fn bind(&mut self, schema: SchemaRef) -> Result<()> {
        self.header = self.renderer.bind(schema)?;
        Ok(())
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let (renderer, writer) = self.active()?;
        renderer.write_rows(rows, writer)
    }

    fn write_batch(&mut self, batch: &StreamBatch<'_>) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let (renderer, writer) = self.active()?;
        renderer.write_batch(batch, writer)
    }

    fn on_checkpoint(&mut self, epoch: u64) -> Result<()> {
        // Phase one, durable *before* the checkpoint itself persists:
        // sync the data, then atomically stage (epoch, length). Whichever
        // epochs the store ends up retaining, their boundaries exist.
        let len = self.synced_len()?;
        if let Some(&(last, _)) = self.epochs.last() {
            if epoch <= last {
                return Err(self.err(format!(
                    "checkpoint epoch {epoch} does not advance past staged epoch {last}"
                )));
            }
        }
        self.epochs.push((epoch, len));
        self.write_sidecar()
    }

    fn commit_checkpoint(&mut self, epoch: u64) -> Result<()> {
        if !self.epochs.iter().any(|&(e, _)| e == epoch) {
            return Err(self.err(format!("cannot commit epoch {epoch}: it was never staged")));
        }
        if epoch > self.committed {
            self.committed = epoch;
            // Release staging for epochs no checkpoint store can still
            // restore: keep the newest TXN_RETAIN entries (a generous
            // multiple of any sane `checkpoint_retain`), so the sidecar
            // stays O(1) per checkpoint instead of growing forever.
            if self.epochs.len() > TXN_RETAIN {
                let drop = self.epochs.len() - TXN_RETAIN;
                self.epochs.drain(..drop);
            }
            self.write_sidecar()?;
        }
        Ok(())
    }

    fn on_restore(&mut self, epoch: u64) -> Result<()> {
        if !matches!(self.state, TxnState::Pending) {
            return Err(self.err("restore requires a freshly built sink"));
        }
        if !self.sidecar.exists() {
            return Err(self.err(format!(
                "no staging sidecar at '{}'; did the previous run checkpoint \
                 into this file?",
                self.sidecar.display()
            )));
        }
        let (_, epochs) = self.read_sidecar()?;
        let Some(&(_, len)) = epochs.iter().find(|&&(e, _)| e == epoch) else {
            return Err(self.err(format!(
                "epoch {epoch} was never staged here (staged epochs: {:?})",
                epochs.iter().map(|&(e, _)| e).collect::<Vec<_>>()
            )));
        };
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| self.err(format!("cannot open '{}': {e}", self.path.display())))?;
        let actual = file
            .metadata()
            .map_err(|e| self.err(format!("cannot stat: {e}")))?
            .len();
        if actual < len {
            return Err(self.err(format!(
                "'{}' holds {actual} bytes but epoch {epoch} committed {len}; \
                 committed output is missing",
                self.path.display()
            )));
        }
        // Truncate the uncommitted staging; the replay regenerates it.
        file.set_len(len)
            .map_err(|e| self.err(format!("cannot truncate: {e}")))?;
        let mut file = file;
        std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0))
            .map_err(|e| self.err(format!("cannot seek: {e}")))?;
        self.writer = Some(BufWriter::new(file));
        self.epochs = epochs.into_iter().filter(|&(e, _)| e <= epoch).collect();
        self.committed = epoch;
        self.write_sidecar()?;
        self.state = TxnState::Active;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        // The pipeline finished: make the output final. An empty run
        // still materializes the (header-only) file; the sidecar is
        // removed because there is no staging left to recover. The
        // driver flushes sinks *before* acking final source offsets, so
        // if a later finish step fails, the output here is already
        // complete and durable — a subsequent restore attempt errors
        // loudly on the missing sidecar rather than duplicating rows into
        // a finished file.
        self.synced_len()?;
        match std::fs::remove_file(&self.sidecar) {
            // A run that never checkpointed may never have written one.
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(self.err(format!("cannot remove sidecar: {e}")));
            }
            _ => {}
        }
        self.state = TxnState::Finished;
        Ok(())
    }
}

/// The CSV constructor the frozen benchmark harness (`perfbench/`)
/// calls; every file sink is a [`TxnFileSink`].
pub enum CsvFileSink {}

impl CsvFileSink {
    /// A [`TxnFileSink`] writing CSV with a header line to `path`; errors
    /// if `path` cannot be written.
    // The frozen harness names this constructor; the type it returns is
    // the one file sink.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(path: impl AsRef<Path>, mode: CsvSinkMode) -> Result<TxnFileSink> {
        let sink = TxnFileSink::new(path, mode, true);
        sink.check_writable()?;
        Ok(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_core::StreamBuilder;
    use onesql_types::{row, DataType};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(
            StreamBuilder::new()
                .event_time_column("bidtime")
                .column("price", DataType::Int)
                .column("item", DataType::String)
                .build(),
        )
    }

    fn scratch_file(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("onesql_file_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn quoted_field_spanning_lines_parses_as_one_record() {
        let path = scratch_file("multiline.csv", "8:07,2,\"a\nb\"\n8:08,3,c\n");
        let mut source =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
        let batch = source.poll_batch(16).unwrap();
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.events[0].change.row, row!(Ts::hm(8, 7), 2i64, "a\nb"));
        assert_eq!(batch.events[1].change.row, row!(Ts::hm(8, 8), 3i64, "c"));
    }

    #[test]
    fn unterminated_quote_at_eof_errors_with_line() {
        let path = scratch_file("unterminated.csv", "8:07,2,\"open\n");
        let mut source =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
        let err = source.poll_batch(16).unwrap_err().to_string();
        assert!(err.contains("unterminated"), "{err}");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn watermark_admits_duplicate_timestamps() {
        // Two rows share the max event time; the watermark must stay
        // strictly below it so the second row is not late.
        let path = scratch_file("dups.csv", "8:07,1,a\n8:07,2,b\n");
        let mut source =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
        let batch = source.poll_batch(16).unwrap();
        let wm = batch.watermark.unwrap();
        assert!(wm < Ts::hm(8, 7), "watermark {wm} would close ts 8:07");
        assert_eq!(wm, Ts::hm(8, 7) - Duration(1));
    }

    fn stream_row(v: i64) -> StreamRow {
        StreamRow {
            row: row!(v),
            undo: false,
            ptime: Ts(v),
            ver: 0,
        }
    }

    fn out_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![onesql_types::Field::new(
            "v",
            DataType::Int,
        )]))
    }

    /// The renderer `LineRenderer::render_into` replaced — a `String` per value,
    /// per field and per line — kept as the oracle its bytes are pinned to.
    mod old {
        use super::*;

        fn clock_string(ts: Ts) -> String {
            if ts == Ts::MAX {
                return "+inf".to_string();
            }
            if ts == Ts::MIN {
                return "-inf".to_string();
            }
            let (sign, ms) = if ts.0 < 0 { ("-", -ts.0) } else { ("", ts.0) };
            let (hours, minutes) = (ms / 3_600_000, (ms % 3_600_000) / 60_000);
            let rem_ms = ms % 60_000;
            if rem_ms == 0 {
                format!("{sign}{hours}:{minutes:02}")
            } else {
                let (seconds, millis) = (rem_ms / 1_000, rem_ms % 1_000);
                format!("{sign}{hours}:{minutes:02}:{seconds:02}.{millis:03}")
            }
        }

        fn compact_string(d: Duration) -> String {
            let ms = d.0;
            if ms % 3_600_000 == 0 {
                format!("{}h", ms / 3_600_000)
            } else if ms % 60_000 == 0 {
                format!("{}m", ms / 60_000)
            } else if ms % 1_000 == 0 {
                format!("{}s", ms / 1_000)
            } else {
                format!("{ms}ms")
            }
        }

        fn format_value(value: &Value) -> String {
            match value {
                Value::Null => String::new(),
                Value::Ts(t) => clock_string(*t),
                Value::Interval(d) => compact_string(*d),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Float(v) => v.to_string(),
                Value::Str(s) => s.to_string(),
            }
        }

        pub fn escape_csv_field(text: &str) -> String {
            if text.contains(',') || text.contains('"') || text.contains('\n') {
                format!("\"{}\"", text.replace('"', "\"\""))
            } else {
                text.to_string()
            }
        }

        fn escape_json_string(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        fn value_to_json(value: &Value) -> String {
            match value {
                Value::Null => "null".to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) if f.is_finite() => f.to_string(),
                Value::Float(f) => escape_json_string(&f.to_string()),
                Value::Str(s) => escape_json_string(s),
                Value::Ts(t) => t.millis().to_string(),
                Value::Interval(d) => d.millis().to_string(),
            }
        }

        /// The JSON schema `bytes::renderer` binds, with its metadata
        /// columns in changelog mode.
        fn json_schema(mode: CsvSinkMode) -> Schema {
            let names = ["plain", "quo\"ted", "com,ma"];
            let mut fields: Vec<_> = names
                .iter()
                .map(|name| onesql_types::Field::new(*name, DataType::String))
                .collect();
            if mode == CsvSinkMode::Changelog {
                fields.push(onesql_types::Field::new(META_NAMES[0], DataType::Bool));
                fields.push(onesql_types::Field::new(META_NAMES[1], DataType::Timestamp));
                fields.push(onesql_types::Field::new(META_NAMES[2], DataType::Int));
            }
            Schema::new(fields)
        }

        pub fn render(r: &LineRenderer, sr: &StreamRow) -> Result<String> {
            if r.mode == CsvSinkMode::Appends && sr.undo {
                return Err(Error::exec(format!(
                    "{}: retraction reached an appends-mode sink; use \
                     CsvSinkMode::Changelog or a watermark-gated query",
                    r.name
                )));
            }
            let cells = |row: &Row| -> Vec<String> {
                let cell = |v| escape_csv_field(&format_value(v));
                row.values().iter().map(cell).collect()
            };
            Ok(match (&r.format, &r.mode) {
                (LineFormat::Csv, CsvSinkMode::Appends) => cells(&sr.row).join(","),
                (LineFormat::Csv, CsvSinkMode::Changelog) => {
                    let mut fields = cells(&sr.row);
                    fields.push(sr.undo.to_string());
                    fields.push(clock_string(sr.ptime));
                    fields.push(sr.ver.to_string());
                    fields.join(",")
                }
                (LineFormat::JsonLines, mode) => {
                    let changelog = *mode == CsvSinkMode::Changelog;
                    let row = if changelog {
                        sr.row
                            .with_appended(&[Value::Bool(sr.undo), Value::Ts(sr.ptime)])
                    } else {
                        sr.row.clone()
                    };
                    let schema = json_schema(r.mode);
                    let pairs = schema.fields().iter().zip(row.values());
                    let pair = |(f, v): (&onesql_types::Field, _)| {
                        format!("{}:{}", escape_json_string(&f.name), value_to_json(v))
                    };
                    let mut pairs: Vec<String> = pairs.map(pair).collect();
                    if changelog {
                        // A count, written as the CSV path writes it.
                        pairs.push(format!("\"ver\":{}", sr.ver));
                    }
                    format!("{{{}}}", pairs.join(","))
                }
            })
        }
    }

    mod bytes {
        use super::*;
        use proptest::prelude::*;

        fn arb_ts() -> impl Strategy<Value = Ts> {
            prop_oneof![
                any::<i64>().prop_map(Ts),
                // Whole minutes, both signs; sub-minute remainders.
                (-100_000i64..100_000).prop_map(Ts::from_minutes),
                (-200_000i64..200_000).prop_map(Ts),
                Just(Ts::MAX),
                Just(Ts::MIN),
                Just(Ts(i64::MIN + 1)),
            ]
        }

        fn arb_text() -> impl Strategy<Value = String> {
            let chars = [
                ',', '"', '\n', '\r', '\t', '\\', '\u{1}', 'a', ' ', 'é', '7',
            ];
            let one = (0..chars.len()).prop_map(move |i| chars[i]);
            prop::collection::vec(one, 0..6).prop_map(|cs| cs.into_iter().collect())
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            let floats = [
                0.0,
                -0.0,
                0.1,
                -2.5,
                8580.0,
                1e21,
                1e-7,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            prop_oneof![
                Just(Value::Null),
                prop::bool::ANY.prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                (0..floats.len()).prop_map(move |i| Value::Float(floats[i])),
                any::<i64>().prop_map(|i| Value::Float(i as f64 / 1024.0)),
                arb_text().prop_map(Value::str),
                arb_ts().prop_map(Value::Ts),
                any::<i64>().prop_map(|ms| Value::Interval(Duration(ms))),
                (-50_000i64..50_000).prop_map(|s| Value::Interval(Duration(s * 1_000))),
            ]
        }

        const ARITY: usize = 3;

        fn arb_stream_row() -> impl Strategy<Value = StreamRow> {
            let row = prop::collection::vec(arb_value(), ARITY..ARITY + 1);
            (row, prop::bool::ANY, arb_ts(), any::<u64>()).prop_map(|(values, undo, ptime, ver)| {
                StreamRow {
                    row: Row::new(values),
                    undo,
                    ptime,
                    ver,
                }
            })
        }

        fn renderer(format: LineFormat, mode: CsvSinkMode) -> LineRenderer {
            let mut renderer = LineRenderer::new("sink".to_string(), mode, format, true);
            let names = ["plain", "quo\"ted", "com,ma"];
            let field = |name: &&str| onesql_types::Field::new(*name, DataType::String);
            let schema = Schema::new(names.iter().map(field).collect());
            let header = renderer.bind(Arc::new(schema)).unwrap();
            // The header quotes what a data field would.
            if matches!(format, LineFormat::Csv) {
                let mut expected: Vec<String> =
                    names.iter().map(|n| old::escape_csv_field(n)).collect();
                if mode == CsvSinkMode::Changelog {
                    expected.extend(META_NAMES.iter().map(|n| n.to_string()));
                }
                assert_eq!(header, Some(expected.join(",")));
            } else {
                assert_eq!(header, None);
            }
            renderer
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn rendered_bytes_are_the_old_renderers(
                rows in prop::collection::vec(arb_stream_row(), 0..8)
            ) {
                for format in [LineFormat::Csv, LineFormat::JsonLines] {
                    for mode in [CsvSinkMode::Changelog, CsvSinkMode::Appends] {
                        let mut renderer = renderer(format, mode);
                        // Stale bytes of an earlier call must not leak.
                        renderer.buf.extend_from_slice(b"stale");
                        let mut sunk = Vec::new();
                        let outcome = renderer.write_rows(&rows, &mut sunk);
                        let mut expected = String::new();
                        let mut refused = None;
                        for sr in &rows {
                            match old::render(&renderer, sr) {
                                Ok(line) => expected.push_str(&format!("{line}\n")),
                                // Nothing of the call's later rows is written.
                                Err(e) => {
                                    refused = Some(e.to_string());
                                    break;
                                }
                            }
                        }
                        prop_assert_eq!(String::from_utf8(sunk).unwrap(), expected);
                        prop_assert_eq!(outcome.err().map(|e| e.to_string()), refused.clone());
                        let retracts = rows.iter().any(|sr| sr.undo);
                        prop_assert_eq!(
                            refused.is_some(),
                            mode == CsvSinkMode::Appends && retracts
                        );
                    }
                }
            }
        }

        #[test]
        fn appends_mode_refuses_a_retraction_mid_call() {
            let mut renderer = renderer(LineFormat::Csv, CsvSinkMode::Appends);
            let mut rows = vec![stream_row(1), stream_row(2), stream_row(3)];
            rows[1].undo = true;
            let mut sunk = Vec::new();
            let err = renderer.write_rows(&rows, &mut sunk).unwrap_err();
            assert_eq!(
                err.to_string(),
                "execution error: sink: retraction reached an appends-mode sink; use \
                 CsvSinkMode::Changelog or a watermark-gated query"
            );
            assert_eq!(sunk, b"1\n");
        }
    }

    #[test]
    fn txn_sink_stages_commits_and_truncates_on_restore() {
        let dir = std::env::temp_dir().join("onesql_txn_sink_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("txn-{}.csv", std::process::id()));
        let sidecar = dir.join(format!("txn-{}.csv.txn", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);

        // First incarnation: two rows, checkpoint epoch 1, two more rows
        // (uncommitted staging), then "crash" (drop without flush).
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        sink.write(&[stream_row(1), stream_row(2)]).unwrap();
        sink.on_checkpoint(1).unwrap();
        sink.commit_checkpoint(1).unwrap();
        sink.write(&[stream_row(3), stream_row(4)]).unwrap();
        // Stage epoch 2 so the bytes are on disk, but never "persist" it.
        sink.on_checkpoint(2).unwrap();
        drop(sink);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n3\n4\n");

        // Restore epoch 1 in a fresh instance: rows 3 and 4 are staging
        // beyond it and must vanish; the replay re-writes them once.
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        sink.on_restore(1).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n");
        sink.write(&[stream_row(3), stream_row(4)]).unwrap();
        sink.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n3\n4\n");
        assert!(!sidecar.exists(), "finish removes the sidecar");

        // Terminal state refuses more writes.
        let err = sink.write(&[stream_row(9)]).unwrap_err().to_string();
        assert!(err.contains("finished"), "{err}");
    }

    #[test]
    fn txn_sink_restore_errors_are_typed() {
        let dir = std::env::temp_dir().join("onesql_txn_sink_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("txn-err-{}.csv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join(format!("txn-err-{}.csv.txn", std::process::id())));

        // No sidecar at all.
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        let err = sink.on_restore(1).unwrap_err().to_string();
        assert!(err.contains("no staging sidecar"), "{err}");

        // Stage epoch 1, then ask for an epoch that was never staged.
        sink.write(&[stream_row(1)]).unwrap();
        sink.on_checkpoint(1).unwrap();
        let err = sink.commit_checkpoint(9).unwrap_err().to_string();
        assert!(err.contains("never staged"), "{err}");
        drop(sink);
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        let err = sink.on_restore(7).unwrap_err().to_string();
        assert!(err.contains("epoch 7 was never staged"), "{err}");

        // Committed bytes missing: the data file shrank below epoch 1's
        // recorded length.
        std::fs::write(&path, b"").unwrap();
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        let err = sink.on_restore(1).unwrap_err().to_string();
        assert!(err.contains("committed output is missing"), "{err}");

        // A fresh start voids the stale sidecar: its epoch 1 described the
        // abandoned run's file, not the new one.
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        sink.write(&[stream_row(5)]).unwrap();
        drop(sink);
        let mut sink = TxnFileSink::new(&path, CsvSinkMode::Appends, false);
        sink.bind(out_schema()).unwrap();
        let err = sink.on_restore(1).unwrap_err().to_string();
        assert!(err.contains("epoch 1 was never staged"), "{err}");
    }

    #[test]
    fn columnar_poll_matches_row_poll() {
        let content = "8:07,2,a\n8:05,3,\"b,c\"\n\n8:09,,d\n";
        let path = scratch_file("columnar.csv", content);
        let mut rows =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
        let path = scratch_file("columnar2.csv", content);
        let mut cols =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();

        let rb = rows.poll_batch(16).unwrap();
        let cb = cols.poll_columns(16).unwrap().expect("CSV is columnar");
        assert_eq!(cb.columns.len(), rb.events.len());
        assert_eq!(cb.watermark, rb.watermark);
        assert_eq!(cb.status, rb.status);
        let mut clock = Ts::MIN;
        for (ev, got) in rb.events.iter().zip(cb.columns.events()) {
            // The columnar lane pre-applies the driver's monotone clamp.
            clock = clock.max(ev.ptime);
            assert_eq!(got.ptime, clock);
            assert_eq!(got.change, ev.change);
        }
        // Numeric and timestamp fields land in typed, unboxed columns.
        let columns = cb.columns.batches()[0].1.columns();
        assert_eq!(columns[0].uniform_type(), Some(DataType::Timestamp));
        assert_eq!(columns[1].uniform_type(), Some(DataType::Int));
        assert!(columns[1].has_nulls());

        // Exhausted sources agree too.
        let rb = rows.poll_batch(16).unwrap();
        let cb = cols.poll_columns(16).unwrap().unwrap();
        assert_eq!(rb.status, SourceStatus::Finished);
        assert_eq!(cb.status, SourceStatus::Finished);
        assert!(cb.columns.is_empty());
    }

    #[test]
    fn seek_then_columnar_poll_resumes_on_the_same_row() {
        use onesql_core::connect::PartitionedSource;
        let content = "8:01,1,a\n8:02,2,b\n8:03,3,c\n8:04,4,d\n8:05,5,e\n";
        let open = |name: &str| {
            let path = scratch_file(name, content);
            let source =
                CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
            PartitionedVec::single(source)
        };
        // Uninterrupted: columnar polls all the way, counted in the offset.
        let mut straight = open("seek_straight.csv");
        let head = straight.poll_partition_columns(0, 2).unwrap();
        assert_eq!(head.columns.len(), 2);
        assert_eq!(straight.offset(0), 2, "columnar rows advance the offset");
        let rest = straight.poll_partition_columns(0, 16).unwrap();
        assert_eq!(straight.offset(0), 5);

        // Resumed: `replay_seek` discards by *row* polls, then the driver
        // goes back to columnar polls — both must count the same rows.
        let mut resumed = open("seek_resumed.csv");
        resumed.seek(0, 2).unwrap();
        assert_eq!(resumed.offset(0), 2);
        let tail = resumed.poll_partition_columns(0, 16).unwrap();
        assert_eq!(resumed.offset(0), 5);
        assert_eq!(tail.columns.len(), rest.columns.len());
        assert_eq!(tail.columns.events(), rest.columns.events());
        assert_eq!(tail.watermark, rest.watermark);
        assert_eq!(tail.status, rest.status);
    }

    #[test]
    fn columnar_poll_errors_match_row_poll() {
        for content in [
            "8:07,2,a\n8:08,notanumber,b\n",
            "8:07,2\n",
            "nots,2,a\n",
            ",2,late-null-event-time\n",
        ] {
            let path = scratch_file("columnar_err_rows.csv", content);
            let mut rows =
                CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
            let path = scratch_file("columnar_err_cols.csv", content);
            let mut cols =
                CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
            let row_err = rows.poll_batch(16).unwrap_err().to_string();
            let col_err = cols.poll_columns(16).unwrap_err().to_string();
            // Identical up to the differing file names.
            assert_eq!(
                row_err.replace("columnar_err_rows", "X"),
                col_err.replace("columnar_err_cols", "X"),
                "for {content:?}"
            );
        }
    }

    #[test]
    fn json_lines_source_has_no_columnar_path() {
        // Its columns are its row poll through the rows-to-columns adaptor.
        let content = "{\"bidtime\": 60000, \"price\": 2, \"item\": \"a\"}\n\
                       {\"bidtime\": 30000, \"price\": 3, \"item\": null}\n";
        let open = |name: &str| {
            let path = scratch_file(name, content);
            PartitionedFileSource::json_lines(&[path], "Bid", schema(), FileSourceConfig::default())
                .unwrap()
        };
        let (mut rows, mut cols) = (open("rows.jsonl"), open("cols.jsonl"));
        let adapted = ColumnarBatch::from_rows(rows.poll_partition(0, 16).unwrap()).unwrap();
        let polled = cols.poll_partition_columns(0, 16).unwrap();
        assert_eq!(polled.columns.len(), 2);
        assert_eq!(polled.columns.events(), adapted.columns.events());
        assert_eq!(polled.watermark, adapted.watermark);
        assert_eq!(polled.status, adapted.status);
    }

    #[test]
    fn malformed_field_errors_name_file_and_line() {
        let path = scratch_file("bad.csv", "8:07,2,a\n8:08,notanumber,b\n");
        let mut source =
            CsvFileSource::new(&path, "Bid", schema(), FileSourceConfig::default()).unwrap();
        let err = source.poll_batch(16).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("notanumber"), "{err}");
    }
}
