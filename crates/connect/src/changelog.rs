//! A sink rendering the output changelog in the paper's listing style.
//!
//! Consumes `onesql_exec::emit`'s [`StreamRow`] encoding (Extension 4) and
//! renders one line per revision with the `undo` / `ptime` / `ver`
//! metadata, e.g.:
//!
//! ```text
//! 8:08  +  8:10, 3                      ver=0
//! 8:14  undo  8:10, 3                   ver=1
//! ```

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use onesql_core::connect::Sink;
use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_types::{Error, Result, SchemaRef};

enum Target {
    Writer(Box<dyn Write + Send>),
    Shared(Arc<Mutex<String>>),
}

/// Renders insert/retract output as human-readable changelog lines.
pub struct ChangelogSink {
    name: String,
    target: Target,
    /// Also render watermark advancements as `-- watermark: …` lines.
    show_watermarks: bool,
    columns: Vec<String>,
    /// The row being rendered — its `ptime` and its data cells — in
    /// buffers reused across rows.
    ptime: String,
    data: String,
}

impl ChangelogSink {
    /// Render to any writer.
    pub fn to_writer(writer: impl Write + Send + 'static) -> ChangelogSink {
        ChangelogSink {
            name: "changelog".to_string(),
            target: Target::Writer(Box::new(writer)),
            show_watermarks: false,
            columns: Vec::new(),
            ptime: String::new(),
            data: String::new(),
        }
    }

    /// Render to a file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> Result<ChangelogSink> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| Error::exec(format!("cannot create '{}': {e}", path.display())))?;
        let mut sink = ChangelogSink::to_writer(BufWriter::new(file));
        sink.name = format!("changelog:{}", path.display());
        Ok(sink)
    }

    /// Render into a shared string buffer; returns `(buffer, sink)`.
    pub fn in_memory() -> (Arc<Mutex<String>>, ChangelogSink) {
        let buffer = Arc::new(Mutex::new(String::new()));
        (
            buffer.clone(),
            ChangelogSink {
                name: "changelog:memory".to_string(),
                target: Target::Shared(buffer),
                show_watermarks: false,
                columns: Vec::new(),
                ptime: String::new(),
                data: String::new(),
            },
        )
    }

    /// Also render watermark advancements.
    pub fn with_watermarks(mut self) -> ChangelogSink {
        self.show_watermarks = true;
        self
    }

    /// Write one line. Over the two fields it needs, not `self`, so
    /// `write` can format from its row buffers while it emits.
    fn emit(target: &mut Target, name: &str, line: fmt::Arguments<'_>) -> Result<()> {
        match target {
            Target::Writer(w) => {
                writeln!(w, "{line}").map_err(|e| Error::exec(format!("{name}: write error: {e}")))
            }
            Target::Shared(buf) => {
                let mut buf = buf
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // Writing into a `String` cannot fail.
                let _ = writeln!(buf, "{line}");
                Ok(())
            }
        }
    }
}

impl Sink for ChangelogSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn bind(&mut self, schema: SchemaRef) -> Result<()> {
        self.columns = schema.names().iter().map(|n| n.to_string()).collect();
        let columns = self.columns.join(", ");
        let header = format_args!("-- changelog of ({columns})");
        ChangelogSink::emit(&mut self.target, &self.name, header)
    }

    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        for sr in rows {
            // Writing into a `String` cannot fail.
            self.ptime.clear();
            let _ = write!(self.ptime, "{}", sr.ptime);
            self.data.clear();
            for (i, value) in sr.row.values().iter().enumerate() {
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(self.data, "{sep}{value}");
            }
            let (ptime, data, ver) = (&self.ptime, &self.data, sr.ver);
            let tag = if sr.undo { "undo" } else { "+" };
            let line = format_args!("{ptime:>8}  {tag:<4}  {data:<40} ver={ver}");
            ChangelogSink::emit(&mut self.target, &self.name, line)?;
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Watermark) -> Result<()> {
        if self.show_watermarks {
            let line = format_args!("-- watermark: {wm}");
            ChangelogSink::emit(&mut self.target, &self.name, line)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if let Target::Writer(w) = &mut self.target {
            w.flush()
                .map_err(|e| Error::exec(format!("{}: flush error: {e}", self.name)))?;
        }
        Ok(())
    }
}
