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
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use onesql_core::connect::Sink;
use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_types::{Error, Result, SchemaRef};

enum Target {
    /// A file not created yet: the first line creates (truncates) it,
    /// after the header `bind` held back, so a sink that is built and then
    /// refused a restore leaves the file as the killed run left it.
    Pending {
        path: PathBuf,
        header: Option<String>,
    },
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
    fn new(name: String, target: Target) -> ChangelogSink {
        ChangelogSink {
            name,
            target,
            show_watermarks: false,
            columns: Vec::new(),
            ptime: String::new(),
            data: String::new(),
        }
    }

    /// Render to any writer.
    pub fn to_writer(writer: impl Write + Send + 'static) -> ChangelogSink {
        ChangelogSink::new("changelog".to_string(), Target::Writer(Box::new(writer)))
    }

    /// Render to a file at `path`. Building only probes that the path can
    /// be written; the file is truncated at the first line.
    pub fn to_file(path: impl AsRef<Path>) -> Result<ChangelogSink> {
        let path = path.as_ref();
        let name = format!("changelog:{}", path.display());
        crate::file::check_writable(path).map_err(|e| Error::exec(format!("{name}: {e}")))?;
        let path = path.to_path_buf();
        let target = Target::Pending { path, header: None };
        Ok(ChangelogSink::new(name, target))
    }

    /// Render into a shared string buffer; returns `(buffer, sink)`.
    pub fn in_memory() -> (Arc<Mutex<String>>, ChangelogSink) {
        let buffer = Arc::new(Mutex::new(String::new()));
        let target = Target::Shared(buffer.clone());
        (
            buffer,
            ChangelogSink::new("changelog:memory".to_string(), target),
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
            Target::Pending { .. } => {
                ChangelogSink::create(target, name)?;
                ChangelogSink::emit(target, name, line)
            }
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

    /// Create a pending file and write the header `bind` held back.
    fn create(target: &mut Target, name: &str) -> Result<()> {
        if let Target::Pending { path, header } = target {
            let file = File::create(&*path).map_err(|e| {
                Error::exec(format!("{name}: cannot create '{}': {e}", path.display()))
            })?;
            let header = header.take();
            *target = Target::Writer(Box::new(BufWriter::new(file)));
            if let Some(header) = header {
                ChangelogSink::emit(target, name, format_args!("{header}"))?;
            }
        }
        Ok(())
    }
}

impl Sink for ChangelogSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn bind(&mut self, schema: SchemaRef) -> Result<()> {
        self.columns = schema.names().iter().map(|n| n.to_string()).collect();
        let columns = self.columns.join(", ");
        if let Target::Pending { header, .. } = &mut self.target {
            *header = Some(format!("-- changelog of ({columns})"));
            return Ok(());
        }
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

    /// A restored pipeline would append to a file it has not recovered —
    /// or truncate it at the first line — so a restore into a file is
    /// refused before anything is written. The two-phase `file` connector
    /// is the one that resumes a file.
    fn on_restore(&mut self, _epoch: u64) -> Result<()> {
        if let Target::Pending { path, .. } = &self.target {
            return Err(Error::unsupported(format!(
                "{}: the 'changelog' connector cannot resume '{}' after a restore \
                 (it would lose the rows the checkpointed run wrote); write to a \
                 sink with connector = 'file', which is two-phase",
                self.name,
                path.display()
            )));
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        // An empty run still leaves its header-only file.
        ChangelogSink::create(&mut self.target, &self.name)?;
        if let Target::Writer(w) = &mut self.target {
            w.flush()
                .map_err(|e| Error::exec(format!("{}: flush error: {e}", self.name)))?;
        }
        Ok(())
    }
}
