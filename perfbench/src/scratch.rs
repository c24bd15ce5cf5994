//! Scratch space: everything a run writes lives under `.bench_scratch/`
//! in the current directory (the checkout), in a directory unique to the
//! run so parallel invocations never collide.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Root of all scratch output, relative to the current directory.
pub const ROOT: &str = ".bench_scratch";

/// A per-run directory, removed on drop unless [`Scratch::keep`] was
/// called (a failed run keeps its files for inspection).
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    keep: bool,
}

impl Scratch {
    /// Create `.bench_scratch/<label>-<pid>-<nanos>/`.
    pub fn new(label: &str) -> Scratch {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = Path::new(ROOT).join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", dir.display()));
        Scratch { dir, keep: false }
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A fresh sub-directory `name` (any previous content removed).
    pub fn sub(&self, name: &str) -> PathBuf {
        let path = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        path
    }

    /// Leave the directory behind on drop.
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Where a workload's Chrome-trace JSON goes; survives the run.
pub fn trace_path(workload: &str) -> PathBuf {
    let dir = Path::new(ROOT).join("traces");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir.join(format!("{workload}.trace.json"))
}
