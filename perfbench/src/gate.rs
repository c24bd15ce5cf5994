//! The correctness gate: a fast wrong answer never scores.
//!
//! Every check is black-box, over what a run leaves behind — counters
//! and committed sink bytes — never over engine internals.

use std::fmt::Debug;
use std::io::Read;
use std::path::Path;

/// Size, line count and FNV-1a digest of a committed sink file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileDigest {
    /// 64-bit FNV-1a of the bytes.
    pub fnv: u64,
    /// File length.
    pub bytes: u64,
    /// Newline count.
    pub lines: u64,
}

impl FileDigest {
    /// Data rows, given whether the file starts with a header line.
    pub fn rows(&self, header: bool) -> u64 {
        self.lines.saturating_sub(u64::from(header))
    }
}

/// Digest `path` in fixed-size chunks, so checking a large sink file
/// does not move the process's peak RSS.
pub fn digest_file(path: &Path) -> FileDigest {
    let mut file = std::fs::File::open(path)
        .unwrap_or_else(|e| panic!("cannot open sink file {}: {e}", path.display()));
    let mut digest = FileDigest {
        fnv: 0xcbf2_9ce4_8422_2325,
        bytes: 0,
        lines: 0,
    };
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = file
            .read(&mut chunk)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if n == 0 {
            return digest;
        }
        for &b in &chunk[..n] {
            digest.fnv = (digest.fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            digest.lines += u64::from(b == b'\n');
        }
        digest.bytes += n as u64;
    }
}

/// Collects failed checks; a run is correct when none failed.
#[derive(Debug, Default)]
pub struct Gate {
    problems: Vec<String>,
}

impl Gate {
    /// Record a problem unless `got == want`.
    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.problems
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Record a problem unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every check passed.
    pub fn is_ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// The failed checks.
    pub fn into_problems(self) -> Vec<String> {
        self.problems
    }
}
