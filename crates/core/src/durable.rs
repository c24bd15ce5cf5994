//! Durable pipeline checkpoints: a versioned, CRC-protected on-disk
//! format plus the [`CheckpointStore`] that manages a directory of them.
//!
//! [`crate::driver::PipelineCheckpoint`] is an in-memory struct — enough
//! for exactly-once *within* a process, useless across a kill. This
//! module makes the checkpoint a durable artifact, the way the wire
//! format in `onesql-connect` made a changelog a durable byte stream:
//!
//! - every file opens with a **preamble** — 4-byte magic, `u16` version,
//!   `u64` payload length, CRC-32 of the payload — so truncated,
//!   bit-flipped, foreign, or future-versioned files load as typed
//!   errors, never panics and never silently wrong state;
//! - writes go through **tmp + atomic rename** ([`write_atomic`]), so a
//!   kill mid-write leaves either the old file or the new one, never a
//!   half-written hybrid;
//! - a [`CheckpointStore`] directory holds one `epoch-<N>.ckpt` per
//!   checkpoint plus a `MANIFEST` naming the pipeline, its **schema
//!   fingerprint**, and the retained epochs (the last K, older files
//!   pruned). The epoch file is renamed into place *before* the manifest
//!   references it, so the manifest never points at a missing file;
//! - the manifest's fingerprint — one [`schema_fingerprint`] hash per
//!   relation the pipeline reads — lets a restore refuse a checkpoint
//!   taken under different `CREATE` definitions, naming the relation
//!   that changed instead of replaying garbage into mismatched state.
//!
//! The byte layout (with a worked hex example generated from this very
//! codec) is specified in `docs/CHECKPOINT_FORMAT.md`. `CHECKPOINT
//! PIPELINE <id> TO '<path>'` / `RESTORE PIPELINE <id> FROM '<path>'`
//! drive this store from SQL via [`crate::session::Session`].

use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};

use onesql_state::codec::{crc32, Codec, Decoder};
use onesql_time::Watermark;
use onesql_tvr::TimedChange;
use onesql_types::{Error, Result, Row, Schema, Ts};

use crate::driver::PipelineCheckpoint;
use crate::hash::StableHasher;

/// Magic opening an epoch (checkpoint) file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"OSQC";
/// Magic opening a checkpoint-store manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"OSQM";
/// Current on-disk format version (shared by manifest and epoch files).
/// Version 2 appended per-source/per-partition byte counters to the
/// checkpoint payload (metrics continuity across restores); version 3
/// dropped the merge sequence numbers (a per-worker counter, and one
/// beside every held-back entry) the sort-free merge no longer has.
pub const FORMAT_VERSION: u16 = 3;
/// Epochs a store keeps by default before pruning the oldest.
pub const DEFAULT_RETAIN: usize = 3;

/// Preamble bytes before the payload: magic + version + length + CRC.
const PREAMBLE_LEN: usize = 4 + 2 + 8 + 4;

/// Seed for [`schema_fingerprint`], distinct from the partition-routing
/// seed so the two stable-hash domains can never be confused.
const FINGERPRINT_SEED: u64 = 0x05EE_D0C4_EC9F_0001;

// ---------------------------------------------------------------------------
// Preamble-framed atomic file I/O
// ---------------------------------------------------------------------------

/// Frame `payload` with the standard preamble and write it to `path`
/// atomically: the bytes go to `<path>.tmp` (synced), then rename into
/// place. A kill at any point leaves either the previous file or the
/// complete new one.
pub fn write_atomic(path: &Path, magic: [u8; 4], payload: &[u8]) -> Result<()> {
    let mut framed = BytesMut::with_capacity(PREAMBLE_LEN + payload.len());
    framed.put_slice(&magic);
    framed.put_u16_le(FORMAT_VERSION);
    framed.put_u64_le(payload.len() as u64);
    framed.put_u32_le(crc32(payload));
    framed.put_slice(payload);

    let tmp = tmp_path(path);
    let io = |what: &str, e: std::io::Error| {
        Error::exec(format!(
            "checkpoint write '{}': {what}: {e}",
            path.display()
        ))
    };
    let mut file = fs::File::create(&tmp).map_err(|e| io("create tmp", e))?;
    file.write_all(&framed).map_err(|e| io("write", e))?;
    file.sync_all().map_err(|e| io("sync", e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io("rename into place", e))?;
    // The rename only becomes durable once the directory entry reaches
    // disk; callers ack (and let upstreams trim replay state) on return,
    // so a power loss must not be able to un-happen the rename.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| io("sync directory", e))?;
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Read a preamble-framed file back, verifying magic, version, length,
/// and CRC before returning the payload. Every defect is a typed error
/// naming the file and what is wrong with it.
pub fn read_verified(path: &Path, magic: [u8; 4]) -> Result<Vec<u8>> {
    let bytes = fs::read(path).map_err(|e| {
        Error::exec(format!(
            "cannot read checkpoint file '{}': {e}",
            path.display()
        ))
    })?;
    let display = path.display();
    if bytes.len() < PREAMBLE_LEN {
        return Err(Error::exec(format!(
            "'{display}' is truncated: {} bytes, preamble alone is {PREAMBLE_LEN}",
            bytes.len()
        )));
    }
    if bytes[..4] != magic {
        return Err(Error::exec(format!(
            "'{display}' has wrong magic {:02X?} (expected {:02X?} — not a {} file)",
            &bytes[..4],
            magic,
            if magic == MANIFEST_MAGIC {
                "checkpoint manifest"
            } else {
                "checkpoint"
            }
        )));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(Error::exec(format!(
            "'{display}' is format version {version}, this build reads version {FORMAT_VERSION}"
        )));
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&bytes[6..14]);
    let len = u64::from_le_bytes(len_bytes);
    let payload = &bytes[PREAMBLE_LEN..];
    if payload.len() as u64 != len {
        return Err(Error::exec(format!(
            "'{display}' is truncated: preamble declares {len} payload bytes, {} present",
            payload.len()
        )));
    }
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&bytes[14..18]);
    let crc = u32::from_le_bytes(crc_bytes);
    let actual = crc32(payload);
    if crc != actual {
        return Err(Error::exec(format!(
            "'{display}' is corrupt: payload CRC {actual:08X} does not match recorded {crc:08X}"
        )));
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// Schema fingerprints
// ---------------------------------------------------------------------------

/// A stable (cross-process, cross-arch) hash of a relation schema:
/// column names (case-folded), types, and event-time flags. Stored in the
/// manifest so a restore can prove the current catalog still matches the
/// one the checkpoint was taken under.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = StableHasher::seeded(FINGERPRINT_SEED);
    (schema.fields().len() as u64).hash(&mut h);
    for field in schema.fields() {
        field.name.to_ascii_lowercase().hash(&mut h);
        field.data_type.to_string().hash(&mut h);
        field.event_time.hash(&mut h);
    }
    h.finish()
}

/// Compare a manifest's recorded fingerprint against the live catalog's,
/// erroring with the first mismatched relation by name. `stored` and
/// `current` are `(lowercased relation, hash)` lists in sorted order.
pub fn verify_fingerprint(
    context: &str,
    stored: &[(String, u64)],
    current: &[(String, u64)],
) -> Result<()> {
    for (name, hash) in stored {
        match current.iter().find(|(n, _)| n == name) {
            None => {
                return Err(Error::catalog(format!(
                    "{context}: the checkpoint was taken with relation '{name}' \
                     in the pipeline, which the current script does not define"
                )))
            }
            Some((_, cur)) if cur != hash => {
                return Err(Error::catalog(format!(
                    "{context}: relation '{name}' is defined with a different \
                     schema than when the checkpoint was taken; restoring would \
                     replay events into mismatched operator state"
                )))
            }
            Some(_) => {}
        }
    }
    if let Some((name, _)) = current
        .iter()
        .find(|(n, _)| !stored.iter().any(|(s, _)| s == n))
    {
        return Err(Error::catalog(format!(
            "{context}: the current pipeline reads relation '{name}', which \
             was not part of the pipeline the checkpoint was taken from"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Codec for the checkpoint itself
// ---------------------------------------------------------------------------

impl Codec for PipelineCheckpoint {
    fn encode(&self, buf: &mut BytesMut) {
        self.workers.encode(buf);
        self.offsets.encode(buf);
        self.finished.encode(buf);
        self.feeders.encode(buf);
        self.clock.encode(buf);
        (self.batch_size as u64).encode(buf);
        self.pending.encode(buf);
        self.renderer_versions.encode(buf);
        self.sink_watermark.encode(buf);
        self.output_watermark.encode(buf);
        self.events_out.encode(buf);
        self.watermarks_in.encode(buf);
        self.epoch.encode(buf);
        self.source_bytes.encode(buf);
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(PipelineCheckpoint {
            workers: Vec::<onesql_state::Checkpoint>::decode(input)?,
            offsets: Vec::<Vec<u64>>::decode(input)?,
            finished: Vec::<Vec<bool>>::decode(input)?,
            feeders: Vec::<Watermark>::decode(input)?,
            clock: Ts::decode(input)?,
            batch_size: usize::try_from(u64::decode(input)?)
                .map_err(|_| Error::exec("checkpoint batch size overflows usize"))?,
            pending: Vec::<Vec<TimedChange>>::decode(input)?,
            renderer_versions: Vec::<(Row, u64)>::decode(input)?,
            sink_watermark: Watermark::decode(input)?,
            output_watermark: Watermark::decode(input)?,
            events_out: u64::decode(input)?,
            watermarks_in: u64::decode(input)?,
            epoch: u64::decode(input)?,
            source_bytes: Vec::<Vec<u64>>::decode(input)?,
        })
    }
}

/// What an epoch file's payload holds: the checkpoint plus enough
/// identity to catch a file restored into the wrong pipeline even when
/// the manifest around it was swapped or lost.
struct EpochPayload {
    pipeline: String,
    epoch: u64,
    checkpoint: PipelineCheckpoint,
}

impl Codec for EpochPayload {
    fn encode(&self, buf: &mut BytesMut) {
        self.pipeline.encode(buf);
        self.epoch.encode(buf);
        self.checkpoint.encode(buf);
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(EpochPayload {
            pipeline: String::decode(input)?,
            epoch: u64::decode(input)?,
            checkpoint: PipelineCheckpoint::decode(input)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Manifest + store
// ---------------------------------------------------------------------------

/// The store's commit record: which pipeline this directory belongs to,
/// the schema fingerprint it was created under, and the epochs currently
/// restorable. Rewritten atomically after every save.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    pipeline: String,
    fingerprint: Vec<(String, u64)>,
    retain: u64,
    epochs: Vec<u64>,
}

impl Codec for Manifest {
    fn encode(&self, buf: &mut BytesMut) {
        self.pipeline.encode(buf);
        self.fingerprint.encode(buf);
        self.retain.encode(buf);
        self.epochs.encode(buf);
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(Manifest {
            pipeline: String::decode(input)?,
            fingerprint: Vec::<(String, u64)>::decode(input)?,
            retain: u64::decode(input)?,
            epochs: Vec::<u64>::decode(input)?,
        })
    }
}

/// A directory of durable pipeline checkpoints: `MANIFEST` plus one
/// `epoch-<N>.ckpt` per retained epoch. See the [module docs](self) for
/// the crash-ordering and validation guarantees.
pub struct CheckpointStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl CheckpointStore {
    /// Create a fresh store at `dir` (created if missing) for `pipeline`,
    /// recording `fingerprint` and retaining the last `retain` epochs.
    /// Refuses a directory that already holds a manifest.
    pub fn create(
        dir: impl Into<PathBuf>,
        pipeline: &str,
        fingerprint: Vec<(String, u64)>,
        retain: usize,
    ) -> Result<CheckpointStore> {
        let dir = dir.into();
        if retain == 0 {
            return Err(Error::plan("checkpoint store must retain at least 1 epoch"));
        }
        fs::create_dir_all(&dir).map_err(|e| {
            Error::exec(format!(
                "cannot create checkpoint directory '{}': {e}",
                dir.display()
            ))
        })?;
        if dir.join("MANIFEST").exists() {
            return Err(Error::exec(format!(
                "'{}' already holds a checkpoint store; open it instead",
                dir.display()
            )));
        }
        let store = CheckpointStore {
            manifest: Manifest {
                pipeline: pipeline.to_ascii_lowercase(),
                fingerprint,
                retain: retain as u64,
                epochs: Vec::new(),
            },
            dir,
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// Open an existing store, verifying the manifest's preamble. A
    /// directory without a `MANIFEST` is a typed error (nothing was ever
    /// committed there, or the artifact is incomplete).
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore> {
        let dir = dir.into();
        let path = dir.join("MANIFEST");
        if !path.exists() {
            return Err(Error::exec(format!(
                "'{}' holds no checkpoint manifest; was the directory ever \
                 the target of a CHECKPOINT PIPELINE ... TO?",
                dir.display()
            )));
        }
        let payload = read_verified(&path, MANIFEST_MAGIC)?;
        let manifest = Manifest::from_bytes(&payload)?;
        Ok(CheckpointStore { dir, manifest })
    }

    /// Open the store at `dir` if one exists there, otherwise create it.
    /// Opening verifies the manifest belongs to `pipeline` (it is an
    /// error to point two pipelines at one directory) and that its
    /// fingerprint still matches `fingerprint`.
    pub fn open_or_create(
        dir: impl Into<PathBuf>,
        pipeline: &str,
        fingerprint: Vec<(String, u64)>,
        retain: usize,
    ) -> Result<CheckpointStore> {
        let dir = dir.into();
        if retain == 0 {
            // Same guard as `create`: retain 0 on an existing store would
            // prune every epoch — including the one just saved — right
            // after saving it.
            return Err(Error::plan("checkpoint store must retain at least 1 epoch"));
        }
        if !dir.join("MANIFEST").exists() {
            return CheckpointStore::create(dir, pipeline, fingerprint, retain);
        }
        let mut store = CheckpointStore::open(dir)?;
        store.verify_owner(pipeline)?;
        verify_fingerprint(
            &format!("checkpoint store '{}'", store.dir.display()),
            &store.manifest.fingerprint,
            &fingerprint,
        )?;
        store.manifest.retain = retain as u64;
        Ok(store)
    }

    /// Error unless this store belongs to `pipeline`.
    pub fn verify_owner(&self, pipeline: &str) -> Result<()> {
        if !self.manifest.pipeline.eq_ignore_ascii_case(pipeline) {
            return Err(Error::exec(format!(
                "checkpoint store '{}' belongs to pipeline '{}', not '{}'",
                self.dir.display(),
                self.manifest.pipeline,
                pipeline
            )));
        }
        Ok(())
    }

    /// The pipeline id (lowercased) this store was created for.
    pub fn pipeline(&self) -> &str {
        &self.manifest.pipeline
    }

    /// The `(relation, hash)` fingerprint recorded at creation.
    pub fn fingerprint(&self) -> &[(String, u64)] {
        &self.manifest.fingerprint
    }

    /// Restorable epochs, oldest first.
    pub fn epochs(&self) -> &[u64] {
        &self.manifest.epochs
    }

    /// The newest restorable epoch, if any checkpoint was ever saved.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.manifest.epochs.last().copied()
    }

    fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}.ckpt"))
    }

    fn write_manifest(&self) -> Result<()> {
        write_atomic(
            &self.dir.join("MANIFEST"),
            MANIFEST_MAGIC,
            &self.manifest.to_bytes(),
        )
    }

    /// Persist `checkpoint` as its epoch's file, commit it into the
    /// manifest, and prune epochs beyond the retention window. On return
    /// the checkpoint is durable — the caller may `ack_checkpoint` it.
    pub fn save(&mut self, checkpoint: &PipelineCheckpoint) -> Result<u64> {
        let epoch = checkpoint.epoch;
        if epoch == 0 {
            return Err(Error::exec(
                "checkpoint has epoch 0; only checkpoints taken by \
                 PipelineDriver::checkpoint can be persisted",
            ));
        }
        if self.manifest.epochs.contains(&epoch) {
            return Err(Error::exec(format!(
                "epoch {epoch} is already persisted in '{}'",
                self.dir.display()
            )));
        }
        if let Some(latest) = self.latest_epoch() {
            if epoch < latest {
                return Err(Error::exec(format!(
                    "epoch {epoch} is older than the latest persisted epoch \
                     {latest}; epochs must advance"
                )));
            }
        }
        let payload = EpochPayload {
            pipeline: self.manifest.pipeline.clone(),
            epoch,
            checkpoint: checkpoint.clone(),
        };
        let bytes = payload.to_bytes();
        // File first, manifest second: a kill between the two leaves an
        // unreferenced file, never a referenced hole.
        write_atomic(&self.epoch_path(epoch), CHECKPOINT_MAGIC, &bytes)?;
        self.manifest.epochs.push(epoch);
        let mut pruned = Vec::new();
        while self.manifest.epochs.len() > self.manifest.retain as usize {
            pruned.push(self.manifest.epochs.remove(0));
        }
        self.write_manifest()?;
        // Delete pruned files only after the manifest stopped referencing
        // them; a failure here strands bytes, not correctness.
        for old in pruned {
            let _ = fs::remove_file(self.epoch_path(old));
        }
        Ok(epoch)
    }

    /// Load the newest retained epoch.
    pub fn load_latest(&self) -> Result<(u64, PipelineCheckpoint)> {
        let epoch = self.latest_epoch().ok_or_else(|| {
            Error::exec(format!(
                "checkpoint store '{}' holds no epochs yet",
                self.dir.display()
            ))
        })?;
        Ok((epoch, self.load_epoch(epoch)?))
    }

    /// Load a specific retained epoch, verifying preamble, CRC, and that
    /// the file really belongs to this store's pipeline and epoch slot.
    pub fn load_epoch(&self, epoch: u64) -> Result<PipelineCheckpoint> {
        if !self.manifest.epochs.contains(&epoch) {
            return Err(Error::exec(format!(
                "epoch {epoch} is not retained in '{}' (retained: {:?})",
                self.dir.display(),
                self.manifest.epochs
            )));
        }
        let path = self.epoch_path(epoch);
        let payload = read_verified(&path, CHECKPOINT_MAGIC)?;
        let decoded = EpochPayload::from_bytes(&payload)?;
        if decoded.pipeline != self.manifest.pipeline {
            return Err(Error::exec(format!(
                "'{}' belongs to pipeline '{}', but the manifest is for '{}'",
                path.display(),
                decoded.pipeline,
                self.manifest.pipeline
            )));
        }
        if decoded.epoch != epoch || decoded.checkpoint.epoch != epoch {
            return Err(Error::exec(format!(
                "'{}' records epoch {}, expected {epoch}",
                path.display(),
                decoded.epoch
            )));
        }
        Ok(decoded.checkpoint)
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("pipeline", &self.manifest.pipeline)
            .field("epochs", &self.manifest.epochs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onesql_types::row;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("onesql_durable_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_checkpoint(epoch: u64) -> PipelineCheckpoint {
        PipelineCheckpoint {
            workers: vec![
                onesql_state::Checkpoint(Bytes::copy_from_slice(b"w0")),
                onesql_state::Checkpoint(Bytes::copy_from_slice(b"w1")),
            ],
            offsets: vec![vec![3, 5]],
            finished: vec![vec![false, true]],
            feeders: vec![Watermark(Ts(40)), Watermark::MAX],
            clock: Ts(41),
            batch_size: 128,
            pending: vec![
                vec![TimedChange {
                    ptime: Ts(41),
                    change: onesql_tvr::Change::insert(row!(1i64, "x")),
                }],
                Vec::new(),
            ],
            renderer_versions: vec![(row!(1i64), 3)],
            sink_watermark: Watermark(Ts(39)),
            output_watermark: Watermark(Ts(40)),
            events_out: 11,
            watermarks_in: 4,
            source_bytes: vec![vec![48, 80]],
            epoch,
        }
    }

    fn assert_checkpoint_eq(a: &PipelineCheckpoint, b: &PipelineCheckpoint) {
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.feeders, b.feeders);
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.renderer_versions, b.renderer_versions);
        assert_eq!(a.sink_watermark, b.sink_watermark);
        assert_eq!(a.output_watermark, b.output_watermark);
        assert_eq!(a.events_out, b.events_out);
        assert_eq!(a.watermarks_in, b.watermarks_in);
        assert_eq!(a.source_bytes, b.source_bytes);
        assert_eq!(a.epoch, b.epoch);
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let cp = sample_checkpoint(3);
        let back = PipelineCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_checkpoint_eq(&cp, &back);
    }

    #[test]
    fn store_save_load_and_retention() {
        let dir = scratch_dir("retention");
        let mut store = CheckpointStore::create(&dir, "Out", Vec::new(), 2).unwrap();
        for epoch in 1..=4 {
            store.save(&sample_checkpoint(epoch)).unwrap();
        }
        assert_eq!(store.epochs(), &[3, 4]);
        assert!(!dir.join("epoch-1.ckpt").exists(), "pruned on retention");
        assert!(dir.join("epoch-4.ckpt").exists());

        // A fresh open (the "new process") sees the same state.
        let reopened = CheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.pipeline(), "out");
        let (epoch, cp) = reopened.load_latest().unwrap();
        assert_eq!(epoch, 4);
        assert_checkpoint_eq(&cp, &sample_checkpoint(4));
        let older = reopened.load_epoch(3).unwrap();
        assert_eq!(older.epoch, 3);
        assert!(reopened.load_epoch(1).is_err(), "pruned epochs refuse");
    }

    #[test]
    fn save_refuses_duplicate_and_regressing_epochs() {
        let dir = scratch_dir("epochs");
        let mut store = CheckpointStore::create(&dir, "p", Vec::new(), 8).unwrap();
        store.save(&sample_checkpoint(2)).unwrap();
        let err = store.save(&sample_checkpoint(2)).unwrap_err().to_string();
        assert!(err.contains("already persisted"), "{err}");
        let err = store.save(&sample_checkpoint(1)).unwrap_err().to_string();
        assert!(err.contains("older than"), "{err}");
        let err = store.save(&sample_checkpoint(0)).unwrap_err().to_string();
        assert!(err.contains("epoch 0"), "{err}");
    }

    #[test]
    fn adversarial_files_error_not_panic() {
        let dir = scratch_dir("adversity");
        let mut store = CheckpointStore::create(&dir, "p", Vec::new(), 4).unwrap();
        store.save(&sample_checkpoint(1)).unwrap();
        let path = dir.join("epoch-1.ckpt");
        let pristine = fs::read(&path).unwrap();

        // Truncated: mid-preamble and mid-payload.
        fs::write(&path, &pristine[..6]).unwrap();
        let err = store.load_epoch(1).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        let err = store.load_epoch(1).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");

        // Bit flip in the payload body.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let err = store.load_epoch(1).unwrap_err().to_string();
        assert!(err.contains("CRC"), "{err}");

        // Wrong magic.
        let mut foreign = pristine.clone();
        foreign[..4].copy_from_slice(b"NOPE");
        fs::write(&path, &foreign).unwrap();
        let err = store.load_epoch(1).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");

        // Future version, and the previous one (a version 2 file: its
        // payload still carries the merge sequence numbers).
        for (byte, version) in [(0xFF, "version 255"), (2, "version 2,")] {
            let mut other = pristine.clone();
            other[4] = byte;
            fs::write(&path, &other).unwrap();
            let err = store.load_epoch(1).unwrap_err().to_string();
            assert!(err.contains(version), "{err}");
            assert!(err.contains("reads version 3"), "{err}");
        }

        // Restore intact, then break the manifest instead.
        fs::write(&path, &pristine).unwrap();
        store.load_epoch(1).unwrap();
        fs::remove_file(dir.join("MANIFEST")).unwrap();
        let err = CheckpointStore::open(&dir).unwrap_err().to_string();
        assert!(err.contains("no checkpoint manifest"), "{err}");
    }

    #[test]
    fn wrong_pipeline_detected_at_open_and_at_file_level() {
        let dir = scratch_dir("wrong-pipeline");
        let mut store = CheckpointStore::create(&dir, "alpha", Vec::new(), 4).unwrap();
        store.save(&sample_checkpoint(1)).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let err = store.verify_owner("beta").unwrap_err().to_string();
        assert!(err.contains("'alpha'") && err.contains("'beta'"), "{err}");

        // Splice an epoch file from another pipeline's store: the payload
        // identity check catches what the manifest cannot.
        let other_dir = scratch_dir("wrong-pipeline-other");
        let mut other = CheckpointStore::create(&other_dir, "beta", Vec::new(), 4).unwrap();
        other.save(&sample_checkpoint(1)).unwrap();
        fs::copy(other_dir.join("epoch-1.ckpt"), dir.join("epoch-1.ckpt")).unwrap();
        let err = store.load_epoch(1).unwrap_err().to_string();
        assert!(err.contains("belongs to pipeline 'beta'"), "{err}");
    }

    #[test]
    fn fingerprint_mismatch_names_the_relation() {
        let stored = vec![("bid".to_string(), 1u64), ("rates".to_string(), 2u64)];
        let mut current = stored.clone();
        verify_fingerprint("ctx", &stored, &current).unwrap();

        current[1].1 = 99;
        let err = verify_fingerprint("ctx", &stored, &current)
            .unwrap_err()
            .to_string();
        assert!(err.contains("'rates'"), "{err}");

        let err = verify_fingerprint("ctx", &stored, &current[..1])
            .unwrap_err()
            .to_string();
        assert!(err.contains("'rates'"), "{err}");

        let mut extra = stored.clone();
        extra.push(("person".to_string(), 7));
        let err = verify_fingerprint("ctx", &stored, &extra)
            .unwrap_err()
            .to_string();
        assert!(err.contains("'person'"), "{err}");
    }

    /// Pins the on-disk bytes of the worked example in
    /// `docs/CHECKPOINT_FORMAT.md`: if this test fails, either the codec
    /// changed (bump `FORMAT_VERSION` and regenerate the doc) or the doc
    /// is stale.
    #[test]
    fn format_golden_example_matches_docs() {
        use onesql_types::{DataType, Field};
        let dir = scratch_dir("golden");
        let fingerprint = vec![(
            "bid".to_string(),
            schema_fingerprint(&Schema::new(vec![
                Field::event_time("bidtime"),
                Field::new("price", DataType::Int),
            ])),
        )];
        let mut store = CheckpointStore::create(&dir, "out", fingerprint, 3).unwrap();
        let cp = PipelineCheckpoint {
            workers: vec![onesql_state::Checkpoint(Bytes::copy_from_slice(b"w0"))],
            offsets: vec![vec![3]],
            finished: vec![vec![false]],
            feeders: vec![Watermark(Ts(40))],
            clock: Ts(41),
            batch_size: 128,
            pending: vec![Vec::new()],
            renderer_versions: Vec::new(),
            sink_watermark: Watermark(Ts(39)),
            output_watermark: Watermark(Ts(40)),
            events_out: 2,
            watermarks_in: 1,
            source_bytes: vec![vec![24]],
            epoch: 1,
        };
        store.save(&cp).unwrap();

        let hex = |path: PathBuf| -> String {
            fs::read(path)
                .unwrap()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(
            hex(dir.join("MANIFEST")),
            "4f 53 51 4d 03 00 3e 00 00 00 00 00 00 00 fc 98 \
             54 41 03 00 00 00 00 00 00 00 6f 75 74 01 00 00 \
             00 00 00 00 00 03 00 00 00 00 00 00 00 62 69 64 \
             f3 31 e5 9b b6 e8 6b 15 03 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00"
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
        assert_eq!(
            hex(dir.join("epoch-1.ckpt")),
            "4f 53 51 43 03 00 c6 00 00 00 00 00 00 00 0e 79 \
             b2 a0 03 00 00 00 00 00 00 00 6f 75 74 01 00 00 \
             00 00 00 00 00 01 00 00 00 00 00 00 00 02 00 00 \
             00 00 00 00 00 77 30 01 00 00 00 00 00 00 00 01 \
             00 00 00 00 00 00 00 03 00 00 00 00 00 00 00 01 \
             00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 28 00 00 00 00 00 00 00 \
             29 00 00 00 00 00 00 00 80 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \
             00 00 00 00 00 00 00 00 27 00 00 00 00 00 00 00 \
             28 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 \
             18 00 00 00 00 00 00 00"
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    #[test]
    fn schema_fingerprint_tracks_shape() {
        use onesql_types::{DataType, Field};
        let a = Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("price", DataType::Int),
        ]);
        let same = Schema::new(vec![
            Field::event_time("BIDTIME"),
            Field::new("price", DataType::Int),
        ]);
        assert_eq!(
            schema_fingerprint(&a),
            schema_fingerprint(&same),
            "names are case-folded"
        );
        let renamed = Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("amount", DataType::Int),
        ]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&renamed));
        let retyped = Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("price", DataType::Float),
        ]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&retyped));
        let no_event_time = Schema::new(vec![
            Field::new("bidtime", DataType::Timestamp),
            Field::new("price", DataType::Int),
        ]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&no_event_time));
    }
}
