//! Stable hashing: partition routing and schema fingerprints.
//!
//! The paper's engines scale streaming SQL by hash-partitioning keyed
//! operators across workers (Appendix B). Routing rows that can ever
//! combine (same group, same join key) to the same worker — the
//! *partition-alignment* property — needs the right key, which the plan
//! picks ([`onesql_plan::routing()`]), and only survives a restart if the
//! hash does, so the pipeline driver hashes each row's key with
//! [`partition_of`] over a [`StableHasher`], never `DefaultHasher`.

use std::hash::{Hash, Hasher};

use onesql_types::Value;

/// A seeded FNV-1a hasher with a **stable** output: the same value hashes
/// to the same partition in every process, on every run.
///
/// `DefaultHasher` deliberately randomizes per process (HashDoS hardening),
/// which is poison for partition routing — a checkpoint written by one
/// process would replay rows into different partitions after restart,
/// silently corrupting keyed state. Partitioning keys come from the data,
/// not from untrusted map keys, so stability wins here.
///
/// Multi-byte writes fold little-endian so the result is also
/// architecture-independent.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The fixed seed behind [`partition_of`]; folding it
/// into the initial state keeps routing distinct from other FNV uses.
const PARTITION_SEED: u64 = 0x0165_667b_19e3_779f;

impl StableHasher {
    /// A hasher seeded with `seed` (equal seeds give equal hash functions).
    pub fn seeded(seed: u64) -> StableHasher {
        let mut h = StableHasher { state: FNV_OFFSET };
        h.write_u64(seed);
        h
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::seeded(PARTITION_SEED)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Fixed-width writes go through little-endian bytes explicitly: the
    // std defaults use native endianness, which would make partition
    // assignment differ across architectures.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Hash a value to a partition index. Stable across processes and
/// restarts (see [`StableHasher`]): the routing recorded in a checkpoint is
/// the routing a restarted pipeline reproduces.
pub fn partition_of(value: &Value, partitions: usize) -> usize {
    let mut hasher = StableHasher::default();
    value.hash(&mut hasher);
    (hasher.finish() as usize) % partitions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_is_stable() {
        let v = Value::Int(42);
        assert_eq!(partition_of(&v, 4), partition_of(&v, 4));
    }

    #[test]
    fn partition_of_matches_golden_values() {
        // Pinned outputs: if these change, checkpoints written by earlier
        // builds would replay into the wrong partitions after an upgrade.
        // Changing the hash is a checkpoint-format break and must be
        // deliberate.
        assert_eq!(partition_of(&Value::Int(42), 4), 0);
        assert_eq!(partition_of(&Value::Int(7), 4), 1);
        assert_eq!(partition_of(&Value::str("teapot"), 4), 2);
        assert_eq!(partition_of(&Value::Null, 4), 0);
    }

    #[test]
    fn stable_hasher_is_seed_sensitive_and_deterministic() {
        use std::hash::{Hash, Hasher};
        let hash_with = |seed: u64, v: &Value| {
            let mut h = StableHasher::seeded(seed);
            v.hash(&mut h);
            h.finish()
        };
        let v = Value::str("auction-17");
        assert_eq!(hash_with(1, &v), hash_with(1, &v));
        assert_ne!(hash_with(1, &v), hash_with(2, &v));
    }

    #[test]
    fn partition_of_spreads_keys() {
        // 1000 distinct int keys over 8 partitions: every partition gets a
        // reasonable share (FNV-1a mixes small ints adequately).
        let mut counts = [0usize; 8];
        for i in 0..1000i64 {
            counts[partition_of(&Value::Int(i), 8)] += 1;
        }
        for (p, &n) in counts.iter().enumerate() {
            assert!(n > 50, "partition {p} starved: {counts:?}");
        }
    }
}
