//! Keyed operator state with checkpoint/restore.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use bytes::{BufMut, Bytes, BytesMut};

use onesql_types::{Result, Row};

use crate::codec::{Codec, Decoder};
use crate::hash::MulRotate;

/// A whole-operator state snapshot, as produced by
/// [`KeyedState::checkpoint`]. Checkpoints are plain bytes so they can be
/// persisted, shipped, or diffed by size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint(pub Bytes);

impl Checkpoint {
    /// Size in bytes (the state-size benchmarks report this).
    pub fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

/// Size/occupancy metrics for a state instance, used by the paper-motivated
/// state benchmarks (B3 in `DESIGN.md`): "state for an ongoing aggregation
/// can be freed when the watermark is sufficiently advanced" (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateMetrics {
    /// Number of keys currently held.
    pub keys: usize,
    /// Encoded size of the full state in bytes.
    pub encoded_bytes: usize,
}

/// Per-key state: the primitive all stateful operators build on.
///
/// Keys are [`Row`]s (grouping keys, join keys, window keys); values are any
/// [`Codec`] type. The table is hashed ([`MulRotate`], seeded per table),
/// so a change costs one probe whatever the number of keys. Key order is
/// produced only where it is observed: [`KeyedState::checkpoint`] writes
/// the entries sorted by key, so equal contents give equal bytes whatever
/// the seed or the insertion order. This is the in-memory stand-in for the
/// paper's RocksDB-backed keyed state (Appendix B.2.1).
#[derive(Debug, Clone)]
pub struct KeyedState<V> {
    map: HashMap<Row, V, MulRotate>,
}

impl<V> Default for KeyedState<V> {
    fn default() -> KeyedState<V> {
        KeyedState::new()
    }
}

impl<V> KeyedState<V> {
    /// Empty state, hashed from a random seed.
    pub fn new() -> KeyedState<V> {
        KeyedState::with_hasher(MulRotate::random())
    }

    /// Empty state hashed by `hasher`.
    pub fn with_hasher(hasher: MulRotate) -> KeyedState<V> {
        KeyedState {
            map: HashMap::with_hasher(hasher),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Borrow the value for `key`.
    pub fn get(&self, key: &Row) -> Option<&V> {
        self.map.get(key)
    }

    /// Mutably borrow the value for `key`: a `&Row`, or the bare
    /// `&[Value]` a row borrows as (and hashes as), so a hot path probes
    /// with a reused buffer and builds a key row only for a key it has to
    /// insert.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        Row: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get_mut(key)
    }

    /// Insert or replace; returns the previous value.
    pub fn put(&mut self, key: Row, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Get the value for `key`, inserting a default first if absent.
    pub fn entry_or_default(&mut self, key: Row) -> &mut V
    where
        V: Default,
    {
        self.map.entry(key).or_default()
    }

    /// Get the value for `key`, inserting `fresh()` first if absent.
    pub fn entry_or_insert_with(&mut self, key: Row, fresh: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(fresh)
    }

    /// Remove a key (a `&Row` or its `&[Value]`, as for
    /// [`KeyedState::get_mut`]). Freeing state this way when watermarks
    /// pass is the linchpin of bounded-state streaming execution (§5,
    /// lesson 1).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        Row: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(key)
    }

    /// Drop all keys for which `predicate` returns true; returns how many
    /// were freed. The keys are visited in no particular order.
    pub fn retire_where(&mut self, mut predicate: impl FnMut(&Row, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, v| !predicate(k, v));
        before - self.map.len()
    }

    /// Iterate `(key, value)` in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &V)> {
        self.map.iter()
    }
}

impl<V: Codec> KeyedState<V> {
    /// Serialize the full state into a [`Checkpoint`], entries in key
    /// order, into a buffer sized for it up front.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut entries: Vec<(&Row, &V)> = self.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u64_le(entries.len() as u64);
        for (k, v) in entries {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        Checkpoint(buf.freeze())
    }

    /// The size of [`KeyedState::checkpoint`]'s bytes, counted without
    /// sorting or encoding anything.
    fn encoded_len(&self) -> usize {
        let entries: usize = self
            .map
            .iter()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum();
        8 + entries
    }

    /// Restore state exactly as of a checkpoint, replacing current contents.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let mut d = Decoder::new(&checkpoint.0);
        let n = u64::decode(&mut d)? as usize;
        let mut map = HashMap::with_hasher(*self.map.hasher());
        for _ in 0..n {
            let k = Row::decode(&mut d)?;
            let v = V::decode(&mut d)?;
            map.insert(k, v);
        }
        if !d.is_empty() {
            return Err(onesql_types::Error::exec(
                "checkpoint restore left trailing bytes",
            ));
        }
        self.map = map;
        Ok(())
    }

    /// Current size metrics.
    pub fn metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.map.len(),
            encoded_bytes: self.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    #[test]
    fn basic_kv_operations() {
        let mut s: KeyedState<i64> = KeyedState::new();
        assert!(s.is_empty());
        s.put(row!("a"), 1);
        s.put(row!("b"), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&row!("a")), Some(&1));
        *s.get_mut(&row!("a")).unwrap() += 10;
        assert_eq!(s.get(&row!("a")), Some(&11));
        assert_eq!(s.remove(&row!("b")), Some(2));
        assert_eq!(s.get(&row!("b")), None);
    }

    #[test]
    fn probes_by_borrowed_values() {
        use onesql_types::Value;
        let mut s: KeyedState<i64> = KeyedState::new();
        let key = [Value::Int(7), Value::str("w")];
        assert_eq!(s.get_mut(&key[..]), None);
        *s.entry_or_insert_with(Row::new(key.to_vec()), || 40) += 1;
        *s.entry_or_insert_with(Row::new(key.to_vec()), || 0) += 1;
        assert_eq!(s.get_mut(&key[..]), Some(&mut 42));
        assert_eq!(s.get(&row!(7i64, "w")), Some(&42));
        assert_eq!(s.remove(&key[..]), Some(42));
        assert!(s.is_empty());
    }

    #[test]
    fn entry_or_default() {
        let mut s: KeyedState<Vec<Row>> = KeyedState::new();
        s.entry_or_default(row!(1i64)).push(row!(1i64, "x"));
        s.entry_or_default(row!(1i64)).push(row!(1i64, "y"));
        assert_eq!(s.get(&row!(1i64)).unwrap().len(), 2);
    }

    #[test]
    fn checkpoint_is_key_ordered_whatever_the_seed() {
        let mut ordered: KeyedState<i64> = KeyedState::with_hasher(MulRotate::with_seed(1));
        let mut reversed: KeyedState<i64> = KeyedState::with_hasher(MulRotate::with_seed(2));
        for i in 0..100i64 {
            ordered.put(row!(i), i);
            reversed.put(row!(99 - i), 99 - i);
        }
        let cp = ordered.checkpoint();
        assert_eq!(cp, reversed.checkpoint());
        let mut d = Decoder::new(&cp.0);
        assert_eq!(u64::decode(&mut d).unwrap(), 100);
        for i in 0..100i64 {
            assert_eq!(Row::decode(&mut d).unwrap(), row!(i));
            assert_eq!(i64::decode(&mut d).unwrap(), i);
        }
    }

    #[test]
    fn retire_where_frees_state() {
        let mut s: KeyedState<i64> = KeyedState::new();
        for i in 0..10 {
            s.put(row!(i), i);
        }
        let freed = s.retire_where(|_, v| *v < 7);
        assert_eq!(freed, 7);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut s: KeyedState<Vec<Row>> = KeyedState::new();
        s.entry_or_default(row!("k1")).push(row!(1i64, 2i64));
        s.entry_or_default(row!("k2")).push(row!(3i64));
        let cp = s.checkpoint();
        assert!(cp.size_bytes() > 0);

        let mut restored: KeyedState<Vec<Row>> = KeyedState::new();
        restored.put(row!("junk"), vec![]); // replaced by restore
        restored.restore(&cp).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(&row!("k1")), s.get(&row!("k1")));
        assert_eq!(restored.get(&row!("junk")), None);
    }

    #[test]
    fn corrupt_checkpoint_rejected() {
        let mut s: KeyedState<i64> = KeyedState::new();
        s.put(row!(1i64), 42);
        let cp = s.checkpoint();
        let truncated = Checkpoint(cp.0.slice(..cp.0.len() - 1));
        let mut t: KeyedState<i64> = KeyedState::new();
        assert!(t.restore(&truncated).is_err());
    }

    #[test]
    fn metrics_track_growth_and_cleanup() {
        let mut s: KeyedState<i64> = KeyedState::new();
        for i in 0..100 {
            s.put(row!(i), i);
        }
        let m1 = s.metrics();
        assert_eq!(m1.keys, 100);
        assert_eq!(m1.encoded_bytes, s.checkpoint().size_bytes());
        s.retire_where(|_, _| true);
        let m2 = s.metrics();
        assert_eq!(m2.keys, 0);
        assert!(m2.encoded_bytes < m1.encoded_bytes);
    }
}
