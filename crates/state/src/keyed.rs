//! Keyed operator state with checkpoint/restore.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use onesql_types::{Result, Row};

use crate::codec::{Codec, Decoder};

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

/// Ordered per-key state: the primitive all stateful operators build on.
///
/// Keys are [`Row`]s (grouping keys, join keys, window keys); values are any
/// [`Codec`] type. Iteration is in key order, making execution
/// deterministic. This is the in-memory stand-in for the paper's
/// RocksDB-backed keyed state (Appendix B.2.1).
#[derive(Debug, Clone, Default)]
pub struct KeyedState<V> {
    map: BTreeMap<Row, V>,
}

impl<V> KeyedState<V> {
    /// Empty state.
    pub fn new() -> KeyedState<V> {
        KeyedState {
            map: BTreeMap::new(),
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
    /// `&[Value]` a row borrows as, so a hot path probes with a reused
    /// buffer and builds a key row only for a key it has to insert.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        Row: Borrow<Q>,
        Q: Ord + ?Sized,
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
        Q: Ord + ?Sized,
    {
        self.map.remove(key)
    }

    /// Drop all keys for which `predicate` returns true; returns how many
    /// were freed.
    pub fn retire_where(&mut self, mut predicate: impl FnMut(&Row, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, v| !predicate(k, v));
        before - self.map.len()
    }

    /// Iterate `(key, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &V)> {
        self.map.iter()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Row> {
        self.map.keys()
    }

    /// Remove and return all entries, leaving the state empty.
    pub fn drain(&mut self) -> Vec<(Row, V)> {
        std::mem::take(&mut self.map).into_iter().collect()
    }

    /// Clear all state.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl<V: Codec> KeyedState<V> {
    /// Serialize the full state into a [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.map.len() as u64);
        for (k, v) in &self.map {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        Checkpoint(buf.freeze())
    }

    /// Restore state exactly as of a checkpoint, replacing current contents.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let mut d = Decoder::new(&checkpoint.0);
        let n = u64::decode(&mut d)? as usize;
        let mut map = BTreeMap::new();
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
            encoded_bytes: self.checkpoint().size_bytes(),
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
    fn iteration_is_key_ordered() {
        let mut s: KeyedState<i64> = KeyedState::new();
        s.put(row!(3i64), 0);
        s.put(row!(1i64), 0);
        s.put(row!(2i64), 0);
        let keys: Vec<Row> = s.keys().cloned().collect();
        assert_eq!(keys, vec![row!(1i64), row!(2i64), row!(3i64)]);
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
        s.retire_where(|_, _| true);
        let m2 = s.metrics();
        assert_eq!(m2.keys, 0);
        assert!(m2.encoded_bytes < m1.encoded_bytes);
    }

    #[test]
    fn drain_empties_state() {
        let mut s: KeyedState<i64> = KeyedState::new();
        s.put(row!(1i64), 1);
        s.put(row!(2i64), 2);
        let all = s.drain();
        assert_eq!(all.len(), 2);
        assert!(s.is_empty());
    }
}
