//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the API this workspace uses: [`Bytes`] (cheaply
//! clonable immutable buffer), [`BytesMut`] (append buffer), and the
//! little-endian accessors of [`Buf`] / [`BufMut`]. Backed by
//! `Arc<Vec<u8>>` / `Vec<u8>` rather than the real crate's vtable
//! machinery, so that, as in the real crate, freezing a buffer moves its
//! bytes instead of copying them; semantics relevant to the checkpoint
//! codec are identical.

#![forbid(unsafe_code)]
// Mirrors the real crate's contract: `get_*` panic on underflow, so the
// unwraps below are the documented behaviour, not an oversight.
#![allow(clippy::unwrap_used)]

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes(Arc::new(Vec::new()))
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(Arc::new(data.to_vec()))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copy out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// A new buffer holding a copy of the given subrange. (The real crate
    /// shares the allocation; a copy is semantically equivalent here.)
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.0.len(),
        };
        Bytes::copy_from_slice(&self.0[start..end])
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's allocation, trimmed to its length; no byte is
    /// copied.
    fn from(mut v: Vec<u8>) -> Bytes {
        v.shrink_to_fit();
        Bytes(Arc::new(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Write-side accessors (little-endian fixed-width plus raw slices).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read-side accessors over a shrinking slice.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Consume and return the next `n` bytes. Panics if unavailable
    /// (callers bounds-check first, as the real crate requires).
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }

    /// Read a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_i64_le(-42);
        buf.put_u64_le(99);
        buf.put_f64_le(2.5);
        buf.put_slice(b"xyz");
        let frozen = buf.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i64_le(), -42);
        assert_eq!(r.get_u64_le(), 99);
        assert_eq!(r.get_f64_le(), 2.5);
        assert_eq!(r.take_bytes(3), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_equality_and_clone() {
        let a = Bytes::copy_from_slice(b"abc");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), b"abc".to_vec());
        assert_eq!(a.len(), 3);
    }
}
