//! A compact, self-describing binary codec for state checkpoints.
//!
//! Checkpoints must round-trip exactly and be stable across process
//! restarts, so the codec is hand-written rather than relying on an
//! in-memory representation. Integers are fixed-width little-endian;
//! variable-length data is length-prefixed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use onesql_time::Watermark;
use onesql_tvr::{Change, TimedChange};
use onesql_types::{Duration, Error, Result, Row, Ts, Value};

// CRC-32 (IEEE 802.3, the zlib polynomial), sliced by eight: table `k`
// advances a byte's contribution through `k` more bytes, so eight bytes
// fold in at once instead of one after the other. Generated at compile
// time. Durable checkpoint files protect their payload with it, the same
// way the network frames in `onesql-connect` protect theirs.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, used to detect bit-flips in persisted
/// checkpoint files before any decoding is attempted.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Types that can be encoded into / decoded from checkpoint bytes.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode a value from the front of `input`, consuming its bytes.
    fn decode(input: &mut Decoder<'_>) -> Result<Self>;

    /// The number of bytes [`Codec::encode`] appends for `self`: what a
    /// buffer is sized by before encoding, and how a state counts its
    /// bytes without building them. The default encodes into a scratch
    /// buffer; the types checkpoints are made of count directly.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode from a complete buffer, requiring all bytes be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(bytes);
        let v = Self::decode(&mut d)?;
        if !d.is_empty() {
            return Err(Error::exec(format!(
                "checkpoint decode left {} trailing bytes",
                d.remaining()
            )));
        }
        Ok(v)
    }
}

/// A cursor over checkpoint bytes with bounds-checked reads.
pub struct Decoder<'a> {
    input: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Start decoding at the beginning of `input`.
    pub fn new(input: &'a [u8]) -> Decoder<'a> {
        Decoder { input }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// True when all bytes are consumed.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.input.len() < n {
            return Err(Error::exec(format!(
                "checkpoint truncated: needed {n} bytes, have {}",
                self.input.len()
            )));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn read_i64(&mut self) -> Result<i64> {
        let mut b = self.take(8)?;
        Ok(b.get_i64_le())
    }

    fn read_u64(&mut self) -> Result<u64> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    fn read_f64(&mut self) -> Result<f64> {
        let mut b = self.take(8)?;
        Ok(b.get_f64_le())
    }

    fn read_len(&mut self) -> Result<usize> {
        let n = self.read_u64()?;
        usize::try_from(n).map_err(|_| Error::exec("checkpoint length overflows usize"))
    }
}

impl Codec for i64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        input.read_i64()
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        input.read_u64()
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        match input.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::exec(format!("invalid bool byte {b} in checkpoint"))),
        }
    }
}

impl Codec for Ts {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(self.millis());
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(Ts(input.read_i64()?))
    }
}

impl Codec for Duration {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(self.millis());
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(Duration(input.read_i64()?))
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let len = input.read_len()?;
        let bytes = input.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::exec("invalid UTF-8 in checkpoint string"))
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_TS: u8 = 5;
const TAG_INTERVAL: u8 = 6;

impl Codec for Value {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                b.encode(buf);
            }
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                i.encode(buf);
            }
            Value::Float(f) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64_le(*f);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u64_le(s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
            Value::Ts(t) => {
                buf.put_u8(TAG_TS);
                t.encode(buf);
            }
            Value::Interval(d) => {
                buf.put_u8(TAG_INTERVAL);
                d.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Str(s) => 8 + s.len(),
            Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 8,
        }
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(match input.read_u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(bool::decode(input)?),
            TAG_INT => Value::Int(input.read_i64()?),
            TAG_FLOAT => Value::Float(input.read_f64()?),
            TAG_STR => {
                let len = input.read_len()?;
                let bytes = input.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| Error::exec("invalid UTF-8 in checkpoint string"))?;
                Value::str(s)
            }
            TAG_TS => Value::Ts(Ts::decode(input)?),
            TAG_INTERVAL => Value::Interval(Duration::decode(input)?),
            tag => {
                return Err(Error::exec(format!(
                    "unknown value tag {tag} in checkpoint"
                )))
            }
        })
    }
}

impl Codec for Row {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.arity() as u64);
        for v in self.values() {
            v.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        8 + self.values().iter().map(Codec::encoded_len).sum::<usize>()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let n = input.read_len()?;
        let mut values = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            values.push(Value::decode(input)?);
        }
        Ok(Row::new(values))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        for v in self {
            v.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let n = input.read_len()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        match input.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            b => Err(Error::exec(format!("invalid Option tag {b} in checkpoint"))),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec, D: Codec> Codec for (A, B, C, D) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len() + self.3.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok((
            A::decode(input)?,
            B::decode(input)?,
            C::decode(input)?,
            D::decode(input)?,
        ))
    }
}

impl Codec for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let len = input.read_len()?;
        Ok(Bytes::copy_from_slice(input.take(len)?))
    }
}

impl Codec for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        input.read_u8()
    }
}

impl Codec for Watermark {
    fn encode(&self, buf: &mut BytesMut) {
        self.ts().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(Watermark(Ts::decode(input)?))
    }
}

impl Codec for Change {
    fn encode(&self, buf: &mut BytesMut) {
        self.diff.encode(buf);
        self.row.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.row.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        let diff = i64::decode(input)?;
        let row = Row::decode(input)?;
        if diff == 0 {
            return Err(Error::exec(
                "zero-diff change in checkpoint (consolidated streams never hold one)",
            ));
        }
        Ok(Change { row, diff })
    }
}

impl Codec for TimedChange {
    fn encode(&self, buf: &mut BytesMut) {
        self.ptime.encode(buf);
        self.change.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.change.encoded_len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(TimedChange {
            ptime: Ts::decode(input)?,
            change: Change::decode(input)?,
        })
    }
}

impl Codec for crate::keyed::Checkpoint {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.0.len()
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self> {
        Ok(crate::keyed::Checkpoint(Bytes::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(v.encoded_len(), bytes.len(), "{v:?}");
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(0i64);
        round_trip(i64::MIN);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(Ts::hm(8, 7));
        round_trip(Duration::from_minutes(10));
        round_trip(String::from("héllo ✓"));
        round_trip(String::new());
    }

    #[test]
    fn value_round_trips() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Int(-42));
        round_trip(Value::Float(2.5));
        round_trip(Value::Float(f64::NEG_INFINITY));
        round_trip(Value::str("auction item"));
        round_trip(Value::Ts(Ts::hm(8, 13)));
        round_trip(Value::Interval(Duration::from_minutes(6)));
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let v = Value::Float(f64::NAN);
        let back = Value::from_bytes(&v.to_bytes()).unwrap();
        match back {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn row_and_containers_round_trip() {
        round_trip(row!(1i64, "x", Ts::hm(8, 0)));
        round_trip(Row::empty());
        round_trip(vec![row!(1i64), row!(2i64)]);
        round_trip(Option::<Row>::None);
        round_trip(Some(row!(3i64)));
        round_trip((Ts::hm(1, 0), row!(1i64)));
        round_trip((1i64, 2i64, String::from("three")));
        round_trip((
            true,
            7u8,
            Duration::from_minutes(1),
            Bytes::copy_from_slice(b"four"),
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = row!(1i64, 2i64).to_bytes();
        assert!(Row::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 5i64.to_bytes().to_vec();
        bytes.push(0xFF);
        assert!(i64::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_detected() {
        assert!(Value::from_bytes(&[99]).is_err());
        assert!(bool::from_bytes(&[7]).is_err());
    }

    #[test]
    fn stream_types_round_trip() {
        round_trip(Watermark(Ts::hm(8, 13)));
        round_trip(Watermark::MIN);
        round_trip(Watermark::MAX);
        round_trip(onesql_tvr::Change::insert(row!(1i64, "x")));
        round_trip(onesql_tvr::Change::retract(row!(2i64)));
        round_trip(TimedChange {
            ptime: Ts::hm(8, 7),
            change: onesql_tvr::Change::insert(row!(3i64)),
        });
        round_trip(crate::keyed::Checkpoint(Bytes::copy_from_slice(b"state")));
    }

    #[test]
    fn zero_diff_change_rejected() {
        let mut buf = BytesMut::new();
        0i64.encode(&mut buf);
        row!(1i64).encode(&mut buf);
        assert!(Change::from_bytes(&buf.freeze()).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A single flipped bit changes the checksum.
        assert_ne!(crc32(b"checkpoint"), crc32(b"cheakpoint"));
        // Every length around the eight-byte stride agrees with the
        // byte-at-a-time definition.
        let bytes: Vec<u8> = (0..97u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..bytes.len() {
            let mut crc = u32::MAX;
            for &b in &bytes[..len] {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&bytes[..len]), !crc, "length {len}");
        }
    }
}
