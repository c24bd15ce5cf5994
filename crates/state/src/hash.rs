//! The engine's one hasher for in-memory keyed tables.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Multiply-rotate hashing (FxHash's scheme): a multiply per word where
/// SipHash runs rounds. Keys come from the input, so a table starts from a
/// seed drawn once per table ([`MulRotate::random`]) and the full product
/// is folded at the end, making the low bits a table indexes by depend on
/// every bit. It is its own builder: the seed is the starting state.
///
/// The integer writes a `[Value]` key is made of — a length, a type tag,
/// an `i64` — each cost one multiply; only strings go through the
/// byte-chunk [`Hasher::write`].
#[derive(Debug, Clone, Copy)]
pub struct MulRotate(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl MulRotate {
    /// A hasher starting from `seed`: tables built with equal seeds place
    /// equal keys alike.
    pub fn with_seed(seed: u64) -> MulRotate {
        MulRotate(seed)
    }

    /// A hasher starting from a seed drawn from the process's random
    /// state.
    pub fn random() -> MulRotate {
        MulRotate(RandomState::new().hash_one(0u8))
    }
}

impl Hasher for MulRotate {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(K);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

impl BuildHasher for MulRotate {
    type Hasher = MulRotate;

    fn build_hasher(&self) -> MulRotate {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::{row, Value};

    #[test]
    fn a_row_hashes_as_the_values_it_borrows() {
        let seed = MulRotate::with_seed(7);
        let row = row!(3i64, "w", Value::Null);
        let values: &[Value] = std::borrow::Borrow::borrow(&row);
        assert_eq!(seed.hash_one(&row), seed.hash_one(values));
        assert_ne!(
            seed.hash_one(&row),
            seed.hash_one(row!(4i64, "w", Value::Null))
        );
        assert_ne!(
            MulRotate::with_seed(8).hash_one(&row),
            seed.hash_one(&row),
            "the seed moves every hash"
        );
    }
}
