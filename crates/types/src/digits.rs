//! Byte-level text encoders for integers, clock timestamps and intervals.
//!
//! Each encoder writes into a small stack buffer, right to left and two
//! digits at a time, without `core::fmt`, and hands back an [`Encoded`]: the bytes for a
//! sink's output buffer, or a `&str` for a formatter. The `Display` forms
//! of [`Ts`], [`Duration`] and [`crate::Value`] and the text sinks all
//! write through these, so there is one encoder per type.

use crate::temporal::{Duration, Ts, MILLIS_PER_HOUR, MILLIS_PER_MINUTE, MILLIS_PER_SECOND};

/// `"00" "01" … "99"`: the two-digit lookup table.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The widest encoding there is: `-2562047788015:12:55.807`, one past the
/// `-inf` sentinel.
const WIDEST: usize = 24;

/// An encoded value: at most 24 ASCII bytes, held on the stack. Encoders
/// write it from the right, so no digit is moved once written.
#[derive(Clone, Copy)]
pub struct Encoded {
    buf: [u8; WIDEST],
    start: usize,
}

impl Encoded {
    #[inline]
    fn new() -> Encoded {
        Encoded {
            buf: [0; WIDEST],
            start: WIDEST,
        }
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// The encoded text.
    pub fn as_str(&self) -> &str {
        // Only ASCII digits, signs, `:`, `.` and letters are ever written.
        std::str::from_utf8(self.as_bytes()).unwrap_or_default()
    }

    #[inline]
    fn prepend(&mut self, bytes: &[u8]) {
        self.start -= bytes.len();
        self.buf[self.start..self.start + bytes.len()].copy_from_slice(bytes);
    }

    /// Prepend `n` in decimal, zero-padded on the left to `width` digits.
    #[inline]
    fn prepend_digits(&mut self, mut n: u64, width: usize) {
        let end = self.start;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            self.start -= 2;
            self.buf[self.start] = PAIRS[pair];
            self.buf[self.start + 1] = PAIRS[pair + 1];
        }
        if n >= 10 {
            let pair = n as usize * 2;
            self.start -= 2;
            self.buf[self.start] = PAIRS[pair];
            self.buf[self.start + 1] = PAIRS[pair + 1];
        } else {
            self.start -= 1;
            self.buf[self.start] = b'0' + n as u8;
        }
        while end - self.start < width {
            self.start -= 1;
            self.buf[self.start] = b'0';
        }
    }
}

/// `n` in decimal.
#[inline]
pub fn u64(n: u64) -> Encoded {
    let mut out = Encoded::new();
    out.prepend_digits(n, 1);
    out
}

/// `n` in decimal, `-` first when negative.
#[inline]
pub fn i64(n: i64) -> Encoded {
    let mut out = Encoded::new();
    out.prepend_digits(n.unsigned_abs(), 1);
    if n < 0 {
        out.prepend(b"-");
    }
    out
}

/// `ts` as a clock reading: `H:MM` when it is a whole number of minutes
/// (as in all of the paper's examples), otherwise `H:MM:SS.mmm`; `-`
/// first when negative, and `+inf` / `-inf` for the two sentinels.
#[inline]
pub fn clock(ts: Ts) -> Encoded {
    let mut out = Encoded::new();
    if ts == Ts::MAX || ts == Ts::MIN {
        out.prepend(if ts == Ts::MAX { b"+inf" } else { b"-inf" });
        return out;
    }
    let ms = ts.0.unsigned_abs();
    let (hour, minute) = (MILLIS_PER_HOUR as u64, MILLIS_PER_MINUTE as u64);
    let rem_ms = ms % minute;
    if rem_ms != 0 {
        out.prepend_digits(rem_ms % MILLIS_PER_SECOND as u64, 3);
        out.prepend(b".");
        out.prepend_digits(rem_ms / MILLIS_PER_SECOND as u64, 2);
        out.prepend(b":");
    }
    out.prepend_digits(ms % hour / minute, 2);
    out.prepend(b":");
    out.prepend_digits(ms / hour, 1);
    if ts.0 < 0 {
        out.prepend(b"-");
    }
    out
}

/// `d` compactly: whole hours as `2h`, else whole minutes as `10m`, else
/// whole seconds as `90s`, else milliseconds as `250ms`.
#[inline]
pub fn interval(d: Duration) -> Encoded {
    let ms = d.0;
    let (n, unit): (i64, &[u8]) = if ms % MILLIS_PER_HOUR == 0 {
        (ms / MILLIS_PER_HOUR, b"h")
    } else if ms % MILLIS_PER_MINUTE == 0 {
        (ms / MILLIS_PER_MINUTE, b"m")
    } else if ms % MILLIS_PER_SECOND == 0 {
        (ms / MILLIS_PER_SECOND, b"s")
    } else {
        (ms, b"ms")
    };
    let mut out = Encoded::new();
    out.prepend(unit);
    out.prepend_digits(n.unsigned_abs(), 1);
    if n < 0 {
        out.prepend(b"-");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoders these replaced: a digit at a time through
    /// `fmt::Write::write_char`, and `core::fmt` for the rest.
    mod old {
        use std::fmt::{self, Write};

        use crate::temporal::{Duration, Ts, MILLIS_PER_HOUR, MILLIS_PER_MINUTE};

        fn write_digits(out: &mut String, mut n: u64, width: usize) -> fmt::Result {
            let mut digits = [b'0'; 20];
            let mut first = digits.len();
            loop {
                first -= 1;
                digits[first] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            let first = first.min(digits.len().saturating_sub(width));
            digits[first..]
                .iter()
                .try_for_each(|&digit| out.write_char(digit as char))
        }

        pub fn clock(ts: Ts) -> String {
            let mut out = String::new();
            if ts == Ts::MAX {
                return "+inf".into();
            }
            if ts == Ts::MIN {
                return "-inf".into();
            }
            if ts.0 < 0 {
                out.push('-');
            }
            let ms = ts.0.unsigned_abs();
            let (hour, minute) = (MILLIS_PER_HOUR as u64, MILLIS_PER_MINUTE as u64);
            let _ = write_digits(&mut out, ms / hour, 1);
            out.push(':');
            let _ = write_digits(&mut out, ms % hour / minute, 2);
            let rem_ms = ms % minute;
            if rem_ms != 0 {
                out.push(':');
                let _ = write_digits(&mut out, rem_ms / 1_000, 2);
                out.push('.');
                let _ = write_digits(&mut out, rem_ms % 1_000, 3);
            }
            out
        }

        pub fn interval(d: Duration) -> String {
            let ms = d.0;
            if ms % 3_600_000 == 0 {
                format!("{}h", ms / 3_600_000)
            } else if ms % 60_000 == 0 {
                format!("{}m", ms / 60_000)
            } else if ms % 1_000 == 0 {
                format!("{}s", ms / 1_000)
            } else {
                format!("{ms}ms")
            }
        }
    }

    fn arb_ts() -> impl Strategy<Value = Ts> {
        prop_oneof![
            any::<i64>().prop_map(Ts),
            // Whole minutes and sub-second remainders, both signs.
            (-100_000i64..100_000).prop_map(Ts::from_minutes),
            (-200_000i64..200_000).prop_map(Ts),
            Just(Ts::MAX),
            Just(Ts::MIN),
            Just(Ts(i64::MIN + 1)),
            Just(Ts(i64::MAX - 1)),
        ]
    }

    proptest! {
        #[test]
        fn clock_is_the_old_digit_path(ts in arb_ts()) {
            let old = old::clock(ts);
            prop_assert_eq!(clock(ts).as_str(), old.as_str());
            prop_assert_eq!(ts.to_string(), old);
        }

        #[test]
        fn integers_are_cores(n in any::<i64>(), u in any::<u64>()) {
            prop_assert_eq!(i64(n).as_str(), n.to_string());
            prop_assert_eq!(u64(u).as_str(), u.to_string());
            let d = Duration(n);
            prop_assert_eq!(interval(d).as_str(), old::interval(d));
            prop_assert_eq!(d.to_string(), old::interval(d));
        }
    }

    #[test]
    fn extremes_fit() {
        assert_eq!(i64(i64::MIN).as_str(), "-9223372036854775808");
        assert_eq!(u64(u64::MAX).as_str(), "18446744073709551615");
        assert_eq!(clock(Ts(i64::MIN + 1)).as_str(), "-2562047788015:12:55.807");
        assert_eq!(clock(Ts(-61_001)).as_str(), "-0:01:01.001");
        assert_eq!(
            interval(Duration(i64::MIN + 1)).as_str(),
            "-9223372036854775807ms"
        );
        assert_eq!(u64(0).as_str(), "0");
        assert_eq!(u64(10).as_str(), "10");
        assert_eq!(u64(100).as_str(), "100");
    }
}
