//! Watermark generators: strategies for deriving watermarks from a stream
//! of observed event timestamps.
//!
//! The paper (§3.2.2) treats the watermark as an input to the system —
//! "deterministically or heuristically defined". These generators cover the
//! common heuristics used by the open-source engines the paper draws on:
//! perfectly ordered input ([`AscendingWatermarks`]) and bounded skew
//! ([`BoundedOutOfOrderness`], the "slack time" the paper mentions).
//! Punctuated (source-provided) watermarks — used by the paper's own example
//! timeline, where `WM -> 8:05` events appear inline — need no generator:
//! the source injects them directly.

use onesql_types::{Duration, Ts};

use crate::watermark::Watermark;

/// A strategy that turns observed event timestamps into watermarks.
pub trait WatermarkGenerator: Send {
    /// Observe an event timestamp as it arrives.
    fn on_event(&mut self, ts: Ts);

    /// The current watermark implied by everything observed so far.
    fn current(&self) -> Watermark;
}

/// For sources known to be in event-time order: the watermark trails the
/// maximum timestamp by one millisecond (the strongest claim that still
/// admits duplicate timestamps).
#[derive(Debug, Default, Clone)]
pub struct AscendingWatermarks {
    max_seen: Option<Ts>,
}

impl AscendingWatermarks {
    /// New generator with nothing observed.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WatermarkGenerator for AscendingWatermarks {
    fn on_event(&mut self, ts: Ts) {
        if self.max_seen.is_none_or(|m| ts > m) {
            self.max_seen = Some(ts);
        }
    }

    fn current(&self) -> Watermark {
        match self.max_seen {
            Some(t) => Watermark(Ts(t.millis() - 1)),
            None => Watermark::MIN,
        }
    }
}

/// The standard heuristic for out-of-order streams: assume no event arrives
/// more than `bound` behind the maximum timestamp seen so far. This is the
/// "sufficient slack time" configuration mentioned in §3.2.2.
#[derive(Debug, Clone)]
pub struct BoundedOutOfOrderness {
    bound: Duration,
    max_seen: Option<Ts>,
}

impl BoundedOutOfOrderness {
    /// Allow events to arrive up to `bound` late relative to the max seen.
    pub fn new(bound: Duration) -> Self {
        BoundedOutOfOrderness {
            bound,
            max_seen: None,
        }
    }

    /// The configured bound.
    pub fn bound(&self) -> Duration {
        self.bound
    }
}

impl WatermarkGenerator for BoundedOutOfOrderness {
    fn on_event(&mut self, ts: Ts) {
        if self.max_seen.is_none_or(|m| ts > m) {
            self.max_seen = Some(ts);
        }
    }

    fn current(&self) -> Watermark {
        match self.max_seen {
            Some(t) => Watermark(t.saturating_sub(self.bound)),
            None => Watermark::MIN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_trails_by_one_milli() {
        let mut g = AscendingWatermarks::new();
        assert_eq!(g.current(), Watermark::MIN);
        g.on_event(Ts::hm(8, 7));
        assert_eq!(g.current(), Watermark(Ts(Ts::hm(8, 7).millis() - 1)));
        g.on_event(Ts::hm(8, 9));
        g.on_event(Ts::hm(8, 8)); // regression ignored
        assert_eq!(g.current(), Watermark(Ts(Ts::hm(8, 9).millis() - 1)));
    }

    #[test]
    fn bounded_subtracts_bound() {
        let mut g = BoundedOutOfOrderness::new(Duration::from_minutes(2));
        assert_eq!(g.current(), Watermark::MIN);
        g.on_event(Ts::hm(8, 7));
        assert_eq!(g.current(), Watermark(Ts::hm(8, 5)));
        g.on_event(Ts::hm(8, 11));
        assert_eq!(g.current(), Watermark(Ts::hm(8, 9)));
        // Late event does not pull the watermark back.
        g.on_event(Ts::hm(8, 5));
        assert_eq!(g.current(), Watermark(Ts::hm(8, 9)));
        assert_eq!(g.bound(), Duration::from_minutes(2));
    }

    #[test]
    fn bounded_watermark_is_monotone() {
        let mut g = BoundedOutOfOrderness::new(Duration::from_minutes(3));
        let events = [8i64, 12, 5, 9, 13, 11, 20];
        let mut last = Watermark::MIN;
        for &m in &events {
            g.on_event(Ts::from_minutes(m));
            let w = g.current();
            assert!(w >= last, "watermark regressed: {w} < {last}");
            last = w;
        }
    }
}
