//! Property tests on the watermark tracker: monotonicity is the whole
//! point of a watermark (§3.2.2: "a watermark is a monotonic function from
//! processing time to event time").

use proptest::prelude::*;

use onesql_time::{Watermark, WatermarkTracker};
use onesql_types::Ts;

proptest! {
    /// The tracker's combined watermark is always min over inputs, is
    /// monotonic, and only reports when it advances.
    #[test]
    fn tracker_is_min_and_monotonic(
        observations in prop::collection::vec((0usize..3, -1000i64..1000), 1..200),
    ) {
        let mut t = WatermarkTracker::new(3);
        let mut maxima = [i64::MIN; 3];
        let mut last_combined = Watermark::MIN;
        for &(port, wm) in &observations {
            let advanced = t.observe(port, Watermark(Ts(wm)));
            maxima[port] = maxima[port].max(wm);
            let expected = (0..3)
                .map(|i| maxima[i])
                .min()
                .expect("three ports");
            let expected = if expected == i64::MIN {
                Watermark::MIN
            } else {
                Watermark(Ts(expected))
            };
            prop_assert_eq!(t.combined(), expected);
            if let Some(a) = advanced {
                prop_assert!(a > last_combined, "advance must be strict");
                last_combined = a;
            } else {
                // Silent: the combined watermark has not passed what was
                // already reported downstream.
                prop_assert!(t.combined() <= last_combined);
            }
        }
    }
}
