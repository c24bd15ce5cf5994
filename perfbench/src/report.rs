//! Metric collection, order statistics, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::spec::{self, MetricSpec};

/// Metrics one workload run reported, by contract name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`. Panics on a name the contract does not list or one
    /// reported twice: both are harness bugs, not measurements.
    pub fn put(&mut self, name: &str, value: f64) {
        let spec = spec::metric(name).unwrap_or_else(|| panic!("metric '{name}' is not in spec"));
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        let previous = self.values.insert(spec.name, value);
        assert!(previous.is_none(), "metric '{name}' reported twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.keys().copied().collect()
    }
}

/// What one invocation reports on its last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (source events, or paced results) attempted.
    pub attempted: u64,
    /// Operations not reflected in a correct committed output.
    pub failed: u64,
    /// Why the run is incorrect; empty when `correct`.
    pub problems: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
}

impl RunResult {
    /// Human-readable `name value unit` lines for `specs`, skipping the
    /// ones this workload does not define.
    pub fn render_table(&self, specs: &[MetricSpec]) -> String {
        let mut out = String::new();
        for m in specs {
            if let Some(v) = self.metrics.get(m.name) {
                out.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, v, m.unit));
            }
        }
        out
    }

    /// The contract's result object, listing exactly `specs`: a metric
    /// this workload's layers do not define reads 0.
    pub fn json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.metrics.get(m.name).unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` cuts
/// them (exclusive method), so `--repeat` reports the spread the
/// acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q2 - 5.5).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
