//! Run summaries for the bench harness: [`LatencySummary`] condenses a
//! histogram into the columns used across figures, and the improvement
//! helpers compute the paper's relative gains.

use crate::histogram::LatencyHistogram;
use iorch_simcore::SimDuration;

/// The standard latency columns reported by the paper's figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Standard deviation (the paper's whiskers in Fig. 4).
    pub std_dev: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile — the paper's tail metric.
    pub p999: SimDuration,
    /// Maximum observed.
    pub max: SimDuration,
}

impl LatencySummary {
    /// Summarize a histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean: h.mean(),
            std_dev: h.std_dev(),
            p50: h.median(),
            p99: h.percentile(99.0),
            p999: h.p999(),
            max: h.max(),
        }
    }
}

/// Percentage improvement of `variant` over `baseline` for a lower-is-better
/// metric (latency). Positive means the variant is better.
pub fn latency_improvement_pct(baseline: SimDuration, variant: SimDuration) -> f64 {
    let b = baseline.as_nanos() as f64;
    if b <= 0.0 {
        return 0.0;
    }
    (b - variant.as_nanos() as f64) / b * 100.0
}

/// Percentage improvement of `variant` over `baseline` for a higher-is-better
/// metric (throughput). Positive means the variant is better.
pub fn throughput_improvement_pct(baseline: f64, variant: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (variant - baseline) / baseline * 100.0
}

/// `variant / baseline` for normalized-latency plots (Figs. 7 and 9).
pub fn normalized(baseline: SimDuration, variant: SimDuration) -> f64 {
    let b = baseline.as_nanos() as f64;
    if b <= 0.0 {
        return 1.0;
    }
    variant.as_nanos() as f64 / b
}

/// Format a duration in the unit the paper uses for a given figure.
pub fn fmt_us(d: SimDuration) -> String {
    format!("{:.1}", d.as_micros_f64())
}

/// Format a duration in milliseconds with one decimal.
pub fn fmt_ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iorch_simcore::SimDuration;

    #[test]
    fn summary_from_histogram() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_micros(i * 10));
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, SimDuration::from_micros(505));
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn improvement_signs() {
        let base = SimDuration::from_micros(200);
        let better = SimDuration::from_micros(150);
        let worse = SimDuration::from_micros(250);
        assert!((latency_improvement_pct(base, better) - 25.0).abs() < 1e-9);
        assert!((latency_improvement_pct(base, worse) + 25.0).abs() < 1e-9);
        assert!((throughput_improvement_pct(100.0, 120.0) - 20.0).abs() < 1e-9);
        assert_eq!(latency_improvement_pct(SimDuration::ZERO, better), 0.0);
        assert_eq!(throughput_improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn normalized_ratio() {
        let base = SimDuration::from_micros(200);
        let v = SimDuration::from_micros(180);
        assert!((normalized(base, v) - 0.9).abs() < 1e-9);
        assert_eq!(normalized(SimDuration::ZERO, v), 1.0);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_us(SimDuration::from_micros(1500)), "1500.0");
        assert_eq!(fmt_ms(SimDuration::from_micros(1500)), "1.5");
    }
}
