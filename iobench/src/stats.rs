//! Repeated-run and per-sample statistics, kept in the benchmark's own code
//! so the repository's timing harness can change without moving them.

/// Median, first and third quartile and sample count of a set of values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order). `None` when empty. Quartiles use the
    /// "exclusive" method of Python's `statistics.quantiles(values, n=4)`,
    /// so a spread printed here reads the same as one computed from the
    /// printed values with that function.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Some(Summary {
            median,
            q1: quartile(&v, 1),
            q3: quartile(&v, 3),
            n,
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartile `i` (1..=3) of sorted values, exclusive method.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Percentiles a timing may be reported at, in basis points, lowest first.
const LADDER: [(u32, &str); 5] = [
    (5_000, "p50"),
    (9_000, "p90"),
    (9_900, "p99"),
    (9_990, "p999"),
    (9_999, "p9999"),
];

/// The reporting rule for a timing's tail: the highest percentile on the
/// ladder that leaves at least ten samples beyond it. Returns the
/// percentile (e.g. `99.9`) and its label (e.g. `"p999"`), or `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_rule(n: u64) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(bp, _)| n * u64::from(10_000 - bp) / 10_000 >= 10)
        .map(|&(bp, label)| (f64::from(bp) / 100.0, label))
}

/// Nearest-rank percentile of sorted exact samples (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.spread(), 2.625);
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_rule(19), None);
        assert_eq!(tail_rule(20), Some((50.0, "p50")));
        assert_eq!(tail_rule(99), Some((50.0, "p50")));
        assert_eq!(tail_rule(100), Some((90.0, "p90")));
        assert_eq!(tail_rule(999), Some((90.0, "p90")));
        assert_eq!(tail_rule(1_000), Some((99.0, "p99")));
        assert_eq!(tail_rule(10_000), Some((99.9, "p999")));
        assert_eq!(tail_rule(99_999), Some((99.9, "p999")));
        assert_eq!(tail_rule(100_000), Some((99.99, "p9999")));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 99.9), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
