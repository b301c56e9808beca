//! Randomized tests for histogram, CDF and rate invariants, driven by the
//! in-tree generators (`iorch_simcore::gen`) with a fixed seed sweep — no
//! external property-test crate.

use iorch_metrics::{cdf, LatencyHistogram, WindowedRate};
use iorch_simcore::{gen, SimDuration, SimTime};

const CASES: usize = 64;

fn hist_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(SimDuration::from_nanos(v));
    }
    h
}

/// Percentiles are monotone in p and bracketed by min/max.
#[test]
fn percentiles_monotone() {
    gen::for_each_seed(0x3E_0001, CASES, |seed, rng| {
        let values = gen::vec_between(rng, 1, 500, |r| r.below(u64::MAX / 2));
        let h = hist_of(&values);
        let ps = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let mut prev = SimDuration::ZERO;
        for &p in &ps {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p}: {v} < {prev} (seed {seed})");
            assert!(v >= h.min() && v <= h.max(), "seed {seed}");
            prev = v;
        }
    });
}

/// Merging is equivalent to recording the union; merge order is
/// irrelevant.
#[test]
fn merge_associative() {
    gen::for_each_seed(0x3E_0002, CASES, |seed, rng| {
        let a = gen::vec_between(rng, 1, 200, |r| r.below(1_000_000_000));
        let b = gen::vec_between(rng, 1, 200, |r| r.below(1_000_000_000));
        let c = gen::vec_between(rng, 1, 200, |r| r.below(1_000_000_000));
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        let direct = hist_of(&all);

        let mut m1 = hist_of(&a);
        m1.merge(&hist_of(&b));
        m1.merge(&hist_of(&c));

        let mut m2 = hist_of(&c);
        m2.merge(&hist_of(&a));
        m2.merge(&hist_of(&b));

        assert_eq!(m1.count(), direct.count(), "seed {seed}");
        assert_eq!(m2.count(), direct.count(), "seed {seed}");
        assert_eq!(m1.mean(), direct.mean(), "seed {seed}");
        assert_eq!(m2.mean(), direct.mean(), "seed {seed}");
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(m1.percentile(p), direct.percentile(p), "seed {seed}");
            assert_eq!(m2.percentile(p), direct.percentile(p), "seed {seed}");
        }
    });
}

/// The mean is exact (not bucketed) and percentile(50) is within the
/// histogram's relative error of the true median.
#[test]
fn median_within_bucket_error() {
    gen::for_each_seed(0x3E_0003, CASES, |seed, rng| {
        let values = gen::vec_between(rng, 10, 500, |r| 1 + r.below(1_000_000_000));
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let true_median = sorted[(sorted.len() - 1) / 2] as f64;
        let got = h.median().as_nanos() as f64;
        // One sub-bucket of relative error (~3.2%) plus rank-rounding slop:
        // compare against the neighbouring order statistics too.
        let lo = sorted[((sorted.len() - 1) / 2).saturating_sub(1)] as f64;
        let hi = sorted[(sorted.len() / 2 + 1).min(sorted.len() - 1)] as f64;
        let lower = lo.min(true_median) * 0.96;
        let upper = hi.max(true_median) * 1.04;
        assert!(
            got >= lower && got <= upper,
            "median {got} not in [{lower}, {upper}] (seed {seed})"
        );
    });
}

/// CDF is monotone and ends at 1.
#[test]
fn cdf_monotone() {
    gen::for_each_seed(0x3E_0004, CASES, |seed, rng| {
        let values = gen::vec_between(rng, 1, 300, |r| r.below(u64::MAX / 2));
        let h = hist_of(&values);
        let points = cdf(&h);
        assert!(!points.is_empty(), "seed {seed}");
        for w in points.windows(2) {
            assert!(w[0].value <= w[1].value, "seed {seed}");
            assert!(w[0].fraction <= w[1].fraction, "seed {seed}");
        }
        assert!(
            (points.last().unwrap().fraction - 1.0).abs() < 1e-9,
            "seed {seed}"
        );
    });
}

/// A windowed rate never reports more than the lifetime total, and the
/// window sum equals the sum of in-window events.
#[test]
fn windowed_rate_conservation() {
    gen::for_each_seed(0x3E_0005, CASES, |seed, rng| {
        let events = gen::vec_between(rng, 1, 100, |r| (r.below(10_000), 1 + r.below(999)));
        let window_ms = 1 + rng.below(999);
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.0);
        let mut r = WindowedRate::new(SimDuration::from_millis(window_ms));
        for &(t, amt) in &sorted {
            r.record(SimTime::from_millis(t), amt);
        }
        let now = SimTime::from_millis(sorted.last().unwrap().0);
        let cutoff = now - SimDuration::from_millis(window_ms);
        let expect: u64 = sorted
            .iter()
            .filter(|&&(t, _)| SimTime::from_millis(t) >= cutoff)
            .map(|&(_, a)| a)
            .sum();
        assert_eq!(r.sum_in_window(now), expect, "seed {seed}");
        assert!(r.sum_in_window(now) <= r.lifetime_sum(), "seed {seed}");
    });
}
