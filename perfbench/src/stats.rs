//! The benchmark's own arithmetic: percentile selection, span self-time and
//! client idle share. Pure functions, pinned by the tests at the bottom.

/// A percentile picked from a sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub pct: f64,
    /// The selected sample (nearest rank).
    pub value: f64,
    /// Samples in the whole set.
    pub samples: usize,
    /// Samples strictly after the selected rank.
    pub beyond: usize,
}

impl Percentile {
    /// The reporting rule: a percentile is reportable only when at least
    /// ten samples lie beyond it.
    #[must_use]
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
#[must_use]
pub fn percentile(samples: &[f64], pct: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Rank ceil(pct/100 * n), 1-based, clamped into [1, n]. The epsilon
    // keeps 99.9% of 10000 at rank 9990 despite binary rounding.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The highest of the usual percentiles that still has ten samples beyond
/// it. `None` when even the median has fewer than ten beyond it.
#[must_use]
pub fn highest_reportable(samples: &[f64]) -> Option<Percentile> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .filter_map(|p| percentile(samples, p))
        .find(Percentile::reportable)
}

/// Median (the mean of the two middle samples for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Length of `[start, end)` not covered by any of `children`, each clipped
/// to the parent interval. Children may nest, overlap each other, or stick
/// out of the parent; covered time is counted once.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Share of the clients' time not spent inside a call: `1 - busy / (clients
/// × wall)`, clamped to `[0, 1]`.
#[must_use]
pub fn idle_fraction(busy_ns: u64, clients: usize, wall_ns: u64) -> f64 {
    let capacity = clients as f64 * wall_ns as f64;
    if capacity <= 0.0 {
        return 0.0;
    }
    (1.0 - busy_ns as f64 / capacity).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must not depend on input order.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn p90_of_a_hundred_has_exactly_ten_beyond() {
        let p = percentile(&ramp(100), 90.0).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        assert!(p.reportable());
    }

    #[test]
    fn p90_of_ninety_nine_is_not_reportable() {
        let p = percentile(&ramp(99), 90.0).unwrap();
        // rank ceil(89.1) = 90, so nine samples lie beyond it.
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 9);
        assert!(!p.reportable());
    }

    #[test]
    fn highest_reportable_walks_down_with_the_sample_count() {
        assert_eq!(highest_reportable(&ramp(2000)).unwrap().pct, 99.0);
        assert_eq!(highest_reportable(&ramp(1000)).unwrap().pct, 99.0);
        assert_eq!(highest_reportable(&ramp(999)).unwrap().pct, 90.0);
        assert_eq!(highest_reportable(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(highest_reportable(&ramp(99)).unwrap().pct, 50.0);
        let p = highest_reportable(&ramp(20)).unwrap();
        assert_eq!((p.pct, p.beyond, p.samples), (50.0, 10, 20));
        assert!(highest_reportable(&ramp(19)).is_none());
        assert!(highest_reportable(&[]).is_none());
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        let p = percentile(&ramp(10_000), 99.9).unwrap();
        assert_eq!((p.value, p.beyond), (9990.0, 10));
        assert_eq!(highest_reportable(&ramp(10_000)).unwrap().pct, 99.9);
    }

    #[test]
    fn percentile_edges() {
        assert!(percentile(&[], 50.0).is_none());
        let one = percentile(&[4.0], 90.0).unwrap();
        assert_eq!((one.value, one.beyond), (4.0, 0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0).unwrap().value, 3.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_without_children_is_the_whole_span() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_nested_children_once() {
        // (20, 30) sits inside (10, 40): covered time is 30, not 40.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 30)]), 70);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Two overlapping children cover [10, 60) = 50.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40)]), 50);
        // Touching intervals do not double count the shared edge.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)]), 20);
        assert_eq!(self_time(10, 50, &[(60, 90)]), 40);
        assert_eq!(self_time(10, 50, &[(0, 100)]), 0);
    }

    #[test]
    fn idle_fraction_of_a_closed_loop() {
        // Two clients over 10 s, busy 18 s in total: 10% idle.
        let idle = idle_fraction(18_000_000_000, 2, 10_000_000_000);
        assert!((idle - 0.1).abs() < 1e-12);
        assert_eq!(idle_fraction(0, 2, 10), 1.0);
        assert_eq!(idle_fraction(20, 2, 10), 0.0);
        // Busy beyond capacity (clock skew between threads) clamps to 0.
        assert_eq!(idle_fraction(25, 2, 10), 0.0);
        assert_eq!(idle_fraction(5, 2, 0), 0.0);
    }
}
