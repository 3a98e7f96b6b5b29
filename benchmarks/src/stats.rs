//! Order statistics and interval arithmetic used by the load generator and
//! the span ledger.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest value
/// with at least `pct` percent of the samples at or below it. Empty input
/// gives 0.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of per-round values (mean of the two middle values when
/// the count is even). Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), the rule the driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let index = (position / 4).clamp(1, n - 1);
        let fraction = (position as f64 / 4.0 - index as f64).clamp(0.0, 1.0);
        sorted[index - 1] + (sorted[index] - sorted[index - 1]) * fraction
    };
    (at(1), at(3))
}

/// Total length covered by a set of half-open `(start, end)` intervals,
/// counting overlapping stretches once. Sorts `intervals` in place.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of a span: its duration minus the part of it that its child
/// spans cover. Children are clipped to the parent and may overlap each
/// other (parallel dispatch runs siblings concurrently).
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    for child in children.iter_mut() {
        *child = (child.0.clamp(start, end), child.1.clamp(start, end));
    }
    (end - start) - union_len(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 95.0), 95);
        assert_eq!(percentile(&samples, 99.9), 100);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        // Five samples: the median is the third, p95 the fifth.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 95.0), 50);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow round out of seven does not move the reported value.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 9.0, 1.0, 1.05]), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (2, 3), (10, 12)]), 12);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Serial children: 100 - (20 + 30).
        assert_eq!(self_time((0, 100), &mut [(10, 30), (40, 70)]), 50);
        // Two participants prepared in parallel: the overlap is covered once.
        assert_eq!(self_time((0, 100), &mut [(10, 60), (20, 80)]), 30);
        // A child that outlives its parent (speculative delivery) is clipped.
        assert_eq!(self_time((50, 100), &mut [(40, 70), (90, 130)]), 20);
        assert_eq!(self_time((0, 100), &mut []), 100);
    }
}
