//! Order statistics used by every pass.

/// Percentile `p` in [0, 100] by linear interpolation between closest
/// ranks. Panics on an empty slice: every caller measures at least one
/// sample or reports the metric as absent.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The smallest sample. On this shared machine the noise is one-sided —
/// neighbours only ever slow a run down, in bursts that can outlast a whole
/// run — so the minimum is the steadiest estimate of what the code costs:
/// across same-seed runs it moved 6–8 % where the median moved 10–60 %.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median, or 0 when nothing was sampled (no publish checkpointed, say).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The medians of each non-empty round.
pub fn round_medians(rounds: &[Vec<f64>]) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect()
}

/// Median of per-round medians: a slow phase of the machine that covers a
/// whole round moves one round median, not the result.
pub fn median_of_round_medians(rounds: &[Vec<f64>]) -> f64 {
    median(&round_medians(rounds))
}

/// (max − min) / median of the round medians, in percent: the run's own
/// noise.
pub fn round_spread_pct(rounds: &[Vec<f64>]) -> f64 {
    let medians = round_medians(rounds);
    let max = medians.iter().copied().fold(f64::MIN, f64::max);
    let min = medians.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(&medians) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(median(&v), 25.0);
        assert_eq!(percentile(&v, 25.0), 17.5);
        assert_eq!(percentile(&v, 90.0), 37.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn round_medians_ignore_a_slow_round_and_empty_rounds() {
        let rounds = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 10.0, 13.0],
            vec![90.0, 95.0, 99.0], // the machine's slow phase
            vec![],
            vec![11.0, 12.0, 13.0],
            vec![9.0, 11.0, 30.0],
        ];
        assert_eq!(round_medians(&rounds), vec![11.0, 10.0, 95.0, 12.0, 11.0]);
        assert_eq!(median_of_round_medians(&rounds), 11.0);
        // The pooled median would be dragged to 12 by the slow round.
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        assert_eq!(median(&pooled), 12.0);
        assert!((round_spread_pct(&rounds) - (95.0 - 10.0) / 11.0 * 100.0).abs() < 1e-9);
    }
}
