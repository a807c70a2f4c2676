//! Summary statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported. With fewer, the value rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples would lie beyond it. For `p = 0.9`
/// that means at least 100 samples; for the median, at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a handful of repeated measurements (the mean of the middle
/// two for an even count). Unlike [`percentile`] it applies no sample
/// rule: it summarises set-up repeats and layer probes, not op latency.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Work units per second, as the median over `blocks` consecutive runs of
/// ops (each block's units ÷ its summed op time). A stretch in which the
/// host ran the process slowly moves one block, not the result.
pub fn block_rate(op_ms: &[f64], units_per_op: f64, blocks: usize) -> f64 {
    let n = op_ms.len();
    let blocks = blocks.clamp(1, n.max(1));
    let rates: Vec<f64> = (0..blocks)
        .map(|b| &op_ms[b * n / blocks..(b + 1) * n / blocks])
        .filter(|block| !block.is_empty())
        .map(|block| block.len() as f64 * units_per_op / (block.iter().sum::<f64>() / 1e3))
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&[], 0.9), None);
        let p = percentile(&ramp(100), 0.9).expect("100 samples suffice");
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
    }

    #[test]
    fn p50_needs_20_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        let p = percentile(&ramp(20), 0.5).expect("20 samples suffice");
        assert_eq!((p.value, p.beyond), (10.0, 10));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5).map(|p| p.value), Some(20.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn block_rate_is_the_median_block() {
        // Ten blocks of two 100 ms ops, one of them slowed down fourfold.
        let mut ops = vec![100.0; 20];
        ops[4] = 400.0;
        ops[5] = 400.0;
        assert_eq!(block_rate(&ops, 2.0, 10), 20.0);
        // Fewer ops than blocks: one op per block.
        assert_eq!(block_rate(&[250.0, 500.0, 1000.0], 1.0, 10), 2.0);
        assert!(block_rate(&[], 1.0, 10).is_nan());
    }
}
