//! Order statistics shared by every workload: medians, interpolated
//! percentiles and the tail-percentile rule (report the highest
//! percentile that still has at least ten samples beyond it).

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported for a latency tail.
pub const TAIL_CAP: f64 = 95.0;

/// Linearly interpolated percentile `p` (0–100) of `xs`, the "linear"
/// definition of numpy and of Python's `statistics.quantiles(method=
/// "inclusive")`. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs` (`NaN` for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The percentile a tail metric reports for `n` samples: the highest
/// one, capped at [`TAIL_CAP`], that leaves at least [`TAIL_BEYOND`]
/// samples beyond it. With fewer than `2 × TAIL_BEYOND` samples no
/// percentile above the median qualifies and the median is used; the
/// result is then under-sampled (see [`tail_is_supported`]).
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let q = 100.0 * (1.0 - TAIL_BEYOND as f64 / n as f64);
    // Round to 1e-9 so that 200 samples give exactly 95, not 94.999….
    ((q * 1e9).round() / 1e9).clamp(50.0, TAIL_CAP)
}

/// Whether [`tail_percentile`]`(n)` really has [`TAIL_BEYOND`] samples
/// beyond it.
pub fn tail_is_supported(n: usize) -> bool {
    n as f64 * (1.0 - tail_percentile(n) / 100.0) >= TAIL_BEYOND as f64 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_linearly() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(200), 95.0);
        assert!(tail_is_supported(200));
        // More samples never report beyond the cap.
        assert_eq!(tail_percentile(10_000), 95.0);
        // 100 samples: p95 would leave 5, so p90 (10 beyond) is used.
        assert_eq!(tail_percentile(100), 90.0);
        assert!(tail_is_supported(100));
        // 40 samples: p75.
        assert_eq!(tail_percentile(40), 75.0);
        // 20 samples: exactly the median, still supported.
        assert_eq!(tail_percentile(20), 50.0);
        assert!(tail_is_supported(20));
        // Under 20: nothing above the median qualifies.
        assert_eq!(tail_percentile(12), 50.0);
        assert!(!tail_is_supported(12));
        assert_eq!(tail_percentile(0), 50.0);
        assert!(!tail_is_supported(0));
    }
}
