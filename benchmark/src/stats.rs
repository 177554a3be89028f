//! Order statistics for the runner: medians, percentiles, and the rule for
//! which tail percentile a sample count can support.

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0–100) of an ascending slice.
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The tail percentiles the runner is willing to print, ascending, in
/// per mille so the sample arithmetic stays exact.
const TAIL_LADDER: [u64; 6] = [600, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of the
/// `n` samples beyond it; `None` when even p60 does not (n < 25).
pub fn tail_percentile(n: usize) -> Option<f64> {
    let rung = TAIL_LADDER.iter().rev().find(|&&pm| n as u64 * (1000 - pm) >= 10 * 1000)?;
    Some(*rung as f64 / 10.0)
}

/// `"p95 12.3 ms (n=240)"`-style note for a latency sample, naming the
/// highest supportable tail percentile and the sample count.
pub fn tail_note(values: &[f64], unit: &str) -> String {
    let s = sorted(values);
    match tail_percentile(s.len()) {
        Some(p) => format!("p{p} {:.3} {unit} (n={})", percentile(&s, p), s.len()),
        None => format!("no tail percentile has 10 samples beyond it (n={})", s.len()),
    }
}

/// `"min 1.0 · p25 1.1 · p50 1.2 · p75 1.3 · max 2.0"`: the shape of a
/// sample, so a drifting or bimodal run shows in the log.
pub fn spread_note(values: &[f64]) -> String {
    let s = sorted(values);
    let q = |p| percentile(&s, p);
    format!(
        "min {:.3} · p25 {:.3} · p50 {:.3} · p75 {:.3} · max {:.3}",
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    )
}

/// Share of a pass not covered by any layer's self time, in percent.
pub fn residual_pct(pass_ms: f64, layer_self_ms: f64) -> f64 {
    if pass_ms <= 0.0 {
        0.0
    } else {
        (pass_ms - layer_self_ms).max(0.0) / pass_ms * 100.0
    }
}

/// How much worse `second` is than `first` as a share of `first`, signed so
/// that positive means worse for the metric's direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(24), None);
        assert_eq!(tail_percentile(25), Some(60.0));
        assert_eq!(tail_percentile(39), Some(60.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(tail_note(&[1.0; 12], "ms").contains("n=12"));
        assert!(tail_note(&[1.0; 120], "ms").starts_with("p90 "));
    }

    #[test]
    fn residual_is_the_uncovered_share() {
        assert_eq!(residual_pct(100.0, 96.0), 4.0);
        assert_eq!(residual_pct(100.0, 130.0), 0.0, "overlapping layers never go negative");
        assert_eq!(residual_pct(0.0, 0.0), 0.0);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    }
}
