//! Statistical utilities for the correlation study (paper §IV): mean
//! absolute error, Pearson correlation, geometric mean, and standard
//! deviation.

/// Mean absolute error between predictions and ground truth.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mean_absolute_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    assert!(!predicted.is_empty(), "empty input");
    predicted.iter().zip(actual).map(|(p, a)| (p - a).abs()).sum::<f64>() / predicted.len() as f64
}

/// Mean absolute *percentage* error, relative to `actual` (entries with
/// `actual == 0` are skipped).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mean_absolute_pct_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, a) in predicted.iter().zip(actual) {
        if *a != 0.0 {
            sum += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Karl Pearson correlation coefficient (the paper's "Correl" metric).
/// Returns 0 when either series is constant.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    assert!(!x.is_empty(), "empty input");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// Geometric mean of strictly positive values (zeroes are clamped to a
/// tiny epsilon, matching common benchmarking practice).
///
/// # Panics
/// Panics on empty input.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "empty input");
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mae_basics() {
        assert_eq!(mean_absolute_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mean_absolute_error(&[1.0, 3.0], &[2.0, 2.0]), 1.0);
    }

    #[test]
    fn mape_skips_zero_actual() {
        let e = mean_absolute_pct_error(&[2.0, 5.0], &[0.0, 4.0]);
        assert!((e - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn geomean_of_identical_is_identity() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn pearson_bounded(xy in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..64)) {
            let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
            let r = pearson(&x, &y);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }

        #[test]
        fn pearson_scale_invariant(
            xy in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..32),
            scale in 0.1f64..10.0,
        ) {
            let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
            let ys: Vec<f64> = y.iter().map(|v| v * scale).collect();
            let a = pearson(&x, &y);
            let b = pearson(&x, &ys);
            prop_assert!((a - b).abs() < 1e-6);
        }

        #[test]
        fn mae_nonnegative_and_symmetric(
            pa in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..32)
        ) {
            let p: Vec<f64> = pa.iter().map(|v| v.0).collect();
            let a: Vec<f64> = pa.iter().map(|v| v.1).collect();
            let e1 = mean_absolute_error(&p, &a);
            let e2 = mean_absolute_error(&a, &p);
            prop_assert!(e1 >= 0.0);
            prop_assert!((e1 - e2).abs() < 1e-12);
        }

        #[test]
        fn geomean_between_min_and_max(v in proptest::collection::vec(0.01f64..100.0, 1..32)) {
            let g = geomean(&v);
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
        }
    }
}
