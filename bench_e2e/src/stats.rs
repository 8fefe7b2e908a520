//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here matches the one a
//! reader recomputes from the committed run sets.

/// The sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for even `n`); `None` when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The first and third quartiles by the exclusive method; a single sample
/// is its own quartiles. `None` when empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return v.first().map(|&x| (x, x));
    }
    let q = |i: usize| {
        // Python: j = i*m // 4 clamped to [1, n-1]; delta = i*m - 4j,
        // which is negative (extrapolation) when the clamp raised j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The interquartile range, `q3 - q1`.
#[must_use]
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(q1, q3)| q3 - q1)
}

/// The highest whole percentile `p` that leaves at least ten samples
/// strictly beyond it, with its value (linear interpolation between order
/// statistics). With ten samples or fewer no percentile has ten beyond it.
#[must_use]
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // n·(1 − p/100) ≥ 10  ⇔  p ≤ 100·(n − 10)/n.
    let p = u32::try_from(100 * (n - 10) / n).expect("percent fits u32");
    let rank = f64::from(p) / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some((p, v[lo] + (v[hi] - v[lo]) * frac))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(iqr(&ten), Some(5.5));
    }

    #[test]
    fn ties_give_zero_spread() {
        let same = [0.5; 7];
        assert_eq!(median(&same), Some(0.5));
        assert_eq!(iqr(&same), Some(0.0));
        assert_eq!(tail_percentile(&[0.5; 12]), Some((16, 0.5)));
        // Ties in the middle of an even sample still average cleanly.
        assert_eq!(median(&[1.0, 2.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        for n in 0..=10 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail_percentile(&v), None, "n = {n}");
        }
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(p, 9);
        assert!(v.iter().filter(|&&s| s > x).count() >= 10);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50, 9.5)));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(p, 90);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }
}
