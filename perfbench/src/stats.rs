//! Order statistics for run summaries.

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so a spread computed here matches one computed by a script.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let (n, m) = (n as i64, n as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i as i64 + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can move `j` past `i * m / 4` either way.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The tail value of a latency sample: the 99th percentile (nearest rank)
/// when at least ten samples lie beyond it, otherwise the highest
/// percentile that still has ten samples beyond it. Returns
/// `(percentile, value)`; `None` when fewer than eleven samples exist, since
/// then no percentile has ten samples beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Nearest-rank index of the 99th percentile.
    let k99 = ((0.99 * n as f64).ceil() as usize).saturating_sub(1);
    // The value at index k has n - 1 - k samples beyond it.
    let k = k99.min(n - 11);
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Least-squares slope of `ys` over `xs`; 0 for fewer than two points or no
/// spread in `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}
