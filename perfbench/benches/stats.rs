//! Order statistics over timing samples.

/// The sample sorted ascending; NaNs sort last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` by linear interpolation between the closest
/// ranks (the "type 7" rule of R and NumPy). `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median: the middle value, or the mean of the middle two.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}
