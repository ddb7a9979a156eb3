//! Order statistics over repeated samples: the median and the tail.

/// How many samples must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median (mean of the middle pair for an even count); `None` if empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// The tail: the highest order statistic that still has [`TAIL_BEYOND`]
/// samples beyond it, returned with the percentile it sits at. With `n`
/// samples that is the `(n − 10)`-th smallest, at percentile
/// `100 · (n − 10) / n`. `None` below `TAIL_BEYOND + 1` samples, where no
/// value has enough samples beyond it to be called a tail.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    let value = v[n - 1 - TAIL_BEYOND];
    let percentile = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((value, percentile))
}
