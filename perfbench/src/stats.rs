//! Percentiles that refuse to speak past their sample.

/// Nearest-rank percentile `q` of `samples`, or `None` when fewer than
/// ten samples lie beyond it (then the value would be one of the last
/// few samples, not a percentile).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// A percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// [`percentile`] with its sample count attached.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    percentile(samples, q).map(|value| Quantile {
        value,
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_count() {
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
