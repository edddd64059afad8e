//! The percentile-support rule: a percentile with fewer than ten samples
//! beyond it is never reported.

use perfbench::stats::{percentile, quantile};

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    for q in [0.5, 0.9, 0.99, 0.999] {
        for n in 1..3000usize {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let beyond = n - rank;
            match percentile(&samples, q) {
                Some(v) => {
                    assert!(
                        beyond >= 10,
                        "p{q} of {n} samples printed with {beyond} beyond"
                    );
                    assert_eq!(v, (rank - 1) as f64);
                }
                None => assert!(
                    beyond < 10,
                    "p{q} of {n} samples withheld with {beyond} beyond"
                ),
            }
        }
    }
}

#[test]
fn the_sample_count_travels_with_the_value() {
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    let q = quantile(&samples, 0.99).unwrap();
    assert_eq!(q.samples, 1000);
    assert_eq!(quantile(&samples[..999], 0.99), None);
}
