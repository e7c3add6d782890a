//! The percentile / sample-count rule: a percentile is reported only
//! with at least ten samples beyond it.

use webtable_servebench::stats::{beyond, percentile, reportable, tail_percentile, Summary};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn p99_needs_a_thousand_samples() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(reportable(1000, 99.0));
    assert_eq!(beyond(999, 99.0), 9);
    assert!(!reportable(999, 99.0));
    assert!(reportable(10_000, 99.9));
    assert!(!reportable(9_999, 99.9));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
}

#[test]
fn summary_carries_its_sample_count() {
    let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = Summary::of(&v).unwrap();
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 500.0);
    assert_eq!((s.tail_p, s.tail), (99.0, 990.0));
    let short = Summary::of(&v[..999]).unwrap();
    assert_eq!(short.tail_p, 95.0, "p99 of 999 samples is not reportable");
    assert!(Summary::of(&v[..19]).is_none());
}

#[test]
fn sliced_p99_is_the_median_of_slice_p99s() {
    use webtable_servebench::stats::sliced_percentile;
    // 3000 samples in time order; a burst of 40 slow samples falls in the
    // middle slice only.
    let mut v = vec![1.0; 3000];
    for x in &mut v[1400..1440] {
        *x = 100.0;
    }
    let (p99, slices) = sliced_percentile(&v, 99.0).unwrap();
    assert_eq!(slices, 3);
    assert_eq!(p99, 1.0, "one burst moves one slice, not the median");
    // The whole-run p99 would have been the burst.
    let mut sorted = v.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(percentile(&sorted, 99.0), Some(100.0));

    // Slices must each report p99 on their own: 1999 samples make one
    // slice (two would hold 999 each), and an even count rounds down to
    // an odd one so the median is a real slice value.
    assert_eq!(sliced_percentile(&vec![1.0; 1999], 99.0).unwrap().1, 1);
    assert_eq!(sliced_percentile(&vec![1.0; 4500], 99.0).unwrap().1, 3);
    assert_eq!(sliced_percentile(&vec![1.0; 5000], 99.0).unwrap().1, 5);
    assert!(sliced_percentile(&vec![1.0; 999], 99.0).is_none());
}
