use perfbench::stats::{median, quantile};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quantile_interpolates_between_ranks() {
    let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(quantile(&xs, 0.0), Some(10.0));
    assert_eq!(quantile(&xs, 1.0), Some(50.0));
    assert_eq!(quantile(&xs, 0.25), Some(20.0));
    assert_eq!(quantile(&xs, 0.9), Some(46.0));
    // Out-of-range quantiles clamp to the extremes.
    assert_eq!(quantile(&xs, 2.0), Some(50.0));
}

#[test]
fn quantile_ignores_input_order() {
    assert_eq!(quantile(&[50.0, 10.0, 40.0, 20.0, 30.0], 0.75), Some(40.0));
}
