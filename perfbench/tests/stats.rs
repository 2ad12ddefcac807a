//! Percentile selection, per-op normalisation, ratios and the host probe.

use prisma_perfbench::host::{Probe, REFERENCE_S};
use prisma_perfbench::metrics::{Figure, Fold, PerOp};
use prisma_perfbench::stats::{
    highest_supported, median, per_op, percentile, rank, samples_beyond, samples_needed, Ratio,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_percentiles() {
    let v = ascending(100);
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.9), Some(90.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&ascending(1), 0.9), Some(1.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Rank rounds up, so a small sample's p90 is its top value.
    assert_eq!(rank(5, 0.9), 5);
    assert_eq!(percentile(&ascending(5), 0.9), Some(5.0));
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.5), 20);
    assert_eq!(samples_needed(0.99), 1000);
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(20), Some(0.5));
    assert_eq!(highest_supported(99), Some(0.5));
    assert_eq!(highest_supported(100), Some(0.9));
    assert_eq!(highest_supported(999), Some(0.9));
    assert_eq!(highest_supported(1000), Some(0.99));
}

#[test]
fn medians_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn per_op_normalisation() {
    assert_eq!(per_op(300.0, 4), 75.0);
    assert_eq!(per_op(300.0, 0), 0.0);
    let ops: Vec<PerOp> = [10.0, 20.0, 60.0]
        .iter()
        .map(|&us| PerOp {
            query_us: us,
            exec_us: us / 2.0,
            ..PerOp::default()
        })
        .collect();
    let mean = Fold::PerOp(|o| o.query_us - o.exec_us).over(&ops);
    assert_eq!(mean, Some(Figure::Mean(15.0)));
    assert_eq!(
        Fold::PerOp(|o| o.query_us).over(&[]),
        Some(Figure::Mean(0.0))
    );
    assert_eq!(Fold::ColdPass.over(&ops), None);
}

#[test]
fn ratios_carry_their_base() {
    let r = Ratio {
        num: 3.0,
        den: 12.0,
    };
    assert_eq!(r.value(), 0.25);
    assert_eq!(r.to_string(), "0.2500 (3/12)");
    let empty = Ratio { num: 0.0, den: 0.0 };
    assert_eq!(empty.value(), 0.0);
    assert_eq!(empty.to_string(), "0.0000 (0/0)");
    let rates = Ratio {
        num: 1.5,
        den: 12.0,
    };
    assert_eq!(rates.to_string(), "0.1250 (1.500/12.000)");

    // Folded as a ratio of totals, not a mean of per-op ratios.
    let ops = [(9.0, 1.0), (0.0, 10.0)].map(|(pruned, scanned)| PerOp {
        chunks_pruned: pruned,
        chunks_scanned: scanned,
        ..PerOp::default()
    });
    let fold = Fold::Ratio(|o| o.chunks_pruned, |o| o.chunks_pruned + o.chunks_scanned);
    let Some(Figure::Ratio(r)) = fold.over(&ops) else {
        panic!("a ratio fold yields a ratio");
    };
    assert_eq!((r.num, r.den), (9.0, 20.0));
    assert_eq!(Figure::Ratio(r).to_string(), "0.4500 (9/20)");
}

#[test]
fn host_slowdown_is_the_median_probe_over_the_reference() {
    let mut probe = Probe::default();
    assert!(probe.slowdown().is_err(), "no probe, no slowdown");
    for _ in 0..3 {
        probe.run().unwrap();
    }
    assert_eq!(probe.cpu_s.len(), 3);
    assert!(probe.cpu_s.iter().all(|&s| s > 0.0 && s < 1.0));
    let want = median(&probe.cpu_s).unwrap() / REFERENCE_S;
    assert_eq!(probe.slowdown().unwrap(), want);
}
