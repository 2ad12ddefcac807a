//! Tiny-size runs of every workload, traced and untraced, with every
//! answer checked; and the checks themselves reject wrong answers.

use prisma_perfbench::metrics::{END_TO_END, LAYERS};
use prisma_perfbench::workload::{Kind, Outcome, Sizes, Workload};
use prisma_perfbench::{run, Plan, Report};

fn tiny(kind: Kind, trace: bool) -> Report {
    run(&Plan {
        kind,
        sizes: Sizes::TINY,
        seed: 7,
        seconds: 0.2,
        trace,
    })
    .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", kind.name()))
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .value
}

fn smoke(kind: Kind) -> Report {
    let plain = tiny(kind, false);
    assert_eq!(plain.failed, 0);
    assert!(plain.attempted >= 100, "p90 needs 100 samples");
    let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(value(&plain, "completed_ratio"), 1.0);
    assert!(value(&plain, "throughput_ops_s") > 0.0);
    assert!(value(&plain, "latency_p50_ms") <= value(&plain, "latency_p90_ms"));
    assert!(value(&plain, "net_bytes_per_op") > 0.0);
    let json = plain.json().unwrap();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(json.contains("\"failed\": 0, \"metrics\": {\"throughput_ops_s\": {\"value\": "));
    assert!(plain.tracer.is_none());

    let traced = tiny(kind, true);
    assert_eq!(traced.failed, 0);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, LAYERS.iter().map(|l| l.name).collect::<Vec<_>>());
    let spans = traced
        .tracer
        .as_ref()
        .expect("a traced run keeps its spans")
        .spans();
    assert!(spans.iter().any(|s| s.name.starts_with("op.")));
    assert!(value(&traced, "sqlfe.compile_us") > 0.0);
    assert!(value(&traced, "net.remote_bytes") > 0.0);
    let share = value(&traced, "trace.unattributed_share");
    assert!((0.0..1.0).contains(&share), "{share}");
    traced
}

#[test]
fn scan_mix_smoke() {
    let r = smoke(Kind::ScanMix);
    assert!(value(&r, "gdh.query_us") > 0.0);
    assert!(value(&r, "gdh.tuples_shipped") > 0.0);
    assert_eq!(value(&r, "txn.commit_us"), 0.0);
}

#[test]
fn join_mix_smoke() {
    let r = smoke(Kind::JoinMix);
    assert!(value(&r, "optimizer.partitioned_joins") > 0.0);
    assert!(value(&r, "optimizer.broadcast_joins") > 0.0);
    assert!(value(&r, "net.shuffled_direct_bytes") > 0.0);
    assert!(value(&r, "prismalog.compile_us") > 0.0);
}

#[test]
fn bank_oltp_smoke() {
    let r = smoke(Kind::BankOltp);
    assert!(value(&r, "gdh.dml_us") > 0.0);
    assert!(value(&r, "txn.commit_us") > 0.0);
    assert!(value(&r, "txn.commit_messages") > 0.0);
}

#[test]
fn wrong_answers_are_rejected() {
    for kind in Kind::ALL {
        let mut wl = Workload::new(kind, Sizes::TINY, 3).unwrap();
        for op in wl.warmup() {
            let empty = Outcome::Rows(prisma_core::relalg::Relation::empty(
                prisma_core::workload::edge_schema(),
            ));
            assert!(wl.check(&op, &empty).is_err(), "{:?}", op.request);
        }
    }
    let mut bank = Workload::new(Kind::BankOltp, Sizes::TINY, 3).unwrap();
    let transfer = bank.next_op();
    assert!(bank.check(&transfer, &Outcome::Committed([1, 0])).is_err());
    assert!(bank.check(&transfer, &Outcome::Committed([1, 1])).is_ok());
}

#[test]
fn the_same_seed_gives_the_same_ops() {
    for kind in Kind::ALL {
        let mut a = Workload::new(kind, Sizes::TINY, 11).unwrap();
        let mut b = Workload::new(kind, Sizes::TINY, 11).unwrap();
        for _ in 0..50 {
            assert_eq!(format!("{:?}", a.next_op()), format!("{:?}", b.next_op()));
        }
    }
}
