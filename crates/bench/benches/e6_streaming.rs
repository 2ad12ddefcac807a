//! E6 — streamed batch shipping: time to first chunk vs full result.
//!
//! PRISMA's parallelism comes from fragments executing concurrently on
//! separate PEs (paper §2.2); streamed batch shipping extends that
//! concurrency across the exchange itself: OFMs ship every produced batch
//! as its own `BatchChunk`, and the coordinator merges each fragment's
//! batches once that fragment's stream ends, while other fragments are
//! still scanning. This experiment records the coordinator's
//! **time-to-first-batch** (`ExecMetrics::first_batch_micros`, when the
//! first chunk *arrives*) against the streamed run's own full-result
//! latency (`ExecMetrics::full_result_micros`) on a multi-fragment scan.
//!
//! The gate only records the overlap: a drain-first reply path, which
//! ships nothing until its subplan is done, would pass it too (the last
//! measured drain-first run reached its first batch at 13,844 µs of a
//! 16,964 µs full result; CHANGES.md keeps the figures). Shipping each
//! batch as it is produced is the only way the OFM ships at all.
//! Records the trajectory in `BENCH_e6.json` at the repo root.
//!
//! Environment knobs (all optional):
//!
//! * `E6_ROWS`    — total row count across fragments (default 100000)
//! * `E6_FRAGS`   — fragment count (default 4)
//! * `E6_ITERS`   — timed samples per measurement (default 15)
//! * `E6_ENFORCE=1` — exit non-zero unless the first batch arrives before
//!   the full result is merged

use prisma_core::types::tuple;
use prisma_core::PrismaMachine;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median of the samples produced by `iters` runs of `f`.
fn median_of(iters: usize, mut f: impl FnMut() -> (u64, u64)) -> (u64, u64) {
    let _warmup = f();
    let mut ttfb: Vec<u64> = Vec::with_capacity(iters);
    let mut full: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters.max(1) {
        let (t, fu) = f();
        ttfb.push(t);
        full.push(fu);
    }
    ttfb.sort_unstable();
    full.sort_unstable();
    (ttfb[ttfb.len() / 2], full[full.len() / 2])
}

struct Measured {
    ttfb_us: u64,
    full_us: u64,
}

fn measure(db: &PrismaMachine, sql: &str, iters: usize) -> Measured {
    let (ttfb_us, full_us) = median_of(iters, || {
        let (_rows, m) = db.query_with_metrics(sql).unwrap();
        assert!(m.first_batch_micros > 0, "no fragment batch arrived: {m:?}");
        (m.first_batch_micros, m.full_result_micros)
    });
    Measured { ttfb_us, full_us }
}

fn write_json(
    path: &std::path::Path,
    rows: usize,
    frags: usize,
    iters: usize,
    streamed: &Measured,
) {
    let share = streamed.ttfb_us as f64 / streamed.full_us.max(1) as f64;
    let json = format!(
        "{{\n  \"experiment\": \"e6_stream_shipping\",\n  \"rows\": {rows},\n  \"fragments\": {frags},\n  \"iters\": {iters},\n  \"benches\": {{\n    \"time_to_first_batch_us\": {},\n    \"full_result_us\": {},\n    \"first_batch_share_of_full\": {share:.3}\n  }}\n}}\n",
        streamed.ttfb_us, streamed.full_us,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("[E6-stream] could not write {}: {e}", path.display());
    } else {
        eprintln!("[E6-stream] wrote {}", path.display());
    }
}

fn main() {
    let rows = env_usize("E6_ROWS", 100_000);
    let frags = env_usize("E6_FRAGS", 4);
    let iters = env_usize("E6_ITERS", 15);
    let enforce = std::env::var("E6_ENFORCE").is_ok_and(|v| v == "1");

    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql(&format!(
        "CREATE TABLE t (a INT, b INT) FRAGMENTED BY HASH(a) INTO {frags}"
    ))
    .unwrap();
    let txn = db.begin();
    let data: Vec<prisma_core::Tuple> =
        (0..rows as i64).map(|i| tuple![i, i % 97]).collect();
    for chunk in data.chunks(5000) {
        db.gdh().insert(txn, "t", chunk.to_vec()).unwrap();
    }
    db.commit(txn).unwrap();
    db.refresh_stats("t").unwrap();

    // A selective-but-wide scan: every fragment produces a multi-batch
    // stream, so the coordinator has real merging to overlap with.
    let sql = "SELECT a, b FROM t WHERE b < 90";

    let streamed = measure(&db, sql, iters);
    eprintln!(
        "[E6-stream] first batch after {} µs, full result after {} µs",
        streamed.ttfb_us, streamed.full_us
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e6.json");
    write_json(&root, rows, frags, iters, &streamed);

    if enforce {
        assert!(
            streamed.ttfb_us < streamed.full_us,
            "no scan/merge overlap: first batch after {} µs, full result after {} µs",
            streamed.ttfb_us,
            streamed.full_us
        );
    }
    db.shutdown();
}
