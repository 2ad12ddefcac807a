//! E7 — the direct fragment→fragment shuffle keeps grace-join buckets off
//! the coordinator.
//!
//! PRISMA's design point: the coordinator orchestrates a partitioned
//! (grace) join but never relays tuples — each fragment ships every hash
//! bucket straight to the phase-2 site that owns it. This experiment
//! holds the bytes transiting the coordinator PE (ledger
//! `pe_bytes(COORDINATOR_PE)`) on a two-sided partitioned join to two
//! budgets, neither with a term that grows with bucket payload:
//!
//! * **sent** ≤ the orchestration budget,
//!   `ExecMetrics::shuffle_orchestration_bytes`: task counts × the wire
//!   size of `ShuffleJoin`/`ShuffleSubplan`;
//! * **received** ≤ the sites' join-result streams and their end markers
//!   ([`result_stream_budget`]): a bound computed from the result's row
//!   count and width, the result chunk count and the site stream count.
//!
//! A coordinator that relayed buckets — in and back out, as the retired
//! coordinator-relay path did — overshoots both (CHANGES.md records that
//! path's last measured bytes against these budgets). The ledger meters
//! per PE, so a one-fragment placeholder table takes PE 0, the
//! coordinator's own PE, and no join fragment's shuffle traffic is
//! charged to it. Records the trajectory in `BENCH_e7.json` at the repo
//! root.
//!
//! Environment knobs (all optional):
//!
//! * `E7_LROWS`   — left relation rows (default 40000)
//! * `E7_RROWS`   — right relation rows (default 30000)
//! * `E7_LFRAGS`  — left fragment count (default 4)
//! * `E7_RFRAGS`  — right fragment count (default 3)
//! * `E7_ITERS`   — timed samples per measurement (default 9)
//! * `E7_ENFORCE=1` — exit non-zero unless every sample's coordinator
//!   bytes fit both budgets

use prisma_core::gdh::ExecMetrics;
use prisma_core::poolx::COORDINATOR_PE;
use prisma_core::types::tuple;
use prisma_core::PrismaMachine;

/// Width of the phase-2 sites' join output: at most both tables' full
/// width (two INT columns each).
const JOIN_ARITY: u64 = 4;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Upper bound on the bytes the coordinator PE receives from the sites'
/// join-result streams: each result chunk is a `BatchChunk` header (32 B)
/// around one column-block frame, which for NULL-free INT columns is at
/// most its frame header (18 B), 11 B per column (tag, length, null flag,
/// count varint) and 8 B per value — raw INT, the integer codec's
/// ceiling and the row wire's charge; each site stream ends with one
/// `StreamEnd` (32 B).
fn result_stream_budget(m: &ExecMetrics, rows: u64) -> u64 {
    let chunks = m.batches_shipped * (32 + 18 + 11 * JOIN_ARITY);
    let streams = (m.fragment_tasks + m.streams_rerequested) * 32;
    chunks + rows * 8 * JOIN_ARITY + streams
}

#[derive(Clone, Copy, Default)]
struct Sample {
    /// Remote bytes the coordinator PE sent during the join.
    sent: u64,
    /// The orchestration budget for `sent`.
    sent_budget: u64,
    /// Remote bytes the coordinator PE received during the join.
    recv: u64,
    /// The result-stream budget for `recv`.
    recv_budget: u64,
    /// Bits moved fragment→fragment by the direct shuffle.
    shuffled_direct_bits: u64,
    /// Full join latency, µs.
    latency_us: u64,
}

impl Sample {
    fn within_budgets(&self) -> bool {
        self.sent <= self.sent_budget && self.recv <= self.recv_budget
    }
}

fn measure(db: &PrismaMachine, sql: &str, iters: usize) -> Vec<Sample> {
    let run = || {
        db.gdh().ledger().reset();
        let (rows, m) = db.query_with_metrics(sql).unwrap();
        assert!(!rows.is_empty(), "join produced nothing");
        let (sent, recv) = db.gdh().ledger().pe_bytes(COORDINATOR_PE);
        Sample {
            sent,
            sent_budget: m.shuffle_orchestration_bytes(),
            recv,
            recv_budget: result_stream_budget(&m, rows.len() as u64),
            shuffled_direct_bits: m.shuffled_direct_bits,
            latency_us: m.full_result_micros,
        }
    };
    let _warmup = run();
    (0..iters.max(1)).map(|_| run()).collect()
}

fn write_json(
    path: &std::path::Path,
    lrows: usize,
    rrows: usize,
    iters: usize,
    worst: &Sample,
    latency_us: u64,
) {
    let json = format!(
        "{{\n  \"experiment\": \"e7_shuffle\",\n  \"left_rows\": {lrows},\n  \"right_rows\": {rrows},\n  \"iters\": {iters},\n  \"benches\": {{\n    \"coordinator_sent_bytes\": {{\"max\": {}, \"budget\": {}}},\n    \"coordinator_recv_bytes\": {{\"max\": {}, \"budget\": {}}},\n    \"shuffled_direct_bits\": {},\n    \"join_latency_us\": {latency_us}\n  }}\n}}\n",
        worst.sent, worst.sent_budget, worst.recv, worst.recv_budget, worst.shuffled_direct_bits,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("[E7-shuffle] could not write {}: {e}", path.display());
    } else {
        eprintln!("[E7-shuffle] wrote {}", path.display());
    }
}

fn main() {
    let lrows = env_usize("E7_LROWS", 40_000);
    let rrows = env_usize("E7_RROWS", 30_000);
    let lfrags = env_usize("E7_LFRAGS", 4);
    let rfrags = env_usize("E7_RFRAGS", 3);
    let iters = env_usize("E7_ITERS", 9);
    let enforce = std::env::var("E7_ENFORCE").is_ok_and(|v| v == "1");

    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE pe0 (a INT) FRAGMENTED BY HASH(a) INTO 1")
        .unwrap();
    db.sql(&format!(
        "CREATE TABLE big_l (k INT, v INT) FRAGMENTED BY HASH(k) INTO {lfrags}"
    ))
    .unwrap();
    db.sql(&format!(
        "CREATE TABLE big_r (k INT, v INT) FRAGMENTED BY HASH(v) INTO {rfrags}"
    ))
    .unwrap();
    let txn = db.begin();
    for chunk in (0..lrows as i64)
        .map(|i| tuple![i, i % 97])
        .collect::<Vec<_>>()
        .chunks(5000)
    {
        db.gdh().insert(txn, "big_l", chunk.to_vec()).unwrap();
    }
    for chunk in (0..rrows as i64)
        .map(|i| tuple![i, i % 89])
        .collect::<Vec<_>>()
        .chunks(5000)
    {
        db.gdh().insert(txn, "big_r", chunk.to_vec()).unwrap();
    }
    db.commit(txn).unwrap();
    db.refresh_stats("big_l").unwrap();
    db.refresh_stats("big_r").unwrap();

    // Both sides far above the broadcast threshold: the optimizer picks
    // the hash-partitioned (grace) strategy and emits a shuffle
    // placement map.
    let sql = "SELECT l.v, r.v FROM big_l l, big_r r WHERE l.k = r.k";

    let mut samples = measure(&db, sql, iters);
    assert!(
        samples.iter().all(|s| s.shuffled_direct_bits > 0),
        "join did not take the partitioned path"
    );
    // The sample closest to a budget stands for the run; latency is the
    // median.
    let headroom = |s: &Sample| {
        (s.sent as f64 / s.sent_budget.max(1) as f64)
            .max(s.recv as f64 / s.recv_budget.max(1) as f64)
    };
    let worst = *samples
        .iter()
        .max_by(|a, b| headroom(a).total_cmp(&headroom(b)))
        .expect("at least one sample");
    samples.sort_unstable_by_key(|s| s.latency_us);
    let latency_us = samples[samples.len() / 2].latency_us;

    eprintln!(
        "[E7-shuffle] coordinator {} B sent (budget {}), {} B recv (budget {}), \
         {} bits shuffled fragment→fragment, join in {} µs",
        worst.sent,
        worst.sent_budget,
        worst.recv,
        worst.recv_budget,
        worst.shuffled_direct_bits,
        latency_us
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e7.json");
    write_json(&root, lrows, rrows, iters, &worst, latency_us);

    if enforce {
        for s in &samples {
            assert!(
                s.within_budgets(),
                "coordinator moved more than orchestration and result streams: \
                 {} B sent (budget {}), {} B recv (budget {})",
                s.sent,
                s.sent_budget,
                s.recv,
                s.recv_budget
            );
        }
    }
    db.shutdown();
}
