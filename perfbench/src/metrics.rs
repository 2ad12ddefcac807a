//! Every metric the benchmark reports: its unit, direction, layer, and
//! the end-to-end metric and workload it should move. The crate's tests
//! check that `BENCHMARK.json` lists each metric with the name, unit and
//! direction given here.

use crate::stats::{per_op, Ratio};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the machine sees, measured with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// What it measures.
    pub about: &'static str,
}

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        about: "ops completed per second of client-observed op time, one closed-loop client, times the host slowdown",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        about: "median per-op wall time as the client sees it, over the host slowdown",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        about: "90th-percentile per-op wall time (>=10 samples beyond it), over the host slowdown",
    },
    EndToEnd {
        name: "net_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        about: "TrafficLedger remote bytes over the timed loop per op attempted",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        about: "VmHWM of the process, which ran only this workload, reset just before boot",
    },
    EndToEnd {
        name: "completed_ratio",
        unit: "ratio",
        better: Better::Higher,
        about: "ops that returned Ok over ops attempted (1 - failed_ratio); a wrong answer aborts the run",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        about: "boot, load, refresh_stats and one warm-up op per class; median of several set-ups, over the host slowdown",
    },
];

/// What one op cost, layer by layer, in the traced loop. Times are
/// microseconds, byte counts bytes; zero where the op made no such call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerOp {
    /// Index of the op's class in its workload.
    pub class: usize,
    /// Client-observed wall time of the op.
    pub wall_us: f64,
    /// Op time outside every named layer span.
    pub unattributed_us: f64,
    /// `sqlfe::compile`.
    pub sqlfe_us: f64,
    /// `prismalog::{parse_program, parse_query, compile_query}`.
    pub prismalog_us: f64,
    /// `Optimizer::optimize`, side-measured on the op's plan.
    pub optimize_us: f64,
    /// `optimizer::lower_physical`, side-measured on the op's plan.
    pub lower_us: f64,
    /// `GlobalDataHandler::query`.
    pub query_us: f64,
    /// `ExecMetrics::full_result_micros`.
    pub exec_us: f64,
    /// `ExecMetrics::first_batch_micros`.
    pub first_batch_us: f64,
    /// `ExecMetrics::fragment_tasks`.
    pub fragment_tasks: f64,
    /// `ExecMetrics::tuples_shipped`.
    pub tuples_shipped: f64,
    /// `ExecMetrics::batches_shipped`.
    pub batches_shipped: f64,
    /// `ExecMetrics::max_in_flight_streams`.
    pub max_in_flight: f64,
    /// `ExecMetrics::chunks_scanned`.
    pub chunks_scanned: f64,
    /// `ExecMetrics::chunks_pruned`.
    pub chunks_pruned: f64,
    /// `ExecMetrics::partitioned_joins`.
    pub partitioned_joins: f64,
    /// `ExecMetrics::broadcast_joins`.
    pub broadcast_joins: f64,
    /// `ExecMetrics::shuffled_direct_bits` in bytes.
    pub shuffled_bytes: f64,
    /// `ExecMetrics::max_site_shuffled_bits` in bytes.
    pub max_site_shuffled_bytes: f64,
    /// Pool morsels run during the op (`PoolSet::total_stats` delta).
    pub morsels: f64,
    /// Pool steals during the op.
    pub steals: f64,
    /// Pool busy time summed over workers.
    pub busy_us: f64,
    /// Busy time of the busiest worker slot.
    pub busy_max_us: f64,
    /// Workers per pool.
    pub pool_workers: f64,
    /// `GlobalDataHandler::update`.
    pub dml_us: f64,
    /// `GlobalDataHandler::commit`.
    pub commit_us: f64,
    /// Remote messages sent while `commit` ran.
    pub commit_messages: f64,
    /// Remote bytes sent while `commit` ran.
    pub commit_bytes: f64,
    /// Remote messages during the op (`TrafficLedger` delta).
    pub remote_messages: f64,
    /// Remote bytes during the op.
    pub remote_bytes: f64,
    /// Bytes times hops during the op.
    pub byte_hops: f64,
    /// Modeled transfer time of the op's traffic on an idle network.
    pub modeled_transfer_us: f64,
}

/// How a per-layer metric folds the traced ops.
#[derive(Debug)]
pub enum Fold {
    /// Total over ops divided by ops.
    PerOp(fn(&PerOp) -> f64),
    /// Total of the first over total of the second.
    Ratio(fn(&PerOp) -> f64, fn(&PerOp) -> f64),
    /// Mean over classes of the first, uncached op of each class, in ms.
    ColdPass,
    /// Share of untraced throughput lost in the traced loop.
    Overhead,
}

/// A folded per-layer figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Figure {
    /// A per-op mean.
    Mean(f64),
    /// A ratio with its base.
    Ratio(Ratio),
}

impl Figure {
    /// The number the result line carries.
    pub fn value(&self) -> f64 {
        match self {
            Figure::Mean(v) => *v,
            Figure::Ratio(r) => r.value(),
        }
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Figure::Mean(v) => write!(f, "{v:.2}"),
            Figure::Ratio(r) => write!(f, "{r}"),
        }
    }
}

impl Fold {
    /// Fold `ops`; `None` for the folds the loop computes itself.
    pub fn over(&self, ops: &[PerOp]) -> Option<Figure> {
        match self {
            Fold::PerOp(f) => Some(Figure::Mean(per_op(ops.iter().map(f).sum(), ops.len()))),
            Fold::Ratio(n, d) => Some(Figure::Ratio(Ratio {
                num: ops.iter().map(n).sum(),
                den: ops.iter().map(d).sum(),
            })),
            Fold::ColdPass | Fold::Overhead => None,
        }
    }
}

/// A metric of one layer, from the traced run.
#[derive(Debug)]
pub struct Layer {
    /// Name in the result line; the prefix names the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How the traced ops fold into it.
    pub fold: Fold,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
    /// Marked when the figure comes from a model, not a measurement.
    pub modeled: bool,
}

const FRONT: &str = "latency_p50_ms, latency_p90_ms on bank_oltp; no change on scan_mix";
const QUERY: &str = "throughput_ops_s, latency_p50_ms, latency_p90_ms on scan_mix and join_mix";
const STORAGE: &str = "latency_p50_ms on scan_mix; the audit tail (latency_p90_ms) on bank_oltp";
const JOIN: &str = "latency_p90_ms on join_mix";
const POOL: &str = "latency_p90_ms on join_mix and scan_mix";
const TXN: &str = "throughput_ops_s, latency_p50_ms, latency_p90_ms, net_bytes_per_op on bank_oltp";
const NET: &str = "net_bytes_per_op on every workload";
const TRACE: &str = "none: it rates the trace itself";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $fold:expr, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            fold: $fold,
            moves: $moves,
            modeled: false,
        }
    };
}

/// The per-layer metrics, the same on every workload.
pub const LAYERS: [Layer; 35] = [
    layer!(
        "sqlfe.compile_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.sqlfe_us),
        FRONT
    ),
    layer!(
        "prismalog.compile_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.prismalog_us),
        FRONT
    ),
    layer!(
        "optimizer.optimize_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.optimize_us),
        FRONT
    ),
    layer!(
        "optimizer.lower_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.lower_us),
        FRONT
    ),
    layer!(
        "gdh.query_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.query_us),
        QUERY
    ),
    layer!(
        "gdh.exec_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.exec_us),
        QUERY
    ),
    layer!(
        "gdh.first_batch_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.first_batch_us),
        QUERY
    ),
    layer!(
        "gdh.residual_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.query_us - o.exec_us),
        QUERY
    ),
    layer!(
        "gdh.fragment_tasks",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.fragment_tasks),
        QUERY
    ),
    layer!(
        "gdh.tuples_shipped",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.tuples_shipped),
        QUERY
    ),
    layer!(
        "gdh.batches_shipped",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.batches_shipped),
        QUERY
    ),
    layer!(
        "gdh.max_in_flight_streams",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.max_in_flight),
        QUERY
    ),
    layer!(
        "storage.chunks_scanned",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.chunks_scanned),
        STORAGE
    ),
    layer!(
        "storage.chunks_pruned",
        "count/op",
        Higher,
        Fold::PerOp(|o| o.chunks_pruned),
        STORAGE
    ),
    layer!(
        "storage.prune_ratio",
        "ratio",
        Higher,
        Fold::Ratio(|o| o.chunks_pruned, |o| o.chunks_pruned + o.chunks_scanned),
        STORAGE
    ),
    layer!("storage.cold_pass_ms", "ms", Lower, Fold::ColdPass, STORAGE),
    layer!(
        "optimizer.partitioned_joins",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.partitioned_joins),
        JOIN
    ),
    layer!(
        "optimizer.broadcast_joins",
        "count/op",
        Higher,
        Fold::PerOp(|o| o.broadcast_joins),
        JOIN
    ),
    layer!(
        "net.shuffled_direct_bytes",
        "bytes/op",
        Lower,
        Fold::PerOp(|o| o.shuffled_bytes),
        JOIN
    ),
    layer!(
        "net.max_site_shuffle_share",
        "ratio",
        Lower,
        Fold::Ratio(|o| o.max_site_shuffled_bytes, |o| o.shuffled_bytes),
        JOIN
    ),
    layer!(
        "poolx.morsels",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.morsels),
        POOL
    ),
    layer!(
        "poolx.steals",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.steals),
        POOL
    ),
    layer!(
        "poolx.busy_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.busy_us),
        POOL
    ),
    layer!(
        "poolx.busy_max_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.busy_max_us),
        POOL
    ),
    layer!(
        "poolx.balance",
        "ratio",
        Higher,
        Fold::Ratio(|o| o.busy_us, |o| o.pool_workers * o.busy_max_us),
        POOL
    ),
    layer!("gdh.dml_us", "us/op", Lower, Fold::PerOp(|o| o.dml_us), TXN),
    layer!(
        "txn.commit_us",
        "us/op",
        Lower,
        Fold::PerOp(|o| o.commit_us),
        TXN
    ),
    layer!(
        "txn.commit_messages",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.commit_messages),
        TXN
    ),
    layer!(
        "txn.commit_bytes",
        "bytes/op",
        Lower,
        Fold::PerOp(|o| o.commit_bytes),
        TXN
    ),
    layer!(
        "net.remote_messages",
        "count/op",
        Lower,
        Fold::PerOp(|o| o.remote_messages),
        NET
    ),
    layer!(
        "net.remote_bytes",
        "bytes/op",
        Lower,
        Fold::PerOp(|o| o.remote_bytes),
        NET
    ),
    layer!(
        "net.byte_hops",
        "bytes/op",
        Lower,
        Fold::PerOp(|o| o.byte_hops),
        NET
    ),
    Layer {
        modeled: true,
        ..layer!(
            "net.modeled_transfer_us",
            "us/op",
            Lower,
            Fold::PerOp(|o| o.modeled_transfer_us),
            NET
        )
    },
    layer!(
        "trace.unattributed_share",
        "ratio",
        Lower,
        Fold::Ratio(|o| o.unattributed_us, |o| o.wall_us),
        TRACE
    ),
    layer!("trace.overhead", "ratio", Lower, Fold::Overhead, TRACE),
];
