//! The pinned machine every workload boots.
//!
//! Every knob that changes what is measured is fixed here, and the
//! environment variables through which CI lanes change those knobs are
//! refused rather than silently honoured.

use prisma_core::{MachineConfig, PrismaMachine, Result};

/// Processing elements.
pub const PES: usize = 8;
/// Fragments per relation (`FRAGMENTED BY HASH(..) INTO 8`).
pub const FRAGMENTS: usize = 8;
/// Compute workers per PE for morsel parallelism.
pub const OFM_WORKERS: usize = 2;
/// Delta rows at which a fragment seals a column chunk.
pub const SEAL_ROWS: usize = 1024;
/// Coordinator reply deadline.
pub const REPLY_TIMEOUT_SECS: u64 = 30;

/// Variables that would override the pinned machine or arm a CI-only
/// instrument.
pub const REFUSED_ENV: [&str; 6] = [
    "OFM_WORKERS",
    "SEAL_EVERY",
    "FAULT_SEED",
    "REPLY_TIMEOUT_SECS",
    "PRISMA_ROW_WIRE",
    "CHECKX_LOCK_ORDER",
];

/// The names in `REFUSED_ENV` that `lookup` reports as set.
pub fn refused_vars(lookup: impl Fn(&str) -> bool) -> Vec<&'static str> {
    REFUSED_ENV.iter().copied().filter(|v| lookup(v)).collect()
}

/// Refuse to run when any variable in [`REFUSED_ENV`] is set.
pub fn check_env() -> std::result::Result<(), String> {
    let set = refused_vars(|v| std::env::var_os(v).is_some());
    if set.is_empty() {
        return Ok(());
    }
    Err(format!(
        "refusing to run: {} set; these change the pinned machine or arm CI-only \
         instruments, so unset them to measure",
        set.join(", ")
    ))
}

/// The pinned configuration.
pub fn config() -> MachineConfig {
    MachineConfig::paper_prototype()
        .with_pes(PES)
        .with_ofm_workers(OFM_WORKERS)
        .with_seal_rows(SEAL_ROWS)
        .with_reply_timeout_secs(REPLY_TIMEOUT_SECS)
}

/// Boot the pinned machine.
pub fn boot() -> Result<PrismaMachine> {
    PrismaMachine::builder().config(config()).build()
}

/// One line recording the pinned configuration.
pub fn describe() -> String {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "config: pes={PES} fragments={FRAGMENTS} ofm_workers={OFM_WORKERS} \
         seal_rows={SEAL_ROWS} reply_timeout_secs={REPLY_TIMEOUT_SECS} \
         clients=1 loop=closed host_parallelism={host}"
    )
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set.
pub fn reset_peak_rss() -> std::result::Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// A memory figure of this process in MB: `field` is a kB line of
/// `/proc/self/status` such as `VmHWM` (peak resident set) or `VmRSS`.
pub fn status_mb(field: &str) -> std::result::Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}
