//! Morsel-driven intra-fragment parallelism.
//!
//! The executor in [`crate::exec`] runs one operator tree per fragment on
//! the owning PE's actor thread. When a [`WorkerPool`] is attached
//! ([`crate::exec::open_batches_pooled`]), the compute-heavy spans of
//! that tree are cut into **morsels** — [`BATCH_SIZE`]-row ranges — and
//! dispatched to the pool's work-stealing workers:
//!
//! * a scan→filter→project pipeline fragment becomes a parallel
//!   pipeline operator (`ParPipelineOp`): waves of morsels run the
//!   whole stage chain worker-side, and the outputs are emitted in
//!   morsel order;
//! * a hash-join build side is split into contiguous batch chunks, each
//!   worker builds a private partial table, and the partials merge at
//!   the pipeline breaker in chunk order;
//! * probe batches are themselves split row-wise across workers, with
//!   per-morsel outputs concatenated in order.
//!
//! (Hash aggregation parallelizes inside [`crate::group::GroupTable`]:
//! workers compute morsel-local group ids, and the fold runs in row
//! order.)
//!
//! **Every merge is ordered by morsel position**, which makes pooled
//! execution *bit-identical* to the serial baseline — same batches, same
//! row order — not merely equal up to reordering. No pooled operator
//! re-associates floating-point arithmetic: join builds and probes only
//! move rows, and the group table folds every aggregate in input-row
//! order, so `DOUBLE` sums round exactly as the serial scan's (merging
//! per-chunk partial sums would not: their rounding depends on where the
//! chunk boundaries fall, i.e. on the worker count). Determinism
//! therefore cannot depend on steal interleavings; only the wall-clock
//! (and the pool's busy/steal counters) do.
//!
//! Parallelism stays strictly inside the PE: this module never touches
//! the actor runtime, the traffic ledger, or the wire protocol. A
//! fragment's output crosses the PE boundary exactly as before, batch by
//! batch through [`crate::exec::BatchStream`].

use std::collections::VecDeque;
use std::sync::Arc;

use prisma_poolx::{Job, WorkerPool};
use prisma_storage::FastMap;
use prisma_types::{Result, SelVec, Tuple, Value};

use crate::exec::{Batch, Operator, BATCH_SIZE};
use crate::table::Relation;

/// Morsels dispatched per wave, as a multiple of the pool width: enough
/// slack that a stolen straggler rebalances, small enough that a wave's
/// output stays a handful of batches (the stream stays incremental).
const WAVE_MORSELS_PER_WORKER: usize = 4;

/// Minimum live rows before splitting a probe batch across workers —
/// below this the scatter overhead beats the win.
const PAR_PROBE_MIN_ROWS: usize = 512;

/// One compiled stage of a scan-rooted pipeline fragment.
#[derive(Clone)]
pub(crate) enum Stage {
    /// Vectorized filter (each worker clones its own scratch).
    Filter(prisma_storage::expr::CompiledVecPredicate),
    /// Vectorized projection. `identity` is `Some(n)` for a pure
    /// `Col(0)..Col(n-1)` rename, which passes whole-chunk batches of
    /// arity `n` through untouched (preserving the sealed-chunk tag and
    /// its cached wire block).
    Project {
        exprs: Vec<prisma_storage::expr::CompiledVecExpr>,
        identity: Option<usize>,
    },
}

/// A scan→(filter|project)* chain executed morsel-parallel: the source
/// relation is cut into [`BATCH_SIZE`]-row morsels, a wave of them runs
/// the full stage chain on the pool, and results are emitted in morsel
/// order (identical to the serial operator chain's output).
pub(crate) struct ParPipelineOp {
    rel: Arc<Relation>,
    projection: Option<Vec<usize>>,
    stages: Vec<Stage>,
    pool: Arc<WorkerPool>,
    next_row: usize,
    ready: VecDeque<Batch>,
}

impl ParPipelineOp {
    pub(crate) fn new(
        rel: Arc<Relation>,
        projection: Option<Vec<usize>>,
        stages: Vec<Stage>,
        pool: Arc<WorkerPool>,
    ) -> ParPipelineOp {
        ParPipelineOp {
            rel,
            projection,
            stages,
            pool,
            next_row: 0,
            ready: VecDeque::new(),
        }
    }

    /// Whether the pooled pipeline is worth it for this source: at least
    /// two morsels and some per-row compute (a bare scan is zero-copy
    /// window arithmetic — nothing to parallelize).
    pub(crate) fn eligible(rows: usize, stages: &[Stage], projection: &Option<Vec<usize>>) -> bool {
        rows > BATCH_SIZE && (!stages.is_empty() || projection.is_some())
    }

    fn run_wave(&mut self) {
        let wave = self.pool.workers() * WAVE_MORSELS_PER_WORKER;
        let mut ranges = Vec::with_capacity(wave);
        while ranges.len() < wave && self.next_row < self.rel.len() {
            let end = (self.next_row + BATCH_SIZE).min(self.rel.len());
            ranges.push((self.next_row, end));
            self.next_row = end;
        }
        let mut slots: Vec<Option<Batch>> = ranges.iter().map(|_| None).collect();
        {
            let rel = &self.rel;
            let projection = &self.projection;
            let stages = &self.stages;
            let jobs: Vec<Job> = slots
                .iter_mut()
                .zip(&ranges)
                .map(|(slot, &(start, end))| {
                    Box::new(move || {
                        *slot = run_morsel(rel, projection, stages, start, end);
                    }) as Job
                })
                .collect();
            self.pool.run(jobs);
        }
        self.ready.extend(slots.into_iter().flatten());
    }
}

impl Operator for ParPipelineOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            if self.next_row >= self.rel.len() {
                return Ok(None);
            }
            self.run_wave();
        }
    }
}

/// Run the full stage chain over one morsel of the source relation.
/// Mirrors `ScanOp` → `FilterOp` → `ProjectOp` exactly, one batch deep.
fn run_morsel(
    rel: &Arc<Relation>,
    projection: &Option<Vec<usize>>,
    stages: &[Stage],
    start: usize,
    end: usize,
) -> Option<Batch> {
    let batch = match projection {
        None => Batch::shared(Arc::clone(rel), start, end),
        Some(cols) => Batch::owned(
            rel.tuples()[start..end]
                .iter()
                .map(|t| t.project(cols))
                .collect(),
        ),
    };
    run_stages(batch, stages)
}

/// Push one source batch through the stage chain — the per-morsel kernel
/// shared by the relation-backed and chunk-backed pipelines (mirrors
/// `FilterOp` → `ProjectOp` exactly, one batch deep).
fn run_stages(mut batch: Batch, stages: &[Stage]) -> Option<Batch> {
    for stage in stages {
        if batch.is_empty() {
            return None;
        }
        match stage {
            Stage::Filter(pred) => {
                let mut pred = pred.clone();
                let (cols, sel) = batch.to_columns();
                let mut sel_buf = Vec::new();
                pred.select(&cols, &sel, &mut sel_buf);
                if sel_buf.is_empty() {
                    return None;
                }
                let kept = if sel_buf.len() == sel.count() && sel.is_all() {
                    SelVec::all(sel.len())
                } else {
                    SelVec::from_indices(sel.len(), sel_buf)
                };
                batch = Batch::columns_shared(cols, kept);
            }
            Stage::Project { exprs, identity } => {
                if let (Some(n), Some(chunk)) = (identity, batch.sealed_chunk()) {
                    if chunk.arity() == *n {
                        continue; // pure rename: keep the tagged batch
                    }
                }
                let (cols, sel) = batch.to_columns();
                let out: Vec<_> = exprs.iter().map(|e| e.eval(&cols, &sel)).collect();
                batch = Batch::columns(out, SelVec::all(sel.count()));
            }
        }
    }
    if batch.is_empty() {
        None
    } else {
        Some(batch)
    }
}

/// The chunked-scan counterpart of [`ParPipelineOp`]: scan units — whole
/// sealed chunks plus delta windows, pre-pruned by the zone maps at open
/// time — are the morsels. Waves of units run the stage chain on the
/// pool's workers and outputs merge in unit order, so the pooled chunked
/// scan is bit-identical to the serial [`crate::exec`] chunk scan.
pub(crate) struct ParChunkPipelineOp {
    units: Vec<crate::exec::ScanUnit>,
    projection: Option<Vec<usize>>,
    stages: Vec<Stage>,
    pool: Arc<WorkerPool>,
    next_unit: usize,
    ready: VecDeque<Batch>,
}

impl ParChunkPipelineOp {
    pub(crate) fn new(
        units: Vec<crate::exec::ScanUnit>,
        projection: Option<Vec<usize>>,
        stages: Vec<Stage>,
        pool: Arc<WorkerPool>,
    ) -> ParChunkPipelineOp {
        ParChunkPipelineOp {
            units,
            projection,
            stages,
            pool,
            next_unit: 0,
            ready: VecDeque::new(),
        }
    }

    fn run_wave(&mut self) {
        let wave = self.pool.workers() * WAVE_MORSELS_PER_WORKER;
        let end = (self.next_unit + wave).min(self.units.len());
        let wave_units = &self.units[self.next_unit..end];
        self.next_unit = end;
        let mut slots: Vec<Option<Batch>> = wave_units.iter().map(|_| None).collect();
        {
            let projection = &self.projection;
            let stages = &self.stages;
            let jobs: Vec<Job> = slots
                .iter_mut()
                .zip(wave_units)
                .map(|(slot, unit)| {
                    Box::new(move || {
                        if unit.len() > 0 {
                            *slot = run_stages(unit.batch(projection.as_deref()), stages);
                        }
                    }) as Job
                })
                .collect();
            self.pool.run(jobs);
        }
        self.ready.extend(slots.into_iter().flatten());
    }
}

impl Operator for ParChunkPipelineOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            if self.next_unit >= self.units.len() {
                return Ok(None);
            }
            self.run_wave();
        }
    }
}

// ---------------- hash-join helpers ----------------

/// Type of a hash-join build table (also the serial executor's).
pub(crate) type JoinTable = FastMap<Vec<Value>, Vec<Tuple>>;

/// Build a join table from the drained build side in parallel: workers
/// build private partial tables over contiguous batch chunks, and the
/// partials merge in chunk order — so each key's candidate vector lists
/// rows in exactly the order the serial single-threaded build would.
pub(crate) fn parallel_build(pool: &WorkerPool, batches: &[Batch], rkeys: &[usize]) -> JoinTable {
    let chunks = chunk_ranges(batches.len(), pool.workers());
    let mut partials: Vec<Option<JoinTable>> = chunks.iter().map(|_| None).collect();
    {
        let jobs: Vec<Job> = partials
            .iter_mut()
            .zip(&chunks)
            .map(|(slot, &(start, end))| {
                Box::new(move || {
                    let mut table = JoinTable::default();
                    for batch in &batches[start..end] {
                        insert_build_batch(&mut table, batch, rkeys);
                    }
                    *slot = Some(table);
                }) as Job
            })
            .collect();
        pool.run(jobs);
    }
    let mut partials = partials.into_iter().flatten();
    let mut table = partials.next().unwrap_or_default();
    for partial in partials {
        for (key, rows) in partial {
            table.entry(key).or_default().extend(rows);
        }
    }
    table
}

/// One build batch into a table — shared by the serial and parallel
/// paths so they cannot diverge.
pub(crate) fn insert_build_batch(table: &mut JoinTable, batch: &Batch, rkeys: &[usize]) {
    for row in 0..batch.len() {
        let key = batch.key_at(row, rkeys);
        // SQL equi-joins never match NULL keys.
        if key.iter().any(Value::is_null) {
            continue;
        }
        table
            .entry(key)
            .or_default()
            .push(batch.tuples()[row].clone());
    }
}

/// Probe one batch against the table with the rows split across workers;
/// per-morsel outputs concatenate in row order, matching the serial
/// probe loop. `probe_rows` is the row-at-a-time kernel both paths share.
pub(crate) fn parallel_probe<F>(pool: &WorkerPool, batch: &Batch, probe_rows: F) -> Vec<Tuple>
where
    F: Fn(&Batch, usize, usize) -> Vec<Tuple> + Sync,
{
    let rows = batch.len();
    if rows < PAR_PROBE_MIN_ROWS {
        return probe_rows(batch, 0, rows);
    }
    let morsel = rows.div_ceil(pool.workers()).max(1);
    let ranges: Vec<(usize, usize)> = (0..rows)
        .step_by(morsel)
        .map(|s| (s, (s + morsel).min(rows)))
        .collect();
    let mut slots: Vec<Vec<Tuple>> = ranges.iter().map(|_| Vec::new()).collect();
    {
        let probe_rows = &probe_rows;
        let jobs: Vec<Job> = slots
            .iter_mut()
            .zip(&ranges)
            .map(|(slot, &(start, end))| {
                Box::new(move || {
                    *slot = probe_rows(batch, start, end);
                }) as Job
            })
            .collect();
        pool.run(jobs);
    }
    let mut out = Vec::with_capacity(slots.iter().map(Vec::len).sum());
    for s in slots {
        out.extend(s);
    }
    out
}

/// Split `n` items into at most `parts` contiguous, near-equal ranges.
fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_and_cover() {
        for n in [0usize, 1, 2, 5, 7, 16] {
            for parts in [1usize, 2, 3, 4, 8] {
                let r = chunk_ranges(n, parts);
                let mut pos = 0;
                for &(s, e) in &r {
                    assert_eq!(s, pos);
                    assert!(e > s);
                    pos = e;
                }
                assert_eq!(pos, n);
                assert!(r.len() <= parts.max(1));
            }
        }
    }
}
