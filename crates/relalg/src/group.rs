//! Typed columnar hash aggregation — the executor's one group-and-fold
//! implementation.
//!
//! A [`GroupTable`] is the state of one `GROUP BY`: the stored group
//! keys, a hash directory over them, and one typed accumulator per
//! aggregate. The serial and the morsel-parallel `HashAggregate`
//! operator ([`crate::exec`]) and the coordinator's merge of
//! per-fragment partial aggregates (`prisma-gdh`) all fold through it;
//! only the reference evaluator ([`mod@crate::eval`]) keeps its own
//! row-at-a-time [`crate::agg::Accumulator`]s, as the oracle.
//!
//! Following MonetDB/X100 (Boncz, Zukowski, Nes, CIDR 2005), every batch
//! passes through three column-at-a-time steps:
//!
//! 1. **hash** — the key columns are hashed one column at a time,
//!    straight from their [`ColumnVec`] payloads, canonically like
//!    `Value::hash` (a row's hash is that of its key `Value`s), so equal
//!    `Value`s — `Int(1)` and `Double(1.0)`, or two NULLs — hash alike
//!    whatever column type carries them;
//! 2. **group ids** — each row's hash probes an open-addressing
//!    directory, candidates are compared against the stored key columns
//!    in place (no per-row key vector, no string clone), and a miss
//!    appends a group, so group ids number groups in first-seen order;
//! 3. **fold** — each aggregate folds its input column over the
//!    group-id vector *in input-row order*: `i64` counts, checked `i64`
//!    sums, `f64` sums and typed min/max. A `Value` state appears only
//!    where a column mixes runtime types.
//!
//! With a [`WorkerPool`] ([`GroupTable::consume_pooled`]), steps 1–2 run
//! on the workers, one morsel-local table per input batch; the local
//! group ids then map to global ids in morsel order, and step 3 runs in
//! row order. Group order and every accumulator's fold order are the
//! serial ones, so pooled results — `DOUBLE` sums included, whose
//! rounding depends on addition order — are bit-identical to serial
//! execution and to the oracle at every worker count.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use prisma_poolx::{Job, WorkerPool};
use prisma_types::{ColumnVec, LazyColumns, PrismaError, Result, SelVec, Value, ValueRef};

use crate::agg::{AggExpr, AggFunc};
use crate::exec::{Batch, BATCH_SIZE};

/// Directory slot holding no group.
const EMPTY: u32 = u32::MAX;

/// Grouping and aggregation state: group keys, hash directory, typed
/// accumulators (see the module docs).
pub struct GroupTable {
    /// Input ordinals of the key columns.
    key_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    /// One stored column per key column, one slot per group.
    keys: Vec<Store>,
    /// Per-group key hash (directory probes compare it before the keys,
    /// and growth rehashes from it).
    hashes: Vec<u64>,
    /// Open-addressing directory of group ids; a power-of-two length.
    dir: Vec<u32>,
    /// `64 - log2(dir.len())`: a hash's home slot is its top bits.
    shift: u32,
    /// One accumulator per aggregate, one slot per group.
    accs: Vec<Acc>,
}

impl GroupTable {
    /// Empty table grouping on `key_cols` and folding `aggs`. A global
    /// aggregate (no key columns) has exactly one group, present even
    /// over empty input — SQL's one-row answer.
    pub fn new(key_cols: Vec<usize>, aggs: Vec<AggExpr>) -> GroupTable {
        let mut table = GroupTable {
            keys: key_cols.iter().map(|_| Store::Null(0)).collect(),
            accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
            key_cols,
            aggs,
            hashes: Vec::new(),
            dir: vec![EMPTY; 16],
            shift: 64 - 4,
        };
        if table.key_cols.is_empty() {
            table.intern(KeyHasher::default().finish(), |_| ValueRef::Null);
        }
        table
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Group and fold one batch.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        let (cols, sel) = batch.to_columns();
        let mut gids = Vec::new();
        let keys: Vec<&ColumnVec> = self.key_cols.iter().map(|&c| &**cols.col(c)).collect();
        self.resolve(&keys, &sel, &mut gids);
        self.fold(&cols, &sel, &gids)
    }

    /// Group and fold a drained input on the pool: each batch is one
    /// morsel whose hashes and local group ids a worker computes (also
    /// pivoting the batch's aggregate inputs); the local ids then map to
    /// global ids, and the fold runs, in morsel and row order — exactly
    /// the serial [`GroupTable::consume`] sequence.
    pub fn consume_pooled(&mut self, pool: &WorkerPool, batches: &[Batch]) -> Result<()> {
        struct Morsel {
            cols: Arc<LazyColumns>,
            sel: SelVec,
            local: GroupTable,
            gids: Vec<u32>,
        }
        let mut morsels: Vec<Option<Morsel>> = batches.iter().map(|_| None).collect();
        {
            let key_cols = &self.key_cols;
            let aggs = &self.aggs;
            let jobs: Vec<Job> = morsels
                .iter_mut()
                .zip(batches)
                .map(|(slot, batch)| {
                    Box::new(move || {
                        let (cols, sel) = batch.to_columns();
                        for a in aggs.iter().filter(|a| a.func != AggFunc::CountStar) {
                            cols.col(a.col);
                        }
                        let mut local = GroupTable::new(key_cols.clone(), Vec::new());
                        let keys: Vec<&ColumnVec> =
                            key_cols.iter().map(|&c| &**cols.col(c)).collect();
                        let mut gids = Vec::new();
                        local.resolve(&keys, &sel, &mut gids);
                        *slot = Some(Morsel {
                            cols,
                            sel,
                            local,
                            gids,
                        });
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        for m in morsels.into_iter().flatten() {
            let local = &m.local;
            let to_global: Vec<u32> = (0..local.len())
                .map(|l| self.intern(local.hashes[l], |k| local.keys[k].get(l)))
                .collect();
            let gids: Vec<u32> = m.gids.iter().map(|&l| to_global[l as usize]).collect();
            self.fold(&m.cols, &m.sel, &gids)?;
        }
        Ok(())
    }

    /// The result: one row per group in first-seen order — key columns,
    /// then one column per aggregate — as columnar batches of at most
    /// [`BATCH_SIZE`] rows.
    pub fn into_batches(self) -> Vec<Batch> {
        let n = self.len();
        let cols: Vec<Arc<ColumnVec>> = self
            .keys
            .into_iter()
            .map(Store::finish)
            .chain(self.accs.into_iter().map(Acc::finish))
            .map(Arc::new)
            .collect();
        if n <= BATCH_SIZE {
            return if n == 0 {
                Vec::new()
            } else {
                vec![Batch::columns(cols, SelVec::all(n))]
            };
        }
        (0..n)
            .step_by(BATCH_SIZE)
            .map(|start| {
                let end = (start + BATCH_SIZE).min(n);
                let idx: Vec<u32> = (start as u32..end as u32).collect();
                Batch::columns(
                    cols.iter().map(|c| Arc::new(c.gather(&idx))).collect(),
                    SelVec::all(end - start),
                )
            })
            .collect()
    }

    /// Steps 1–2: the group id of every selected row of `keys`.
    fn resolve(&mut self, keys: &[&ColumnVec], sel: &SelVec, gids: &mut Vec<u32>) {
        gids.clear();
        if keys.is_empty() {
            gids.resize(sel.count(), 0);
            return;
        }
        let mut hashers = vec![KeyHasher::default(); sel.count()];
        for col in keys {
            hash_column(col, sel, &mut hashers);
        }
        gids.reserve(hashers.len());
        for (row, h) in sel.iter().zip(&hashers) {
            let h = h.finish();
            let found = self.find(h, |g| {
                self.keys
                    .iter()
                    .zip(keys)
                    .all(|(store, col)| store.eq_at(g, col, row))
            });
            gids.push(match found {
                Ok(g) => g,
                Err(slot) => self.add_group(slot, h, |k| keys[k].cell(row)),
            });
        }
    }

    /// The group whose key is `key(0..)`, added if new.
    fn intern<'a>(&mut self, h: u64, key: impl Fn(usize) -> ValueRef<'a>) -> u32 {
        let found = self.find(h, |g| {
            self.keys
                .iter()
                .enumerate()
                .all(|(k, store)| store.get(g) == key(k))
        });
        match found {
            Ok(g) => g,
            Err(slot) => self.add_group(slot, h, key),
        }
    }

    /// Probe for hash `h`: `Ok(group)` when `same_key` accepts a
    /// candidate, else `Err(slot)` — the empty slot a new group takes.
    fn find(&self, h: u64, same_key: impl Fn(usize) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.dir.len() - 1;
        let mut slot = home_slot(h, self.shift);
        loop {
            let g = self.dir[slot];
            if g == EMPTY {
                return Err(slot);
            }
            if self.hashes[g as usize] == h && same_key(g as usize) {
                return Ok(g);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append a group at directory `slot`, growing the directory to keep
    /// its load at most one half.
    fn add_group<'a>(&mut self, slot: usize, h: u64, key: impl Fn(usize) -> ValueRef<'a>) -> u32 {
        let g = u32::try_from(self.len()).expect("group count fits in u32");
        for (k, store) in self.keys.iter_mut().enumerate() {
            store.push(key(k));
        }
        for acc in &mut self.accs {
            acc.push_group();
        }
        self.hashes.push(h);
        self.dir[slot] = g;
        if self.len() * 2 > self.dir.len() {
            let size = self.dir.len() * 2;
            self.shift -= 1;
            self.dir = vec![EMPTY; size];
            for (g, &h) in self.hashes.iter().enumerate() {
                let mut slot = home_slot(h, self.shift);
                while self.dir[slot] != EMPTY {
                    slot = (slot + 1) & (size - 1);
                }
                self.dir[slot] = g as u32;
            }
        }
        g
    }

    /// Step 3: fold every aggregate's input over the group ids, in row
    /// order.
    fn fold(&mut self, cols: &LazyColumns, sel: &SelVec, gids: &[u32]) -> Result<()> {
        for (acc, a) in self.accs.iter_mut().zip(&self.aggs) {
            match acc {
                Acc::Count(counts) if a.func == AggFunc::CountStar => {
                    for &g in gids {
                        counts[g as usize] += 1;
                    }
                }
                Acc::Count(counts) => count_non_null(counts, cols.col(a.col), sel, gids),
                Acc::Sum(sums) => fold_sum(sums, cols.col(a.col), sel, gids)?,
                Acc::Avg(sums, counts) => {
                    let col = cols.col(a.col);
                    fold_sum(sums, col, sel, gids)?;
                    count_non_null(counts, col, sel, gids);
                }
                Acc::Min(mins) => fold_extreme(mins, cols.col(a.col), sel, gids, Ordering::Less)?,
                Acc::Max(maxs) => {
                    fold_extreme(maxs, cols.col(a.col), sel, gids, Ordering::Greater)?
                }
            }
        }
        Ok(())
    }
}

/// Home directory slot of hash `h`: the top bits of a Fibonacci
/// multiply, so every bit of the hash reaches the slot index.
#[inline]
fn home_slot(h: u64, shift: u32) -> usize {
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

/// The group table's key hasher: it is fed exactly the byte stream
/// `Value::hash` writes (tag byte, numeric value as `f64` bits, string
/// bytes), so equal `Value`s hash alike, but mixes a word per step
/// (FxHash's rotate-xor-multiply) instead of a byte — a 52-byte string
/// key costs 8 steps, not 53. Like the engine's other hash tables
/// (`prisma_storage::FnvBuild`) it is not built to resist keys crafted
/// to collide.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
}

/// Fold one key column into every selected row's running hash.
fn hash_column(col: &ColumnVec, sel: &SelVec, hashers: &mut [KeyHasher]) {
    // Typed no-NULL columns skip the per-row NULL test and the variant
    // dispatch of `cell`; the hash bytes are the same either way.
    match col {
        ColumnVec::Int { data, nulls: None } => {
            for (h, i) in hashers.iter_mut().zip(sel.iter()) {
                ValueRef::Int(data[i]).hash(h);
            }
        }
        ColumnVec::Str { data, nulls: None } => {
            for (h, i) in hashers.iter_mut().zip(sel.iter()) {
                ValueRef::Str(&data[i]).hash(h);
            }
        }
        _ => {
            for (h, i) in hashers.iter_mut().zip(sel.iter()) {
                col.cell(i).hash(h);
            }
        }
    }
}

/// Per-group state of one aggregate.
enum Acc {
    /// `COUNT(*)` and `COUNT(col)`.
    Count(Vec<i64>),
    /// `SUM(col)`: the running sum, NULL until the first non-NULL input.
    Sum(Store),
    /// `AVG(col)`: running sum and non-NULL count.
    Avg(Store, Vec<i64>),
    /// `MIN(col)`: the least value so far.
    Min(Store),
    /// `MAX(col)`: the greatest value so far.
    Max(Store),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Sum => Acc::Sum(Store::Null(0)),
            AggFunc::Avg => Acc::Avg(Store::Null(0), Vec::new()),
            AggFunc::Min => Acc::Min(Store::Null(0)),
            AggFunc::Max => Acc::Max(Store::Null(0)),
        }
    }

    fn push_group(&mut self) {
        match self {
            Acc::Count(counts) => counts.push(0),
            Acc::Sum(s) | Acc::Min(s) | Acc::Max(s) => s.push(ValueRef::Null),
            Acc::Avg(s, counts) => {
                s.push(ValueRef::Null);
                counts.push(0);
            }
        }
    }

    /// The aggregate's output column. Empty-input semantics follow SQL:
    /// COUNT is 0, everything else NULL.
    fn finish(self) -> ColumnVec {
        match self {
            Acc::Count(counts) => ColumnVec::Int {
                data: counts,
                nulls: None,
            },
            Acc::Sum(s) | Acc::Min(s) | Acc::Max(s) => s.finish(),
            Acc::Avg(sums, counts) => {
                let mut nulls = vec![false; counts.len()];
                let data = counts
                    .iter()
                    .enumerate()
                    .map(|(g, &n)| match sums.get(g) {
                        ValueRef::Null => {
                            nulls[g] = true;
                            0.0
                        }
                        s => s.as_double().unwrap_or(0.0) / n as f64,
                    })
                    .collect();
                ColumnVec::Double {
                    data,
                    nulls: nulls.contains(&true).then_some(nulls),
                }
            }
        }
    }
}

fn count_non_null(counts: &mut [i64], col: &ColumnVec, sel: &SelVec, gids: &[u32]) {
    for (i, &g) in sel.iter().zip(gids) {
        if !col.is_null_at(i) {
            counts[g as usize] += 1;
        }
    }
}

/// Fold a typed input column into a typed store of the same payload
/// type: a group's first non-NULL input initializes its slot, later ones
/// `step` it.
fn fold_typed<T: Clone>(
    acc: &mut [T],
    unset: &mut [bool],
    data: &[T],
    nulls: Option<&[bool]>,
    sel: &SelVec,
    gids: &[u32],
    mut step: impl FnMut(&mut T, &T) -> Result<()>,
) -> Result<()> {
    for (i, &g) in sel.iter().zip(gids) {
        if nulls.is_some_and(|n| n[i]) {
            continue;
        }
        let g = g as usize;
        if unset[g] {
            acc[g] = data[i].clone();
            unset[g] = false;
        } else {
            step(&mut acc[g], &data[i])?;
        }
    }
    Ok(())
}

fn sum_overflow(x: ValueRef<'_>) -> PrismaError {
    PrismaError::Arithmetic(format!("SUM overflow at {}", x.to_value()))
}

/// SUM: checked `i64` over `Int` input, `f64` over `Double` input; any
/// other pairing folds through `Value::add` (Int/Double coercion per
/// group, exactly as the oracle's accumulator).
fn fold_sum(sums: &mut Store, col: &ColumnVec, sel: &SelVec, gids: &[u32]) -> Result<()> {
    sums.adopt_type_of(col);
    match (sums, col) {
        (Store::Int(acc, unset), ColumnVec::Int { data, nulls }) => {
            fold_typed(acc, unset, data, nulls.as_deref(), sel, gids, |s, &x| {
                *s = s
                    .checked_add(x)
                    .ok_or_else(|| sum_overflow(ValueRef::Int(x)))?;
                Ok(())
            })
        }
        (Store::Double(acc, unset), ColumnVec::Double { data, nulls }) => {
            fold_typed(acc, unset, data, nulls.as_deref(), sel, gids, |s, &x| {
                *s += x;
                Ok(())
            })
        }
        (sums, col) => {
            for (i, &g) in sel.iter().zip(gids) {
                let x = col.cell(i);
                if x.is_null() {
                    continue;
                }
                let g = g as usize;
                let sum = match sums.get(g) {
                    ValueRef::Null => x.to_value(),
                    s => s
                        .to_value()
                        .add(&x.to_value())
                        .ok_or_else(|| sum_overflow(x))?,
                };
                sums.set(g, sum.view());
            }
            Ok(())
        }
    }
}

/// MIN (`want = Less`) or MAX (`want = Greater`) under `Value`'s total
/// order: a group's value is replaced only by a strictly better input,
/// so ties keep the first-seen value.
fn fold_extreme(
    best: &mut Store,
    col: &ColumnVec,
    sel: &SelVec,
    gids: &[u32],
    want: Ordering,
) -> Result<()> {
    best.adopt_type_of(col);
    match (best, col) {
        (Store::Int(acc, unset), ColumnVec::Int { data, nulls }) => {
            fold_typed(acc, unset, data, nulls.as_deref(), sel, gids, |m, x| {
                if x.cmp(m) == want {
                    *m = *x;
                }
                Ok(())
            })
        }
        (Store::Double(acc, unset), ColumnVec::Double { data, nulls }) => {
            fold_typed(acc, unset, data, nulls.as_deref(), sel, gids, |m, x| {
                if x.total_cmp(m) == want {
                    *m = *x;
                }
                Ok(())
            })
        }
        (Store::Str(acc, unset), ColumnVec::Str { data, nulls }) => {
            fold_typed(acc, unset, data, nulls.as_deref(), sel, gids, |m, x| {
                if x.as_str().cmp(m) == want {
                    m.clone_from(x);
                }
                Ok(())
            })
        }
        (best, col) => {
            for (i, &g) in sel.iter().zip(gids) {
                let x = col.cell(i);
                if x.is_null() {
                    continue;
                }
                let g = g as usize;
                let better = match best.get(g) {
                    ValueRef::Null => true,
                    m => x.total_cmp(m) == want,
                };
                if better {
                    best.set(g, x);
                }
            }
            Ok(())
        }
    }
}

/// A growable column with one slot per group, typed by the first
/// non-NULL value it receives and demoted to `Mixed` on a type conflict
/// (the rule [`ColumnVec::from_values`] applies to a whole column). In
/// the typed variants a set `unset` flag marks a NULL slot.
enum Store {
    /// Only NULLs so far: the type is still unknown.
    Null(usize),
    Int(Vec<i64>, Vec<bool>),
    Double(Vec<f64>, Vec<bool>),
    Bool(Vec<bool>, Vec<bool>),
    Str(Vec<String>, Vec<bool>),
    Mixed(Vec<Value>),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Null(n) => *n,
            Store::Int(d, _) => d.len(),
            Store::Double(d, _) => d.len(),
            Store::Bool(d, _) => d.len(),
            Store::Str(d, _) => d.len(),
            Store::Mixed(v) => v.len(),
        }
    }

    /// Slot `g`, borrowed.
    #[inline]
    fn get(&self, g: usize) -> ValueRef<'_> {
        match self {
            Store::Null(_) => ValueRef::Null,
            Store::Int(_, unset)
            | Store::Double(_, unset)
            | Store::Bool(_, unset)
            | Store::Str(_, unset)
                if unset[g] =>
            {
                ValueRef::Null
            }
            Store::Int(d, _) => ValueRef::Int(d[g]),
            Store::Double(d, _) => ValueRef::Double(d[g]),
            Store::Bool(d, _) => ValueRef::Bool(d[g]),
            Store::Str(d, _) => ValueRef::Str(&d[g]),
            Store::Mixed(v) => v[g].view(),
        }
    }

    /// Whether slot `g` equals row `i` of `col` under `Value` equality;
    /// same-typed `Int`/`Str` pairs compare payloads directly.
    #[inline]
    fn eq_at(&self, g: usize, col: &ColumnVec, i: usize) -> bool {
        fn same<T: PartialEq>(
            d: &[T],
            unset: &[bool],
            g: usize,
            data: &[T],
            nulls: &Option<Vec<bool>>,
            i: usize,
        ) -> bool {
            let null = nulls.as_ref().is_some_and(|n| n[i]);
            if unset[g] || null {
                unset[g] == null
            } else {
                d[g] == data[i]
            }
        }
        match (self, col) {
            (Store::Int(d, unset), ColumnVec::Int { data, nulls }) => {
                same(d, unset, g, data, nulls, i)
            }
            (Store::Str(d, unset), ColumnVec::Str { data, nulls }) => {
                same(d, unset, g, data, nulls, i)
            }
            _ => self.get(g) == col.cell(i),
        }
    }

    /// Before a fold over `col`: an untyped store takes `col`'s type, so
    /// the typed fold loops apply from the first batch on.
    fn adopt_type_of(&mut self, col: &ColumnVec) {
        let Store::Null(n) = *self else { return };
        *self = match col {
            ColumnVec::Int { .. } => Store::Int(vec![0; n], vec![true; n]),
            ColumnVec::Double { .. } => Store::Double(vec![0.0; n], vec![true; n]),
            ColumnVec::Bool { .. } => Store::Bool(vec![false; n], vec![true; n]),
            ColumnVec::Str { .. } => Store::Str(vec![String::new(); n], vec![true; n]),
            ColumnVec::Mixed(_) => return,
        };
    }

    /// The store retyped for non-NULL `v` (from `Null`) or demoted to
    /// `Mixed` (from a typed variant `v` does not fit).
    fn retype_for(&mut self, v: ValueRef<'_>) {
        *self = match (&*self, v) {
            (Store::Null(n), ValueRef::Int(_)) => Store::Int(vec![0; *n], vec![true; *n]),
            (Store::Null(n), ValueRef::Double(_)) => Store::Double(vec![0.0; *n], vec![true; *n]),
            (Store::Null(n), ValueRef::Bool(_)) => Store::Bool(vec![false; *n], vec![true; *n]),
            (Store::Null(n), ValueRef::Str(_)) => {
                Store::Str(vec![String::new(); *n], vec![true; *n])
            }
            _ => Store::Mixed((0..self.len()).map(|g| self.get(g).to_value()).collect()),
        };
    }

    /// Append a NULL slot, then set it to `v`.
    fn push(&mut self, v: ValueRef<'_>) {
        match self {
            Store::Null(n) => *n += 1,
            Store::Int(d, unset) => {
                d.push(0);
                unset.push(true);
            }
            Store::Double(d, unset) => {
                d.push(0.0);
                unset.push(true);
            }
            Store::Bool(d, unset) => {
                d.push(false);
                unset.push(true);
            }
            Store::Str(d, unset) => {
                d.push(String::new());
                unset.push(true);
            }
            Store::Mixed(vals) => vals.push(Value::Null),
        }
        if !v.is_null() {
            self.set(self.len() - 1, v);
        }
    }

    /// Overwrite slot `g` with non-NULL `v`.
    fn set(&mut self, g: usize, v: ValueRef<'_>) {
        match (&mut *self, v) {
            (Store::Int(d, unset), ValueRef::Int(x)) => {
                d[g] = x;
                unset[g] = false;
            }
            (Store::Double(d, unset), ValueRef::Double(x)) => {
                d[g] = x;
                unset[g] = false;
            }
            (Store::Bool(d, unset), ValueRef::Bool(x)) => {
                d[g] = x;
                unset[g] = false;
            }
            (Store::Str(d, unset), ValueRef::Str(x)) => {
                d[g].clear();
                d[g].push_str(x);
                unset[g] = false;
            }
            (Store::Mixed(vals), v) => vals[g] = v.to_value(),
            (_, v) => {
                self.retype_for(v);
                self.set(g, v);
            }
        }
    }

    /// The finished column (a mask only when some slot is NULL).
    fn finish(self) -> ColumnVec {
        let mask = |unset: Vec<bool>| unset.contains(&true).then_some(unset);
        match self {
            Store::Null(n) => ColumnVec::Mixed(vec![Value::Null; n]),
            Store::Int(data, unset) => ColumnVec::Int {
                data,
                nulls: mask(unset),
            },
            Store::Double(data, unset) => ColumnVec::Double {
                data,
                nulls: mask(unset),
            },
            Store::Bool(data, unset) => ColumnVec::Bool {
                data,
                nulls: mask(unset),
            },
            Store::Str(data, unset) => ColumnVec::Str {
                data,
                nulls: mask(unset),
            },
            Store::Mixed(vals) => ColumnVec::Mixed(vals),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use prisma_types::{tuple, Column, DataType, Schema, Tuple};

    use super::*;
    use crate::eval::eval;
    use crate::exec::open_batches_pooled;
    use crate::physical::lower;
    use crate::plan::LogicalPlan;
    use crate::table::Relation;

    fn col(vals: &[Value]) -> Arc<ColumnVec> {
        Arc::new(ColumnVec::from_values(vals.iter()))
    }

    fn rows_of(table: GroupTable) -> Vec<Tuple> {
        table
            .into_batches()
            .into_iter()
            .flat_map(Batch::into_tuples)
            .collect()
    }

    fn agg(func: AggFunc, col: usize) -> AggExpr {
        AggExpr::new(func, col, "a")
    }

    #[test]
    fn group_identity_follows_value_equality_across_column_encodings() {
        // Batch 1 stores its key column as typed INT; batch 2 holds
        // Int(1), Double(1.0) and NULL in a MIXED column.
        let typed = Batch::columns(
            vec![
                col(&[Value::Int(1), Value::Int(2), Value::Null]),
                col(&[Value::Int(10), Value::Int(20), Value::Int(30)]),
            ],
            SelVec::all(3),
        );
        let mixed_keys = vec![Value::Int(1), Value::Double(1.0), Value::Null];
        let mixed = Batch::columns(
            vec![
                Arc::new(ColumnVec::Mixed(mixed_keys.clone())),
                col(&[Value::Int(1), Value::Int(2), Value::Int(3)]),
            ],
            SelVec::all(3),
        );
        assert!(matches!(
            *typed.to_columns().0.col(0).clone(),
            ColumnVec::Int { .. }
        ));
        let mut table = GroupTable::new(
            vec![0],
            vec![agg(AggFunc::CountStar, 0), agg(AggFunc::Sum, 1)],
        );
        table.consume(&typed).unwrap();
        table.consume(&mixed).unwrap();
        assert_eq!(
            rows_of(table),
            vec![
                tuple![1i64, 3i64, 13i64],
                tuple![2i64, 1i64, 20i64],
                Tuple::new(vec![Value::Null, Value::Int(2), Value::Int(33)]),
            ]
        );
        // The column-at-a-time hash is that of the row's key value, and
        // equal keys hash alike whatever the column's storage.
        let hashes = |batch: &Batch| {
            let (cols, sel) = batch.to_columns();
            let mut hashers = vec![KeyHasher::default(); sel.count()];
            hash_column(cols.col(0), &sel, &mut hashers);
            for (row, h) in hashers.iter().enumerate() {
                let mut one = KeyHasher::default();
                batch.value_at(row, 0).hash(&mut one);
                assert_eq!(h.finish(), one.finish());
            }
            hashers.iter().map(Hasher::finish).collect::<Vec<u64>>()
        };
        let (typed, mixed) = (hashes(&typed), hashes(&mixed));
        assert_eq!(
            [mixed[0], mixed[1], mixed[2]],
            [typed[0], typed[0], typed[2]]
        );
    }

    #[test]
    fn multi_column_keys_and_string_min_max() {
        let rows: Vec<Tuple> = (0..40_i64)
            .map(|i| {
                tuple![
                    i % 2,
                    format!("k{}", i % 3),
                    format!("v{:02}", (i * 7) % 40)
                ]
            })
            .collect();
        let batch = Batch::owned(rows);
        let mut table = GroupTable::new(
            vec![0, 1],
            vec![
                agg(AggFunc::CountStar, 0),
                agg(AggFunc::Min, 2),
                agg(AggFunc::Max, 2),
            ],
        );
        table.consume(&batch).unwrap();
        let got = rows_of(table);
        assert_eq!(got.len(), 6);
        // Group (0, "k0") holds i = 0, 6, 12, .., 36: v-values (7i % 40).
        let (lo, hi) = (0..40_i64)
            .filter(|i| i % 2 == 0 && i % 3 == 0)
            .map(|i| format!("v{:02}", (i * 7) % 40))
            .fold((String::from("~"), String::new()), |(lo, hi), v| {
                (lo.min(v.clone()), hi.max(v))
            });
        assert_eq!(got[0], tuple![0i64, "k0", 7i64, lo.as_str(), hi.as_str()]);
    }

    #[test]
    fn count_star_counts_null_rows_and_empty_global_is_one_row() {
        let batch = Batch::owned(vec![
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(4)]),
            Tuple::new(vec![Value::Null]),
        ]);
        let aggs = || {
            vec![
                agg(AggFunc::CountStar, 0),
                agg(AggFunc::Count, 0),
                agg(AggFunc::Sum, 0),
                agg(AggFunc::Avg, 0),
                agg(AggFunc::Min, 0),
            ]
        };
        let mut table = GroupTable::new(vec![], aggs());
        table.consume(&batch).unwrap();
        assert_eq!(
            rows_of(table),
            vec![Tuple::new(vec![
                Value::Int(3),
                Value::Int(1),
                Value::Int(4),
                Value::Double(4.0),
                Value::Int(4),
            ])]
        );
        // No input at all: still exactly one row, COUNTs 0, the rest NULL.
        assert_eq!(
            rows_of(GroupTable::new(vec![], aggs())),
            vec![Tuple::new(vec![
                Value::Int(0),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
            ])]
        );
        // A grouped aggregate over no input has no rows.
        assert!(rows_of(GroupTable::new(vec![0], aggs())).is_empty());
    }

    #[test]
    fn avg_over_int_sums_in_checked_i64() {
        // 2^53 + 1 + 1 is exact in i64 but not in f64 (2^53 + 1 rounds
        // back down to 2^53 at every step).
        let big = 1_i64 << 53;
        let batch = Batch::owned(vec![tuple![big], tuple![1i64], tuple![1i64]]);
        let mut table = GroupTable::new(vec![], vec![agg(AggFunc::Avg, 0), agg(AggFunc::Sum, 0)]);
        table.consume(&batch).unwrap();
        let expected = (big + 2) as f64 / 3.0;
        assert_ne!(expected, (big as f64 + 1.0 + 1.0) / 3.0);
        assert_eq!(rows_of(table), vec![tuple![expected, big + 2]]);
    }

    fn numbers_db(values: impl Iterator<Item = Tuple>) -> HashMap<String, Relation> {
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("x", DataType::Double),
            Column::new("i", DataType::Int),
        ]);
        HashMap::from([("t".to_owned(), Relation::new(schema, values.collect()))])
    }

    fn pooled_rows(
        plan: &LogicalPlan,
        db: &HashMap<String, Relation>,
        workers: Option<usize>,
    ) -> Result<Vec<Tuple>> {
        let pool = workers.map(WorkerPool::new);
        let batches = open_batches_pooled(&lower(plan)?, db, pool)?.drain()?;
        Ok(batches.into_iter().flat_map(Batch::into_tuples).collect())
    }

    #[test]
    fn pooled_double_sums_are_bit_identical_to_serial_and_oracle() {
        // Non-dyadic doubles: every addition rounds, so a fold that
        // re-associates across morsel boundaries would differ by worker
        // count.
        let db = numbers_db((0..20_000_i64).map(|i| tuple![i % 3, i as f64 * 0.1 + 1e-3, i]));
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", db["t"].schema().clone())),
            group_by: vec![0],
            aggs: vec![
                agg(AggFunc::Sum, 1),
                agg(AggFunc::Avg, 1),
                agg(AggFunc::Avg, 2),
            ],
        };
        let serial = pooled_rows(&plan, &db, None).unwrap();
        assert_eq!(serial, eval(&plan, &db).unwrap().tuples());
        for workers in [1, 2, 4] {
            assert_eq!(
                pooled_rows(&plan, &db, Some(workers)).unwrap(),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn sum_overflow_is_an_arithmetic_error_serial_and_pooled() {
        // The overflowing row sits in the third morsel.
        let db = numbers_db((0..3000_i64).map(|i| {
            let v = if i == 2500 || i == 10 {
                i64::MAX / 2 + 1
            } else {
                1
            };
            tuple![0i64, 0.5, v]
        }));
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", db["t"].schema().clone())),
            group_by: vec![0],
            aggs: vec![agg(AggFunc::Sum, 2)],
        };
        assert!(matches!(eval(&plan, &db), Err(PrismaError::Arithmetic(_))));
        for workers in [None, Some(1), Some(2), Some(4)] {
            let got = pooled_rows(&plan, &db, workers);
            assert!(
                matches!(got, Err(PrismaError::Arithmetic(_))),
                "{workers:?}: {got:?}"
            );
        }
    }
}
