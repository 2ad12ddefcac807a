//! The benchmark's client: it sends one op at a time through the public
//! layer entry points, with a span around each call when tracing.
//!
//! Traced and untraced runs make exactly the same calls; tracing adds
//! the spans, the ledger and pool reads around each op, and the
//! side-measured optimizer passes after it.

use std::time::Instant;

use prisma_core::optimizer::{lower_physical, Optimizer, PhysicalConfig};
use prisma_core::poolx::PoolStats;
use prisma_core::relalg::{LogicalPlan, Relation};
use prisma_core::sqlfe::{self, PlannedStatement};
use prisma_core::{prismalog, PrismaError, PrismaMachine, Result, TxnId};

use crate::metrics::PerOp;
use crate::trace::Tracer;
use crate::workload::{Class, Op, Outcome, Request};

/// Interconnect counters of the machine's `TrafficLedger`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Net {
    /// Remote messages.
    pub messages: u64,
    /// Remote payload bytes.
    pub bytes: u64,
    /// Bytes times hops.
    pub byte_hops: u64,
    /// Modeled transfer nanoseconds.
    pub transfer_ns: f64,
}

impl Net {
    /// Current counters of `db`.
    pub fn of(db: &PrismaMachine) -> Net {
        let l = db.gdh().ledger();
        Net {
            messages: l.remote_messages(),
            bytes: l.remote_bytes(),
            byte_hops: l.byte_hops(),
            transfer_ns: l.est_transfer_ns(),
        }
    }
}

/// Sends ops to one machine.
pub struct Client<'a> {
    db: &'a PrismaMachine,
    classes: &'static [Class],
    /// Spans of every op so far.
    pub tracer: Tracer,
    next_op: u64,
}

fn not_a(what: &str, sql: &str) -> PrismaError {
    PrismaError::Execution(format!("not {what}: {sql}"))
}

impl<'a> Client<'a> {
    /// A client of `db` running ops of `classes`.
    pub fn new(db: &'a PrismaMachine, classes: &'static [Class], tracer: Tracer) -> Client<'a> {
        Client {
            db,
            classes,
            tracer,
            next_op: 0,
        }
    }

    /// Run one op; the record holds layer figures only when tracing.
    pub fn run(&mut self, op: &Op) -> (Result<Outcome>, PerOp) {
        let traced = self.tracer.is_on();
        let id = self.next_op;
        self.next_op += 1;
        let mut rec = PerOp {
            class: op.class,
            ..PerOp::default()
        };
        let before = traced.then(|| (Net::of(self.db), self.db.gdh().pools().total_stats()));
        let started = Instant::now();
        let root = self.tracer.begin(self.classes[op.class].span, id);
        let mut plan = None;
        let result = self.call(id, &op.request, &mut rec, &mut plan);
        let root_us = self.tracer.end(root);
        rec.wall_us = if traced {
            root_us
        } else {
            started.elapsed().as_secs_f64() * 1e6
        };
        if let Some((net, pool)) = before {
            let now = Net::of(self.db);
            rec.remote_messages = (now.messages - net.messages) as f64;
            rec.remote_bytes = (now.bytes - net.bytes) as f64;
            rec.byte_hops = (now.byte_hops - net.byte_hops) as f64;
            rec.modeled_transfer_us = (now.transfer_ns - net.transfer_ns) / 1e3;
            pool_delta(&pool, &self.db.gdh().pools().total_stats(), &mut rec);
            if let Some(plan) = plan {
                self.side_measure(id, &plan, &mut rec);
            }
        }
        (result, rec)
    }

    fn call(
        &mut self,
        op: u64,
        request: &Request,
        rec: &mut PerOp,
        plan_out: &mut Option<LogicalPlan>,
    ) -> Result<Outcome> {
        let db = self.db;
        let dict = &**db.gdh().dictionary();
        let t = &mut self.tracer;
        let plan = match request {
            Request::Sql(sql) => {
                let s = t.begin("sqlfe.compile", op);
                let planned = sqlfe::compile(sql, dict);
                rec.sqlfe_us += t.end(s);
                match planned? {
                    PlannedStatement::Query(plan) => plan,
                    _ => return Err(not_a("a query", sql)),
                }
            }
            Request::Rules { program, query } => {
                let s = t.begin("prismalog.parse_program", op);
                let program = prismalog::parse_program(program);
                rec.prismalog_us += t.end(s);
                let s = t.begin("prismalog.parse_query", op);
                let query = prismalog::parse_query(query);
                rec.prismalog_us += t.end(s);
                let (program, query) = (program?, query?);
                let s = t.begin("prismalog.compile_query", op);
                let plan = prismalog::compile_query(&program, &query, dict);
                rec.prismalog_us += t.end(s);
                plan?
            }
            Request::Transfer { updates, .. } => {
                let txn = db.begin();
                let result = self.transfer(op, txn, updates, rec);
                if result.is_err() {
                    let _ = db.abort(txn);
                }
                return result;
            }
        };
        let s = t.begin("gdh.query", op);
        let result = db.gdh().query(&plan);
        rec.query_us += t.end(s);
        let (rows, m): (Relation, _) = result?;
        rec.exec_us = m.full_result_micros as f64;
        rec.first_batch_us = m.first_batch_micros as f64;
        rec.fragment_tasks = m.fragment_tasks as f64;
        rec.tuples_shipped = m.tuples_shipped as f64;
        rec.batches_shipped = m.batches_shipped as f64;
        rec.max_in_flight = m.max_in_flight_streams as f64;
        rec.chunks_scanned = m.chunks_scanned as f64;
        rec.chunks_pruned = m.chunks_pruned as f64;
        rec.partitioned_joins = m.partitioned_joins as f64;
        rec.broadcast_joins = m.broadcast_joins as f64;
        rec.shuffled_bytes = m.shuffled_direct_bits as f64 / 8.0;
        rec.max_site_shuffled_bytes = m.max_site_shuffled_bits as f64 / 8.0;
        *plan_out = Some(plan);
        Ok(Outcome::Rows(rows))
    }

    /// Two point UPDATEs and the 2PC commit of one transfer.
    fn transfer(
        &mut self,
        op: u64,
        txn: TxnId,
        updates: &[String; 2],
        rec: &mut PerOp,
    ) -> Result<Outcome> {
        let db = self.db;
        let dict = &**db.gdh().dictionary();
        let t = &mut self.tracer;
        let mut affected = [0; 2];
        for (slot, sql) in affected.iter_mut().zip(updates) {
            let s = t.begin("sqlfe.compile", op);
            let planned = sqlfe::compile(sql, dict);
            rec.sqlfe_us += t.end(s);
            let PlannedStatement::Update {
                table,
                assignments,
                predicate,
            } = planned?
            else {
                return Err(not_a("an UPDATE", sql));
            };
            let s = t.begin("gdh.update", op);
            let n = db.gdh().update(txn, &table, assignments, predicate);
            rec.dml_us += t.end(s);
            *slot = n?;
        }
        let before = t.is_on().then(|| Net::of(db));
        let s = t.begin("txn.commit", op);
        let committed = db.gdh().commit(txn);
        rec.commit_us += t.end(s);
        if let Some(before) = before {
            let now = Net::of(db);
            rec.commit_messages = (now.messages - before.messages) as f64;
            rec.commit_bytes = (now.bytes - before.bytes) as f64;
        }
        committed?;
        Ok(Outcome::Committed(affected))
    }

    /// Optimize and lower the op's plan again, outside the op's span:
    /// `GlobalDataHandler::query` runs both inside, where the benchmark
    /// cannot time them.
    fn side_measure(&mut self, op: u64, plan: &LogicalPlan, rec: &mut PerOp) {
        let dict = &**self.db.gdh().dictionary();
        let s = self.tracer.begin("optimizer.optimize", op);
        let optimized = Optimizer::new(dict).optimize(plan);
        rec.optimize_us = self.tracer.end(s);
        if let Ok((optimized, mut trace)) = optimized {
            let s = self.tracer.begin("optimizer.lower_physical", op);
            let lowered = lower_physical(&optimized, dict, PhysicalConfig::default(), &mut trace);
            rec.lower_us = self.tracer.end(s);
            std::hint::black_box(lowered.is_ok());
        }
    }
}

/// Fold the pool counters' change over one op into `rec`.
fn pool_delta(before: &PoolStats, after: &PoolStats, rec: &mut PerOp) {
    rec.morsels = (after.morsels - before.morsels) as f64;
    rec.steals = (after.steals - before.steals) as f64;
    let busy: Vec<u64> = after
        .busy_nanos
        .iter()
        .enumerate()
        .map(|(i, b)| b - before.busy_nanos.get(i).copied().unwrap_or(0))
        .collect();
    rec.busy_us = busy.iter().sum::<u64>() as f64 / 1e3;
    rec.busy_max_us = busy.iter().copied().max().unwrap_or(0) as f64 / 1e3;
    rec.pool_workers = after.workers as f64;
}
