//! The three workloads: their data, their op streams, and the answer
//! every op must return.
//!
//! Inputs come only from the seed. Read answers are computed before the
//! timed loop with the reference evaluator (`relalg::eval`) over the
//! same generated relations; the bank keeps a client-side model of every
//! balance.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use prisma_core::optimizer::stats::NoStats;
use prisma_core::optimizer::{Optimizer, OptimizerConfig};
use prisma_core::relalg::{eval, LogicalPlan, Relation};
use prisma_core::sqlfe::{self, PlannedStatement};
use prisma_core::types::{Schema, Tuple};
use prisma_core::workload::{
    accounts_rows, accounts_schema, edge_schema, graph_edges, transfer_stream, wisconsin_rows,
    wisconsin_schema, GraphShape, Transfer,
};
use prisma_core::{prismalog, PrismaError, PrismaMachine};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::machine::FRAGMENTS;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only scans, range selections and aggregates on one relation.
    ScanMix,
    /// Read-only grace and broadcast joins plus a PRISMAlog closure.
    JoinMix,
    /// Transfers in 2PC transactions beside point reads and audits.
    BankOltp,
}

/// A class of ops; latencies and layer figures are also split by class.
#[derive(Debug)]
pub struct Class {
    /// Class name.
    pub name: &'static str,
    /// Name of the root span of each of its ops.
    pub span: &'static str,
}

const SCAN_CLASSES: [Class; 4] = [
    Class {
        name: "agg",
        span: "op.agg",
    },
    Class {
        name: "range_u2",
        span: "op.range_u2",
    },
    Class {
        name: "range_u1",
        span: "op.range_u1",
    },
    Class {
        name: "full",
        span: "op.full",
    },
];
const JOIN_CLASSES: [Class; 3] = [
    Class {
        name: "grace",
        span: "op.grace",
    },
    Class {
        name: "bcast",
        span: "op.bcast",
    },
    Class {
        name: "closure",
        span: "op.closure",
    },
];
const BANK_CLASSES: [Class; 3] = [
    Class {
        name: "transfer",
        span: "op.transfer",
    },
    Class {
        name: "balance",
        span: "op.balance",
    },
    Class {
        name: "audit",
        span: "op.audit",
    },
];

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::ScanMix, Kind::JoinMix, Kind::BankOltp];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanMix => "scan_mix",
            Kind::JoinMix => "join_mix",
            Kind::BankOltp => "bank_oltp",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One round of the class rotation, weighted so that the p50 and p90
    /// fall inside one class's spread of latencies rather than on the
    /// step between two classes, where they would jump between runs.
    fn round(self) -> &'static [usize] {
        match self {
            // agg, range_u2 twice, range_u1 twice, full.
            Kind::ScanMix => &[0, 1, 1, 2, 2, 3],
            Kind::JoinMix => &[0, 1, 2],
            // The bank's stream is a fixed sequence, not a rotation.
            Kind::BankOltp => &[],
        }
    }

    /// The workload's op classes.
    pub fn classes(self) -> &'static [Class] {
        match self {
            Kind::ScanMix => &SCAN_CLASSES,
            Kind::JoinMix => &JOIN_CLASSES,
            Kind::BankOltp => &BANK_CLASSES,
        }
    }
}

/// Data sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the `scan_mix` relation.
    pub scan_rows: usize,
    /// Rows of each `join_mix` relation.
    pub join_rows: usize,
    /// Nodes of the `join_mix` binary tree.
    pub tree_nodes: usize,
    /// `bank_oltp` accounts.
    pub accounts: usize,
    /// Seeded variants per parameterised read class.
    pub variants: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub const STANDARD: Sizes = Sizes {
        scan_rows: 100_000,
        join_rows: 40_000,
        tree_nodes: 4095,
        accounts: 20_000,
        variants: 8,
    };

    /// Sizes for a smoke test.
    pub const TINY: Sizes = Sizes {
        scan_rows: 3000,
        join_rows: 1500,
        tree_nodes: 63,
        accounts: 200,
        variants: 2,
    };
}

/// Order-independent digest of a result: row count, arity and two
/// multiset sums of per-row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    rows: usize,
    arity: usize,
    sum: u64,
    mixed: u64,
}

impl Fingerprint {
    /// Digest of `rel`.
    pub fn of(rel: &Relation) -> Fingerprint {
        let mut fp = Fingerprint {
            rows: rel.len(),
            arity: rel.schema().arity(),
            sum: 0,
            mixed: 0,
        };
        for t in rel.tuples() {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            let h = h.finish();
            fp.sum = fp.sum.wrapping_add(h);
            fp.mixed = fp.mixed.wrapping_add(h.wrapping_mul(h | 1).rotate_left(29));
        }
        fp
    }
}

/// What an op sends to the machine.
#[derive(Debug, Clone)]
pub enum Request {
    /// One SQL query.
    Sql(String),
    /// A PRISMAlog program and query.
    Rules {
        /// The rules.
        program: &'static str,
        /// The query atom.
        query: String,
    },
    /// A transfer: two UPDATE statements and a commit.
    Transfer {
        /// Debit and credit statements.
        updates: [String; 2],
        /// The transfer, for the balance model.
        transfer: Transfer,
    },
}

/// What an op got back.
#[derive(Debug)]
pub enum Outcome {
    /// Query rows.
    Rows(Relation),
    /// Rows affected by each UPDATE of a committed transfer.
    Committed([usize; 2]),
}

/// How an op's answer is checked.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Equal to a precomputed reference answer.
    Rows(Fingerprint),
    /// The transfer's two updates each hit one row.
    Transfer,
    /// One row holding the model balance of the account.
    Balance(i64),
    /// Branch totals equal to the model's.
    Audit,
}

/// One op of the stream.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Kind::classes`].
    pub class: usize,
    /// What to send.
    pub request: Request,
    expect: Expect,
}

/// A read with its reference answer.
#[derive(Debug, Clone)]
struct Read {
    request: Request,
    expect: Fingerprint,
}

const CLOSURE_RULES: &str = "path(X,Y) :- e(X,Y). path(X,Y) :- e(X,Z), path(Z,Y).";
const AUDIT_SQL: &str = "SELECT branch, SUM(balance) AS total FROM accounts GROUP BY branch";
/// `bank_oltp` branches.
const BRANCHES: usize = 16;
const INITIAL_BALANCE: i64 = 1000;

/// Balances as the client believes them to be.
#[derive(Debug)]
struct Bank {
    balances: Vec<i64>,
    transfers: Vec<Transfer>,
    next_transfer: usize,
    /// Account to read back after the last transfer.
    pending_read: Option<i64>,
    ops: u64,
}

impl Bank {
    fn total(&self) -> i64 {
        self.balances.iter().sum()
    }

    fn branch_totals(&self) -> Vec<i64> {
        let mut totals = vec![0; BRANCHES];
        for (id, b) in self.balances.iter().enumerate() {
            totals[id % BRANCHES] += b;
        }
        totals
    }
}

/// A workload's data, op stream and answer checks.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    tables: Vec<Table>,
    reads: Vec<Vec<Read>>,
    bank: Option<Bank>,
    rng: StdRng,
    /// Classes left in this round of the rotation.
    rotation: Vec<usize>,
    /// Per class, variants left in its round.
    variants: Vec<Vec<usize>>,
}

#[derive(Debug)]
struct Table {
    ddl: String,
    name: &'static str,
    rows: Vec<Tuple>,
}

fn table(name: &'static str, cols: &str, key: &str, rows: Vec<Tuple>) -> Table {
    Table {
        ddl: format!("CREATE TABLE {name} ({cols}) FRAGMENTED BY HASH({key}) INTO {FRAGMENTS}"),
        name,
        rows,
    }
}

const WISC_COLS: &str = "unique1 INT, unique2 INT, two INT, ten INT, hundred INT, string4 STRING";

/// Fisher-Yates shuffle.
fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The next entry of a round, starting a freshly shuffled round of
/// `items` when `round` is empty.
fn next_in_round(
    round: &mut Vec<usize>,
    items: impl IntoIterator<Item = usize>,
    rng: &mut StdRng,
) -> usize {
    if round.is_empty() {
        round.extend(items);
        shuffle(round, rng);
    }
    round.pop().expect("refilled above")
}

/// Range `i` of `count` over `0..n`: widths step evenly from 1% to 5%
/// of `n` and only the placement is seeded, so every seed's set of
/// ranges costs about the same.
fn range(rng: &mut StdRng, n: usize, i: usize, count: usize) -> (usize, usize) {
    let permille = 10 + 40 * i / (count - 1).max(1);
    let width = (n * permille / 1000).max(1);
    let lo = rng.gen_range(0..=n - width);
    (lo, lo + width - 1)
}

impl Workload {
    /// Generate the data and op parameters of `kind` from `seed` and
    /// compute every read's reference answer (untimed).
    pub fn new(kind: Kind, sizes: Sizes, seed: u64) -> Result<Workload, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bank = None;
        let (tables, texts): (Vec<Table>, Vec<Vec<Request>>) = match kind {
            Kind::ScanMix => {
                let n = sizes.scan_rows;
                let agg = ["ten", "hundred", "two, string4", "string4"]
                    .map(|g| {
                        Request::Sql(format!(
                            "SELECT {g}, COUNT(*) AS n, SUM(unique1) AS s, MIN(unique2) AS lo, \
                             MAX(unique2) AS hi FROM wisc GROUP BY {g}"
                        ))
                    })
                    .to_vec();
                let mut ranges = |col: &str| -> Vec<Request> {
                    (0..sizes.variants)
                        .map(|i| {
                            let (lo, hi) = range(&mut rng, n, i, sizes.variants);
                            Request::Sql(format!(
                                "SELECT unique1, unique2, hundred FROM wisc \
                                 WHERE {col} BETWEEN {lo} AND {hi}"
                            ))
                        })
                        .collect()
                };
                let u2 = ranges("unique2");
                let u1 = ranges("unique1");
                let full = vec![
                    Request::Sql(
                        "SELECT unique1, unique2, two, ten, hundred, string4 FROM wisc".into(),
                    ),
                    Request::Sql("SELECT unique2, ten, string4 FROM wisc".into()),
                ];
                // Loaded in unique2 order, so sealed chunks are clustered
                // on unique2 and zone maps can refute unique2 ranges.
                let rows = wisconsin_rows(n, seed);
                (
                    vec![table("wisc", WISC_COLS, "unique1", rows)],
                    vec![agg, u2, u1, full],
                )
            }
            Kind::JoinMix => {
                let n = sizes.join_rows;
                let keys = [
                    ("unique1", "unique1"),
                    ("unique1", "unique2"),
                    ("unique2", "unique1"),
                    ("unique2", "unique2"),
                ];
                let mut grace = Vec::new();
                for (k1, k2) in keys {
                    for g in ["ten", "hundred"] {
                        grace.push(Request::Sql(format!(
                            "SELECT a.{g}, COUNT(*) AS n, SUM(b.hundred) AS s FROM wa a, wb b \
                             WHERE a.{k1} = b.{k2} GROUP BY a.{g}"
                        )));
                    }
                }
                // A build side of 1% of the relation (one `hundred` value),
                // which the optimizer estimates from the column's distinct
                // count and so broadcasts. A `BETWEEN` on `unique2` of the
                // same size is estimated as two independent ranges and
                // would be partitioned instead.
                let bcast = (0..sizes.variants)
                    .map(|_| {
                        let k = rng.gen_range(0..100);
                        Request::Sql(format!(
                            "SELECT a.unique2, a.ten, b.string4 FROM wa a, wb b \
                             WHERE a.unique1 = b.unique1 AND b.hundred = {k}"
                        ))
                    })
                    .collect();
                // Roots of large subtrees, depths 0-3 in turn (a node at
                // depth d is one of 2^d - 1 ..= 2^(d+1) - 2), then the
                // whole closure.
                let mut closure: Vec<Request> = (0..sizes.variants)
                    .map(|i| {
                        let depth = (i % 4) as u32;
                        let first = (1usize << depth) - 1;
                        let root = rng.gen_range(first..=2 * first);
                        Request::Rules {
                            program: CLOSURE_RULES,
                            query: format!("?- path({root}, Y)."),
                        }
                    })
                    .collect();
                closure.push(Request::Rules {
                    program: CLOSURE_RULES,
                    query: "?- path(X, Y).".into(),
                });
                (
                    vec![
                        table("wa", WISC_COLS, "unique1", wisconsin_rows(n, seed)),
                        table(
                            "wb",
                            WISC_COLS,
                            "unique1",
                            wisconsin_rows(n, rng.next_u64()),
                        ),
                        table(
                            "e",
                            "src INT, dst INT",
                            "src",
                            graph_edges(GraphShape::BinaryTree, sizes.tree_nodes, seed),
                        ),
                    ],
                    vec![grace, bcast, closure],
                )
            }
            Kind::BankOltp => {
                let n = sizes.accounts;
                bank = Some(Bank {
                    balances: vec![INITIAL_BALANCE; n],
                    transfers: transfer_stream(n, 1 << 16, seed),
                    next_transfer: 0,
                    pending_read: None,
                    ops: 0,
                });
                (
                    vec![table(
                        "accounts",
                        "id INT, branch INT, balance INT",
                        "id",
                        accounts_rows(n, BRANCHES, INITIAL_BALANCE),
                    )],
                    Vec::new(),
                )
            }
        };
        let reads = reference_answers(&tables, texts)?;
        Ok(Workload {
            kind,
            tables,
            reads,
            bank,
            rng,
            rotation: Vec::new(),
            variants: vec![Vec::new(); kind.classes().len()],
        })
    }

    /// Create and load the relations on a fresh machine and refresh
    /// their statistics. Resets the balance model to the loaded state.
    pub fn load(&mut self, db: &PrismaMachine) -> Result<(), PrismaError> {
        for t in &self.tables {
            db.sql(&t.ddl)?;
            let txn = db.begin();
            for chunk in t.rows.chunks(5000) {
                if let Err(e) = db.gdh().insert(txn, t.name, chunk.to_vec()) {
                    let _ = db.abort(txn);
                    return Err(e);
                }
            }
            db.commit(txn)?;
            db.refresh_stats(t.name)?;
        }
        if let Some(bank) = &mut self.bank {
            bank.balances.fill(INITIAL_BALANCE);
            bank.next_transfer = 0;
            bank.pending_read = None;
            bank.ops = 0;
        }
        Ok(())
    }

    /// One op of each class, always the same ones (the warm-up pass).
    pub fn warmup(&mut self) -> Vec<Op> {
        match &mut self.bank {
            Some(bank) => {
                let t = bank.transfers[0];
                vec![
                    transfer_op(t),
                    Op {
                        class: 1,
                        request: Request::Sql(balance_sql(t.from)),
                        expect: Expect::Balance(t.from),
                    },
                    audit_op(),
                ]
            }
            None => (0..self.reads.len())
                .map(|class| read_op(class, &self.reads[class][0]))
                .collect(),
        }
    }

    /// The next op of the seeded stream.
    pub fn next_op(&mut self) -> Op {
        let Some(bank) = &mut self.bank else {
            // Rotations through the classes, and through every variant
            // of a class, reshuffled each round: each keeps its share of
            // ops, so a run's mix does not drift with the seed.
            let class = next_in_round(
                &mut self.rotation,
                self.kind.round().iter().copied(),
                &mut self.rng,
            );
            let n = self.reads[class].len();
            let variant = next_in_round(&mut self.variants[class], 0..n, &mut self.rng);
            return read_op(class, &self.reads[class][variant]);
        };
        bank.ops += 1;
        if bank.ops % 50 == 0 {
            return audit_op();
        }
        if let Some(id) = bank.pending_read.take() {
            return Op {
                class: 1,
                request: Request::Sql(balance_sql(id)),
                expect: Expect::Balance(id),
            };
        }
        // Transfer 0 is the warm-up's; wrap past the end of the stream.
        bank.next_transfer = bank.next_transfer % (bank.transfers.len() - 1) + 1;
        let t = bank.transfers[bank.next_transfer];
        bank.pending_read = Some(t.from);
        transfer_op(t)
    }

    /// Check an op's answer, and apply a committed transfer to the
    /// model. An error is a wrong answer.
    pub fn check(&mut self, op: &Op, outcome: &Outcome) -> Result<(), String> {
        let wrong = |what: String| Err(format!("wrong answer ({what}) for {:?}", op.request));
        match (op.expect, outcome) {
            (Expect::Rows(fp), Outcome::Rows(rel)) => {
                let got = Fingerprint::of(rel);
                if got != fp {
                    return wrong(format!("got {got:?}, reference {fp:?}"));
                }
            }
            (Expect::Transfer, Outcome::Committed(affected)) => {
                if affected != &[1, 1] {
                    return wrong(format!("updated {affected:?} rows, expected [1, 1]"));
                }
                let Request::Transfer { transfer: t, .. } = op.request else {
                    return wrong("not a transfer".into());
                };
                let bank = self.bank.as_mut().ok_or("transfer outside bank_oltp")?;
                bank.balances[t.from as usize] -= t.amount;
                bank.balances[t.to as usize] += t.amount;
            }
            (Expect::Balance(id), Outcome::Rows(rel)) => {
                let bank = self.bank.as_ref().ok_or("balance read outside bank_oltp")?;
                let want = bank.balances[id as usize];
                let got: Vec<Option<i64>> =
                    rel.tuples().iter().map(|t| t.get(0).as_int()).collect();
                if got != [Some(want)] {
                    return wrong(format!("balance {got:?}, model {want}"));
                }
            }
            (Expect::Audit, Outcome::Rows(rel)) => {
                let bank = self.bank.as_ref().ok_or("audit outside bank_oltp")?;
                let got = branch_totals(rel)?;
                let want = bank.branch_totals();
                if got != want {
                    return wrong(format!("branch totals {got:?}, model {want:?}"));
                }
            }
            (_, outcome) => return wrong(format!("unexpected outcome {outcome:?}")),
        }
        Ok(())
    }

    /// End-of-run checks: every balance equals the model's and no money
    /// was created or destroyed.
    pub fn final_check(&self, db: &PrismaMachine) -> Result<(), String> {
        let Some(bank) = &self.bank else {
            return Ok(());
        };
        let rows = db
            .query("SELECT id, balance FROM accounts")
            .map_err(|e| format!("final balance scan failed: {e}"))?;
        let mut seen = vec![None; bank.balances.len()];
        for t in rows.tuples() {
            let (Some(id), Some(b)) = (t.get(0).as_int(), t.get(1).as_int()) else {
                return Err(format!("malformed account row {t:?}"));
            };
            let slot = seen
                .get_mut(id as usize)
                .ok_or_else(|| format!("unknown account {id}"))?;
            if slot.replace(b).is_some() {
                return Err(format!("account {id} appears twice"));
            }
        }
        let stored: Option<Vec<i64>> = seen.into_iter().collect();
        let stored = stored.ok_or("an account is missing")?;
        if stored != bank.balances {
            return Err("stored balances differ from the client model".into());
        }
        let want = INITIAL_BALANCE * bank.balances.len() as i64;
        let total: i64 = stored.iter().sum();
        if total != want || bank.total() != want {
            return Err(format!(
                "money not conserved: {total} stored, {want} loaded"
            ));
        }
        Ok(())
    }
}

fn read_op(class: usize, read: &Read) -> Op {
    Op {
        class,
        request: read.request.clone(),
        expect: Expect::Rows(read.expect),
    }
}

fn transfer_op(t: Transfer) -> Op {
    let update = |sign: char, id: i64| {
        format!(
            "UPDATE accounts SET balance = balance {sign} {} WHERE id = {id}",
            t.amount
        )
    };
    Op {
        class: 0,
        request: Request::Transfer {
            updates: [update('-', t.from), update('+', t.to)],
            transfer: t,
        },
        expect: Expect::Transfer,
    }
}

fn audit_op() -> Op {
    Op {
        class: 2,
        request: Request::Sql(AUDIT_SQL.into()),
        expect: Expect::Audit,
    }
}

fn balance_sql(id: i64) -> String {
    format!("SELECT balance FROM accounts WHERE id = {id}")
}

fn branch_totals(rel: &Relation) -> Result<Vec<i64>, String> {
    let mut totals = vec![0; BRANCHES];
    for t in rel.tuples() {
        let (Some(b), Some(sum)) = (t.get(0).as_int(), t.get(1).as_int()) else {
            return Err(format!("malformed audit row {t:?}"));
        };
        *totals
            .get_mut(b as usize)
            .ok_or_else(|| format!("unknown branch {b}"))? = sum;
    }
    Ok(totals)
}

/// Plan every read against the generated relations and evaluate it with
/// the reference evaluator.
fn reference_answers(tables: &[Table], texts: Vec<Vec<Request>>) -> Result<Vec<Vec<Read>>, String> {
    let schemas: HashMap<String, Schema> = tables
        .iter()
        .map(|t| (t.name.to_owned(), schema_of(t.name)))
        .collect();
    let db: HashMap<String, Relation> = tables
        .iter()
        .map(|t| {
            (
                t.name.to_owned(),
                Relation::new(schema_of(t.name), t.rows.clone()),
            )
        })
        .collect();
    // Join-key extraction only: the planner's cross products would not
    // fit in memory at these sizes, and the other rewrites stay untested
    // by the reference.
    let keys_only = Optimizer::new(&NoStats).with_config(OptimizerConfig {
        pushdown: true,
        ..OptimizerConfig::disabled()
    });
    let plan = |request: &Request| -> Result<LogicalPlan, PrismaError> {
        let logical = match request {
            Request::Sql(sql) => match sqlfe::plan(&sqlfe::parse_statement(sql)?, &schemas)? {
                PlannedStatement::Query(plan) => Ok(plan),
                _ => Err(PrismaError::Execution(format!("not a query: {sql}"))),
            },
            Request::Rules { program, query } => prismalog::compile_query(
                &prismalog::parse_program(program)?,
                &prismalog::parse_query(query)?,
                &schemas,
            ),
            Request::Transfer { .. } => Err(PrismaError::Execution("not a read".into())),
        }?;
        Ok(keys_only.optimize(&logical)?.0)
    };
    texts
        .into_iter()
        .map(|class| {
            class
                .into_iter()
                .map(|request| {
                    let answer = plan(&request)
                        .and_then(|p| eval(&p, &db))
                        .map_err(|e| format!("reference answer for {request:?}: {e}"))?;
                    Ok(Read {
                        expect: Fingerprint::of(&answer),
                        request,
                    })
                })
                .collect()
        })
        .collect()
}

fn schema_of(table: &str) -> Schema {
    match table {
        "e" => edge_schema(),
        "accounts" => accounts_schema(),
        _ => wisconsin_schema(),
    }
}
