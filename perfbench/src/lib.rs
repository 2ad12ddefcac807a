//! Standing end-to-end benchmark of the PRISMA machine.
//!
//! One client drives a closed loop against a pinned 8-PE machine: it
//! sends an op, waits for the answer, checks it, and sends the next.
//! The GDH front door is a synchronous call API and relation-level 2PL
//! serializes writers, so one client is the load the machine is built
//! to serve one call at a time. An untraced run gives the end-to-end
//! metrics; a traced run times each layer call from this crate and adds
//! the counters the engine returns.

pub mod client;
pub mod host;
pub mod machine;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use prisma_core::PrismaMachine;

use client::{Client, Net};
use host::Probe;
use metrics::{Figure, Fold, PerOp, END_TO_END, LAYERS};
use stats::{highest_supported, median, per_op, percentile, samples_needed, Ratio};
use trace::{self_times, Tracer};
use workload::{Kind, Sizes, Workload};

/// Fewest set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// More set-ups run, up to [`MAX_SETUPS`], while the set-ups so far took
/// less than this: short set-ups are noisier and cheap to repeat.
const SETUP_BUDGET_S: f64 = 2.5;
/// Most set-ups per end-to-end run.
const MAX_SETUPS: usize = 50;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload.
    pub kind: Kind,
    /// Data sizes.
    pub sizes: Sizes,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run that checked every answer.
#[derive(Debug)]
pub struct Report {
    /// Human-readable lines: configuration, sample counts, breakdowns.
    pub lines: Vec<String>,
    /// Ops attempted in the measured loop(s).
    pub attempted: usize,
    /// Ops that returned an error.
    pub failed: usize,
    /// Every end-to-end metric (untraced run) or per-layer metric
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// The traced loop's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A machine ready for the timed loop, and what readying it cost.
struct Ready {
    db: PrismaMachine,
    setup_s: f64,
    cold_ms: Vec<f64>,
}

/// Boot, load, refresh statistics and run one warm-up op per class,
/// checking each answer like any other.
fn set_up(wl: &mut Workload) -> Result<Ready, String> {
    let started = Instant::now();
    let db = machine::boot().map_err(|e| format!("boot: {e}"))?;
    wl.load(&db).map_err(|e| format!("load: {e}"))?;
    let mut client = Client::new(&db, wl.kind.classes(), Tracer::off());
    let mut cold_ms = Vec::new();
    for op in wl.warmup() {
        let (result, rec) = client.run(&op);
        let outcome = result.map_err(|e| format!("warm-up {:?}: {e}", op.request))?;
        wl.check(&op, &outcome)?;
        cold_ms.push(rec.wall_us / 1e3);
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Ready {
        db,
        setup_s,
        cold_ms,
    })
}

/// Slices each lane's share of the timed loop is cut into; lanes take
/// turns slice by slice, so drift over the run (DML churn, log growth)
/// falls on traced and untraced ops alike.
const SLICES: usize = 10;

/// The ops one client ran in the timed loop.
struct Loop {
    latencies_ms: Vec<f64>,
    per_class_ms: Vec<Vec<f64>>,
    attempted: usize,
    failed: usize,
    busy_s: f64,
    remote_bytes: u64,
    samples: Vec<PerOp>,
}

impl Loop {
    fn new(classes: usize) -> Loop {
        Loop {
            latencies_ms: Vec::new(),
            per_class_ms: vec![Vec::new(); classes],
            attempted: 0,
            failed: 0,
            busy_s: 0.0,
            remote_bytes: 0,
            samples: Vec::new(),
        }
    }

    /// Run the next op of the stream. A wrong answer is an error; an op
    /// that returns an error is counted as failed.
    fn step(&mut self, client: &mut Client, wl: &mut Workload) -> Result<(), String> {
        let op = wl.next_op();
        let (result, rec) = client.run(&op);
        self.attempted += 1;
        self.busy_s += rec.wall_us / 1e6;
        match result {
            Ok(outcome) => {
                wl.check(&op, &outcome)?;
                self.latencies_ms.push(rec.wall_us / 1e3);
                self.per_class_ms[op.class].push(rec.wall_us / 1e3);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("op failed: {:?}: {e}", op.request);
            }
        }
        if client.tracer.is_on() {
            self.samples.push(rec);
        }
        Ok(())
    }
}

/// Drive one client per tracer in turns, slice by slice, until `seconds`
/// have passed and every client's p90 has ten samples beyond it (capped
/// at `2 × seconds + 10 s`, which keeps a slow build inside the run's
/// time limit), probing the host between ops. Returns each client's loop
/// and tracer, and the probe.
fn drive(
    db: &PrismaMachine,
    wl: &mut Workload,
    tracers: Vec<Tracer>,
    seconds: f64,
) -> Result<(Vec<(Loop, Tracer)>, Probe), String> {
    let classes = wl.kind.classes();
    let min_ops = samples_needed(0.9);
    let cap = seconds * 2.0 + 10.0;
    let slice = seconds / (tracers.len() * SLICES) as f64;
    let mut lanes: Vec<(Client, Loop)> = tracers
        .into_iter()
        .map(|t| (Client::new(db, classes, t), Loop::new(classes.len())))
        .collect();
    let mut probe = Probe::default();
    let started = Instant::now();
    loop {
        for (client, run) in &mut lanes {
            let net = Net::of(db);
            let slice_start = Instant::now();
            while slice_start.elapsed().as_secs_f64() < slice {
                run.step(client, wl)?;
                probe.tick()?;
            }
            run.remote_bytes += Net::of(db).bytes - net.bytes;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let supported = lanes.iter().all(|(_, r)| r.latencies_ms.len() >= min_ops);
        if (elapsed >= seconds && supported) || elapsed >= cap {
            break;
        }
    }
    let lanes = lanes
        .into_iter()
        .map(|(client, mut run)| {
            if client.tracer.is_on() {
                attribute(&client.tracer, &mut run.samples)?;
            }
            Ok((run, client.tracer))
        })
        .collect::<Result<_, String>>()?;
    Ok((lanes, probe))
}

/// Set each traced op's unattributed time: its root span's self time.
fn attribute(tracer: &Tracer, samples: &mut [PerOp]) -> Result<(), String> {
    let selfs = self_times(tracer.spans());
    let roots = tracer
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name.starts_with("op."));
    let mut n = 0;
    for ((_, self_ns), rec) in roots.zip(samples.iter_mut()) {
        rec.unattributed_us = self_ns as f64 / 1e3;
        n += 1;
    }
    if n != samples.len() {
        return Err(format!("{n} op spans for {} ops", samples.len()));
    }
    Ok(())
}

/// Ops completed per second of client-observed op time.
fn throughput(run: &Loop) -> f64 {
    run.latencies_ms.len() as f64 / run.busy_s.max(f64::MIN_POSITIVE)
}

fn latency_lines(kind: Kind, run: &Loop) -> Vec<String> {
    let mut sorted = run.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut lines = vec![format!(
        "latency: samples={n} p50={:.3}ms p90={:.3}ms (samples beyond p90: {}; highest supported percentile: {})",
        percentile(&sorted, 0.5).unwrap_or(0.0),
        percentile(&sorted, 0.9).unwrap_or(0.0),
        stats::samples_beyond(n, 0.9),
        highest_supported(n).map_or("none".into(), |q| format!("p{}", q * 100.0)),
    )];
    for (class, ms) in kind.classes().iter().zip(&run.per_class_ms) {
        lines.push(format!(
            "  class {:<9} ops={:<6} median={:.3}ms",
            class.name,
            ms.len(),
            median(ms).unwrap_or(0.0)
        ));
    }
    lines
}

/// Run one workload as `plan` says, checking every answer.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let kind = plan.kind;
    let mut lines = vec![
        machine::describe(),
        format!(
            "workload: {} seed={} seconds={} trace={} sizes={:?}",
            kind.name(),
            plan.seed,
            plan.seconds,
            plan.trace,
            plan.sizes
        ),
    ];
    let started = Instant::now();
    let mut wl = Workload::new(kind, plan.sizes, plan.seed)?;
    lines.push(format!(
        "inputs and reference answers: {:.3}s (not timed)",
        started.elapsed().as_secs_f64()
    ));
    // The peak then counts what the machine holds from boot on, over
    // whatever the client already holds, which is printed as its base.
    machine::reset_peak_rss()?;
    let rss_base_mb = machine::status_mb("VmRSS")?;
    let ready = set_up(&mut wl)?;
    let db = &ready.db;
    if plan.trace {
        let (mut lanes, _) = drive(db, &mut wl, vec![Tracer::off(), Tracer::on()], plan.seconds)?;
        let (traced, tracer) = lanes.pop().expect("two lanes");
        let (plain, _) = lanes.pop().expect("two lanes");
        wl.final_check(db)?;
        lines.push("untraced ops:".into());
        lines.extend(latency_lines(kind, &plain));
        lines.push("traced ops (slices alternate with the untraced ones):".into());
        lines.extend(latency_lines(kind, &traced));
        let overhead = Ratio {
            num: throughput(&plain) - throughput(&traced),
            den: throughput(&plain),
        };
        let cold = per_op(ready.cold_ms.iter().sum(), ready.cold_ms.len());
        lines.extend(layer_lines(
            kind,
            &traced,
            &tracer,
            &ready.cold_ms,
            overhead,
        ));
        let metrics = LAYERS
            .iter()
            .map(|l| Metric {
                name: l.name,
                unit: l.unit,
                value: match l.fold {
                    Fold::ColdPass => cold,
                    Fold::Overhead => overhead.value(),
                    _ => l.fold.over(&traced.samples).map_or(0.0, |f| f.value()),
                },
            })
            .collect();
        ready.db.shutdown();
        return Ok(Report {
            lines,
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            metrics,
            tracer: Some(tracer),
        });
    }
    let (mut lanes, probe) = drive(db, &mut wl, vec![Tracer::off()], plan.seconds)?;
    let (run, _) = lanes.pop().expect("one lane");
    let slowdown = probe.slowdown()?;
    // Read before the extra set-ups below, which would otherwise add
    // their allocator churn to the peak.
    let peak_rss_mb = machine::status_mb("VmHWM")?;
    wl.final_check(db)?;
    ready.db.shutdown();
    // More set-ups, after the measured one, for a steadier median.
    let mut setup_s = vec![ready.setup_s];
    while setup_s.len() < SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        let again = set_up(&mut wl)?;
        again.db.shutdown();
        setup_s.push(again.setup_s);
    }
    lines.extend(latency_lines(kind, &run));
    let mut sorted = run.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    lines.push(format!(
        "setup: {} set-ups, median {:.4}s, min {:.4}s, max {:.4}s",
        setup_s.len(),
        median(&setup_s).unwrap_or(0.0),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
    ));
    lines.push(format!(
        "peak_rss: VmHWM since the reset before boot {peak_rss_mb:.3}MB, \
         resident at the reset (inputs, reference answers) {rss_base_mb:.3}MB"
    ));
    lines.push(format!(
        "ops: attempted={} failed={} failed_ratio={}",
        run.attempted,
        run.failed,
        Ratio {
            num: run.failed as f64,
            den: run.attempted as f64
        }
    ));
    let raw_throughput = throughput(&run);
    let raw_p50 = percentile(&sorted, 0.5).unwrap_or(0.0);
    let raw_p90 = percentile(&sorted, 0.9).unwrap_or(0.0);
    let raw_setup = median(&setup_s).unwrap_or(0.0);
    lines.push(format!(
        "host: {} probes, median {:.4}ms of thread CPU against {:.4}ms reference, \
         slowdown {slowdown:.4}; as measured before scaling: throughput_ops_s={raw_throughput:.4} \
         latency_p50_ms={raw_p50:.4} latency_p90_ms={raw_p90:.4} setup_s={raw_setup:.4}",
        probe.cpu_s.len(),
        slowdown * host::REFERENCE_S * 1e3,
        host::REFERENCE_S * 1e3,
    ));
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "throughput_ops_s" => raw_throughput * slowdown,
            "latency_p50_ms" => raw_p50 / slowdown,
            "latency_p90_ms" => raw_p90 / slowdown,
            "net_bytes_per_op" => per_op(run.remote_bytes as f64, run.attempted),
            "peak_rss_mb" => peak_rss_mb,
            "completed_ratio" => 1.0 - per_op(run.failed as f64, run.attempted),
            "setup_s" => raw_setup / slowdown,
            other => return Err(format!("no value for {other}")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value: value(m.name)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (m, e) in metrics.iter().zip(&END_TO_END) {
        lines.push(format!(
            "  {:<18} {:>14.4} {:<6} {} is better; {}",
            m.name,
            m.value,
            m.unit,
            e.better.word(),
            e.about
        ));
    }
    Ok(Report {
        lines,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        tracer: None,
    })
}

/// The per-layer table: every metric overall and per class (medians
/// over the class's ops for per-op figures), then per-layer self time.
fn layer_lines(
    kind: Kind,
    run: &Loop,
    tracer: &Tracer,
    cold_ms: &[f64],
    overhead: Ratio,
) -> Vec<String> {
    let classes = kind.classes();
    let by_class: Vec<Vec<PerOp>> = (0..classes.len())
        .map(|c| {
            run.samples
                .iter()
                .filter(|o| o.class == c)
                .cloned()
                .collect()
        })
        .collect();
    let mut lines = vec![format!(
        "per-layer ({} traced ops; per-op means overall, medians per class): {}",
        run.samples.len(),
        classes
            .iter()
            .zip(&by_class)
            .map(|(c, ops)| format!("{}={}", c.name, ops.len()))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    for l in &LAYERS {
        let overall = match l.fold {
            Fold::ColdPass => format!(
                "{:.3} (per class: {})",
                per_op(cold_ms.iter().sum(), cold_ms.len()),
                classes
                    .iter()
                    .zip(cold_ms)
                    .map(|(c, ms)| format!("{}={ms:.3}", c.name))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            Fold::Overhead => format!("{overhead} (throughput lost / untraced throughput)"),
            _ => l
                .fold
                .over(&run.samples)
                .map_or_else(String::new, |f| f.to_string()),
        };
        let per_class = match l.fold {
            Fold::PerOp(f) => by_class
                .iter()
                .zip(classes)
                .map(|(ops, c)| {
                    let v: Vec<f64> = ops.iter().map(f).collect();
                    format!("{}={:.2}", c.name, median(&v).unwrap_or(0.0))
                })
                .collect::<Vec<_>>()
                .join(" "),
            Fold::Ratio(..) => by_class
                .iter()
                .zip(classes)
                .map(|(ops, c)| {
                    let fig = l.fold.over(ops).map_or(Figure::Mean(0.0), |f| f);
                    format!("{}={fig}", c.name)
                })
                .collect::<Vec<_>>()
                .join(" "),
            Fold::ColdPass | Fold::Overhead => String::new(),
        };
        let modeled = if l.modeled { " [modeled]" } else { "" };
        lines.push(format!(
            "  {:<28} {:<9} {overall}{modeled} | {per_class} | moves: {}",
            l.name, l.unit, l.moves
        ));
    }
    lines.extend(self_time_lines(kind, tracer));
    lines
}

/// Self time per span name and op class, as microseconds per op.
fn self_time_lines(kind: Kind, tracer: &Tracer) -> Vec<String> {
    let classes = kind.classes();
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut class_of_op: BTreeMap<u64, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        if let Some(c) = classes.iter().position(|c| c.span == s.name) {
            class_of_op.insert(s.op, c);
        }
    }
    let mut ops = vec![0usize; classes.len()];
    for c in class_of_op.values() {
        ops[*c] += 1;
    }
    let mut table: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if let Some(&c) = class_of_op.get(&s.op) {
            let name = if classes[c].span == s.name {
                "(unattributed)"
            } else {
                s.name
            };
            *table.entry((c, name)).or_default() += self_ns;
        }
    }
    let mut lines = vec!["self time per op (span minus children), us:".to_owned()];
    for ((c, name), ns) in table {
        lines.push(format!(
            "  {:<9} {:<26} {:>12.2}",
            classes[c].name,
            name,
            per_op(ns as f64 / 1e3, ops[c])
        ));
    }
    lines
}
