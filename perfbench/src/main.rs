//! Command line of the standing benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result as one JSON object.
//! A traced run (`--trace 1`) also writes its spans to
//! `perfbench/out/spans-<workload>-<seed>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use prisma_perfbench::workload::{Kind, Sizes};
use prisma_perfbench::{machine, run, Plan};

const USAGE: &str =
    "usage: perfbench --workload <scan_mix|join_mix|bank_oltp> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Plan {
        kind: kind.ok_or("--workload is required")?,
        sizes: Sizes::STANDARD,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = machine::check_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let report = match run(&plan) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &report.tracer {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.tsv", plan.kind.name(), plan.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_tsv(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for line in &report.lines {
        println!("{line}");
    }
    match report.json() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
