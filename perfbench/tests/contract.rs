//! `BENCHMARK.json` describes exactly the metrics and workloads the
//! benchmark reports, within the limits of the benchmark file format.

use prisma_perfbench::machine::refused_vars;
use prisma_perfbench::metrics::{END_TO_END, LAYERS};
use prisma_perfbench::workload::Kind;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = benchmark_json();
    let mut entries = Vec::new();
    for k in Kind::ALL {
        entries.push(format!("{{\"name\": \"{}\", \"why\": ", k.name()));
    }
    for m in &END_TO_END {
        entries.push(format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            m.name,
            m.unit,
            m.better.word()
        ));
    }
    for l in &LAYERS {
        entries.push(format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            l.name,
            l.unit,
            l.better.word()
        ));
    }
    for e in &entries {
        assert!(json.contains(e.as_str()), "BENCHMARK.json lacks {e}");
    }
    assert_eq!(json.matches("{\"name\": ").count(), entries.len());
}

#[test]
fn metric_names_and_units_fit_the_format() {
    let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(LAYERS.iter().map(|l| l.name));
    for n in &names {
        assert!(is_name(n), "bad name {n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names must be unique");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(LAYERS.iter().map(|l| l.unit))
    {
        assert!(is_unit(unit), "bad unit {unit}");
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
}

#[test]
fn ci_lane_variables_are_refused() {
    assert!(refused_vars(|_| false).is_empty());
    assert_eq!(
        refused_vars(|v| v == "SEAL_EVERY" || v == "CHECKX_LOCK_ORDER"),
        vec!["SEAL_EVERY", "CHECKX_LOCK_ORDER"]
    );
    assert_eq!(refused_vars(|_| true).len(), 6);
}
