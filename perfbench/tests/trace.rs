//! Span recording and self-time arithmetic.

use prisma_perfbench::trace::{self_times, Span, Tracer};

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        op: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span("op.x", None, 0, 100),
        span("sqlfe.compile", Some(0), 10, 30),
        span("gdh.query", Some(0), 40, 90),
        span("inner", Some(2), 50, 60),
    ];
    // op: 100 - 20 - 50; query: 50 - 10; leaves keep their duration.
    assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
}

#[test]
fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
    let spans = [
        span("op.x", None, 100, 200),
        span("a", Some(0), 90, 130),
        span("b", Some(0), 120, 150),
        span("c", Some(0), 180, 260),
    ];
    // Covered: [100, 150) and [180, 200) = 70 of 100.
    assert_eq!(self_times(&spans)[0], 30);
}

#[test]
fn root_spans_without_children_are_all_self_time() {
    let spans = [
        span("op.x", None, 5, 5),
        span("optimizer.optimize", None, 7, 19),
    ];
    assert_eq!(self_times(&spans), vec![0, 12]);
}

#[test]
fn tracer_nests_spans_and_writes_them_out() {
    let mut t = Tracer::on();
    let root = t.begin("op.x", 7);
    let child = t.begin("gdh.query", 7);
    let child_us = t.end(child);
    let root_us = t.end(root);
    assert!(root_us >= child_us && child_us >= 0.0);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut out = Vec::new();
    t.write_tsv(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "id\top\tparent\tname\tstart_ns\tend_ns");
    assert!(lines[1].starts_with("0\t7\t-\top.x\t"), "{}", lines[1]);
    assert!(lines[2].starts_with("1\t7\t0\tgdh.query\t"), "{}", lines[2]);
}

#[test]
fn a_tracer_that_is_off_records_nothing() {
    let mut t = Tracer::off();
    let s = t.begin("op.x", 1);
    assert_eq!(t.end(s), 0.0);
    assert!(!t.is_on());
    assert!(t.spans().is_empty());
}
