//! Spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory while the traced loop runs and written out
//! when it ends. Every span carries the id of the op that caused it and
//! the span it nests in; a disabled tracer records nothing and reads no
//! clock.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `sqlfe.compile`, or `op.<class>` for a whole op.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `end_ns >= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let Some(epoch) = self.epoch else {
            return Open(None);
        };
        let at = Self::now_ns(epoch);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: at,
            end_ns: at,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span (the innermost open one); returns its duration in
    /// microseconds, 0 when tracing is off.
    pub fn end(&mut self, span: Open) -> f64 {
        let (Some(epoch), Some(id)) = (self.epoch, span.0) else {
            return 0.0;
        };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.end_ns = Self::now_ns(epoch);
        s.duration_ns() as f64 / 1e3
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write spans as tab-separated lines: id, op, parent (`-` for a
    /// root), name, start and end in nanoseconds.
    pub fn write_tsv(&self, mut out: impl Write) -> io::Result<()> {
        writeln!(out, "id\top\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in nanoseconds: its duration minus the part
/// of its interval that its direct children cover. Overlapping children
/// are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = b;
            }
            s.duration_ns() - covered
        })
        .collect()
}
