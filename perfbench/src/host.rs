//! How fast the shared host runs during a run, from a fixed CPU probe.
//!
//! The benchmark host is shared with other tenants. Their load slows
//! every op of a run by a common factor for tens of seconds at a time, so
//! two runs of the same code minutes apart can differ by a quarter. The
//! client runs the same small piece of work between ops and times it by
//! its own thread's CPU clock, which the machine's threads cannot slow by
//! taking the processor away. End-to-end times are scaled by the probe's
//! slowdown against [`REFERENCE_S`], so runs made in slow and fast phases
//! of the host compare on one scale.

use std::time::Instant;

use crate::stats::median;

/// The probe's median CPU time on the host the bounds were set on
/// (2 vCPUs, quiet phase).
pub const REFERENCE_S: f64 = 1.9e-3;
/// Seconds of loop between two probes.
pub const EVERY_S: f64 = 0.1;
/// Words of the probe's buffer (256 KiB, so it stays in cache).
const WORDS: usize = 32 * 1024;
/// Passes over the buffer per probe.
const PASSES: usize = 40;

/// The probe's buffer and the CPU seconds each probe took.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<u64>,
    last: Instant,
    /// CPU seconds of each probe run so far.
    pub cpu_s: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            buf: vec![1; WORDS],
            last: Instant::now(),
            cpu_s: Vec::new(),
        }
    }
}

impl Probe {
    /// Run the probe if [`EVERY_S`] has passed since the last one.
    pub fn tick(&mut self) -> Result<(), String> {
        if self.last.elapsed().as_secs_f64() >= EVERY_S {
            self.run()?;
            self.last = Instant::now();
        }
        Ok(())
    }

    /// Run the probe once and record its CPU time.
    pub fn run(&mut self) -> Result<(), String> {
        let start = thread_cpu_s()?;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..PASSES {
            for v in self.buf.iter_mut() {
                x = (x ^ *v).wrapping_mul(0x0000_0100_0000_01b3);
                *v = x;
            }
        }
        std::hint::black_box(x);
        self.cpu_s.push(thread_cpu_s()? - start);
        Ok(())
    }

    /// The host's slowdown against the reference: the median probe time
    /// over [`REFERENCE_S`]; above 1 when the host ran slow.
    pub fn slowdown(&self) -> Result<f64, String> {
        let m = median(&self.cpu_s).ok_or("no host probe ran")?;
        if m > 0.0 {
            Ok(m / REFERENCE_S)
        } else {
            Err(format!("host probe took {m}s"))
        }
    }
}

#[repr(C)]
struct Timespec {
    sec: std::os::raw::c_long,
    nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
fn thread_cpu_s() -> Result<f64, String> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".into());
    }
    Ok(ts.sec as f64 + ts.nsec as f64 / 1e9)
}
