//! A fixed host-speed probe.
//!
//! Small shared hosts change speed under the benchmark. On the 2-CPU
//! host this was written on, one sgemm-1c repetition took 26–30 ms in
//! some stretches and 48–54 ms in others. A stretch lasted from a second
//! to several minutes, so whole runs fell inside slow ones. The probe
//! times a fixed piece of work of the benchmark's own, right before and
//! right after each repetition, on every thread the repetition uses: an
//! update-heavy random walk over a table the size of an L2 cache, with a
//! data-dependent branch per step. The faster of the two probes counts,
//! so one probe that lost its CPU does not skew the repetition. The
//! probe's code is the benchmark's, so a change to the simulator cannot
//! move it.
//!
//! Host timings are expressed in reference seconds: host seconds times
//! [`scale`] of the probe's time. The simulator's host time grew as the
//! probe's time to the power 1.66 (sgemm-1c, 4706 repetitions, log-log
//! correlation 0.83) and 1.70 (bfs-1c, 274 repetitions, 0.74), so the
//! scale uses the power [`POWER`].

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Table entries (256 KiB of `u32`).
const TABLE: usize = 1 << 16;
/// Probe steps.
const STEPS: u32 = 200_000;
/// The probe time that defines reference speed: about the probe's
/// fast-state time on the host this was written on, so reference seconds
/// are close to that host's seconds when it is fast.
const REF_S: f64 = 1.4e-3;
/// How much faster than the probe's time the simulator's host time
/// grows when the host slows down, in log-log terms (a little under the
/// measured 1.66–1.70).
const POWER: f64 = 1.5;

/// The factor that turns host seconds into reference seconds, given the
/// probe's time next to them.
pub fn scale(probe_s: f64) -> f64 {
    (REF_S / probe_s).powf(POWER)
}

/// One table per thread the probe runs on.
pub struct Probe {
    tables: Vec<Mutex<Vec<u32>>>,
}

impl Probe {
    /// A probe that runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let mut x = 0x9E37_79B9u32;
        let table: Vec<u32> = (0..TABLE).map(|_| xorshift(&mut x)).collect();
        Self {
            tables: (0..threads).map(|_| Mutex::new(table.clone())).collect(),
        }
    }

    /// Runs the fixed work once on each thread; the mean time in seconds.
    pub fn time(&self) -> f64 {
        let times = vortex_par::par_map_with_jobs(self.tables.len(), &self.tables, |_, t| {
            let mut table = t.lock().expect("probe table lock is never poisoned");
            let start = Instant::now();
            black_box(walk(black_box(&mut table)));
            start.elapsed().as_secs_f64()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

fn xorshift(x: &mut u32) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 17;
    *x ^= *x << 5;
    *x
}

fn walk(table: &mut [u32]) -> u32 {
    let mut x = 0x2545_F491u32;
    let mut acc = 0u32;
    for _ in 0..STEPS {
        let i = xorshift(&mut x) as usize & (TABLE - 1);
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_mul(3) ^ x;
        } else {
            acc = acc.wrapping_add(v >> 3);
        }
    }
    acc
}
