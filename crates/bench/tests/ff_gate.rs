//! Fast-forward throughput + identity gates. `bfs` — the paper's
//! irregular, DRAM-latency-dominated workload — runs with skipping on and
//! off in three configurations:
//!
//! 1. **Default single-core** (the 793 827-cycle gate workload): stats
//!    must be bit-identical, and skipping must pay ≥1.05× simulated cycles
//!    per wall-clock second (release builds only; debug wall-clock is
//!    noise). Roughly half of bfs's cycles are DRAM-wait spans the engine
//!    collapses. The floor is low because live ticking itself is cheap,
//!    which compresses the A/B ratio (see the comment at the gate).
//! 2. **Memory-bound single-core** (`dram.latency = 400`, the deep end of
//!    the Figure 21 latency sweep): idle spans quadruple, the skip share
//!    climbs past 60%, and the engine must pay ≥1.5×.
//! 3. **bfs-mc16** (16-core tier): identity only. With 16 cores in
//!    flight the *global* horizon — the minimum over every core and the
//!    shared DRAM — almost never opens (measured skip share ~1%: some
//!    channel completes a fill nearly every cycle), so there is no
//!    throughput to gate; what must hold is that skipping never perturbs
//!    the multi-core simulation.

use std::time::Instant;
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Bfs};

/// Timing runs per leg; best is compared, biasing noise toward passes.
const RUNS: usize = 3;

fn best_cps(bench: &dyn Benchmark, config: &GpuConfig) -> (f64, vortex_core::GpuStats) {
    let mut best = 0.0f64;
    let mut stats = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let r = bench.run_on(config);
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        assert!(r.validated, "bfs failed validation");
        best = best.max(r.stats.cycles as f64 / wall);
        if let Some(prev) = &stats {
            assert_eq!(prev, &r.stats, "bfs must be run-to-run deterministic");
        }
        stats = Some(r.stats);
    }
    (best, stats.expect("at least one run"))
}

/// Runs `bench` with skipping on and off, asserts the identity contract,
/// and returns the measured speedup and the skipping run's stats.
fn ab_legs(
    label: &str,
    bench: &dyn Benchmark,
    mut config: GpuConfig,
) -> (f64, vortex_core::GpuStats) {
    // Explicit on both legs: the gate must measure the engine even under
    // a `VORTEX_FF=0` CI leg, and the off leg must be truly off.
    config.fast_forward = true;
    let (ff_cps, ff_stats) = best_cps(bench, &config);
    config.fast_forward = false;
    let (live_cps, live_stats) = best_cps(bench, &config);
    assert_eq!(
        ff_stats.cycles, live_stats.cycles,
        "{label}: cycle count must not move under fast-forward"
    );
    assert_eq!(
        ff_stats, live_stats,
        "{label}: GpuStats must be bit-identical with skipping on or off"
    );
    assert_eq!(
        live_stats.cycles_skipped, 0,
        "{label}: off leg must tick every cycle"
    );
    let speedup = ff_cps / live_cps;
    eprintln!(
        "{label}: {:.2} Mcps skipping vs {:.2} Mcps live — {speedup:.2}x \
         ({} of {} cycles skipped in {} jumps)",
        ff_cps / 1e6,
        live_cps / 1e6,
        ff_stats.cycles_skipped,
        ff_stats.cycles,
        ff_stats.skip_events
    );
    (speedup, ff_stats)
}

/// Wall-clock floors apply in release builds only.
fn gate_speedup(label: &str, speedup: f64, floor: f64) {
    if !cfg!(debug_assertions) {
        assert!(
            speedup >= floor,
            "fast-forward must pay >={floor}x on {label}, got {speedup:.2}x"
        );
    }
}

#[test]
fn bfs_default_fast_forward_pays() {
    let config = GpuConfig::with_cores(1);
    let (speedup, stats) = ab_legs("bfs", &Bfs::default(), config);
    assert!(
        stats.cycles_skipped > stats.cycles / 4,
        "bfs is memory-bound — a healthy engine skips a large share \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    // The floor shrinks as live ticking itself gets cheaper: the live leg
    // ticks every cycle, so per-cycle cost cuts (MSHR-only bank tick
    // skips, claim-clear gating) compress the measured *ratio* while both
    // legs speed up in absolute terms. The ratio still has to clear 1 by
    // a sane margin for the engine to pay its complexity.
    gate_speedup("bfs", speedup, 1.05);
}

#[test]
fn bfs_high_latency_fast_forward_pays() {
    let mut config = GpuConfig::with_cores(1);
    // Figure 21's deepest latency point: DRAM round trips of 400 cycles
    // turn almost every miss into a long certified-idle span.
    config.dram.latency = 400;
    let (speedup, stats) = ab_legs("bfs @ dram latency 400", &Bfs::default(), config);
    assert!(
        stats.cycles_skipped * 10 > stats.cycles * 6,
        "at 400-cycle DRAM latency the skip share must exceed 60% \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    gate_speedup("bfs @ dram latency 400", speedup, 1.5);
}

#[test]
fn bfs_mc16_fast_forward_is_invisible() {
    let (_, _) = ab_legs("bfs-mc16", &Bfs::default(), GpuConfig::with_cores(16));
}
