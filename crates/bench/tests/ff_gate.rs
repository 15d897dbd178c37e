//! Fast-forward throughput + identity gate. `bfs` — the paper's
//! irregular, DRAM-latency-dominated workload — runs with skipping on and
//! off in three configurations, one after another inside one test so no
//! leg shares the host's CPUs with another:
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
//!
//! A gated leg's speedup is the median over interleaved on/off pairs,
//! alternating which run goes first, so slow drift in host speed hits
//! both sides of a pair alike.

use std::time::Instant;
use vortex_core::{GpuConfig, GpuStats};
use vortex_kernels::{Benchmark, Bfs};

/// Interleaved on/off pairs per leg. Debug builds gate no wall-clock
/// floor, so two pairs there still check identity and run-to-run
/// determinism; release builds (CI's workspace step) take the full count.
const PAIRS: usize = if cfg!(debug_assertions) { 2 } else { 7 };

/// One run of `bench` with skipping on or off: simulated cycles per
/// wall-clock second, and the stats.
fn run_once(bench: &dyn Benchmark, config: &GpuConfig, fast_forward: bool) -> (f64, GpuStats) {
    // Explicit on both legs: the gate must measure the engine even under
    // a `VORTEX_FF=0` CI leg, and the off leg must be truly off.
    let config = GpuConfig {
        fast_forward,
        ..config.clone()
    };
    let start = Instant::now();
    let r = bench.run_on(&config);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    assert!(r.validated, "bfs failed validation");
    (r.stats.cycles as f64 / wall, r.stats)
}

/// Runs `pairs` interleaved on/off pairs of `bench`, asserts the identity
/// contract on every run, prints every pair, and returns the median
/// per-pair speedup and the skipping run's stats.
fn ab_pairs(
    label: &str,
    bench: &dyn Benchmark,
    config: &GpuConfig,
    pairs: usize,
) -> (f64, GpuStats) {
    let mut ratios = Vec::with_capacity(pairs);
    let mut ff_ref: Option<GpuStats> = None;
    for pair in 0..pairs {
        let mut on = None;
        let mut off = None;
        for fast_forward in [pair % 2 == 0, pair % 2 != 0] {
            let run = run_once(bench, config, fast_forward);
            if fast_forward {
                on = Some(run);
            } else {
                off = Some(run);
            }
        }
        let (ff_cps, ff_stats) = on.expect("pair ran skipping");
        let (live_cps, live_stats) = off.expect("pair ran live");
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
        if let Some(prev) = &ff_ref {
            assert_eq!(
                prev, &ff_stats,
                "{label}: bfs must be run-to-run deterministic"
            );
        }
        let ratio = ff_cps / live_cps;
        eprintln!(
            "{label}: pair {}/{pairs} ({} first): {:.2} Mcps skipping vs {:.2} Mcps live — {ratio:.2}x",
            pair + 1,
            if pair % 2 == 0 { "on" } else { "off" },
            ff_cps / 1e6,
            live_cps / 1e6,
        );
        ratios.push(ratio);
        ff_ref = Some(ff_stats);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let stats = ff_ref.expect("at least one pair");
    eprintln!(
        "{label}: median {median:.2}x over {pairs} pairs \
         ({} of {} cycles skipped in {} jumps)",
        stats.cycles_skipped, stats.cycles, stats.skip_events
    );
    (median, stats)
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
fn bfs_fast_forward_pays_and_is_invisible() {
    // Leg 1: the default single-core gate workload.
    let (speedup, stats) = ab_pairs("bfs", &Bfs::default(), &GpuConfig::with_cores(1), PAIRS);
    assert!(
        stats.cycles_skipped > stats.cycles / 4,
        "bfs is memory-bound — a healthy engine skips a large share \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    // The floor shrinks as live ticking itself gets cheaper: the live leg
    // ticks every cycle, so per-cycle cost cuts (MSHR-only bank tick
    // skips, core parking) compress the measured *ratio* while both legs
    // speed up in absolute terms. The ratio still has to clear 1 by a
    // sane margin for the engine to pay its complexity.
    gate_speedup("bfs", speedup, 1.05);

    // Leg 2: Figure 21's deepest latency point — DRAM round trips of 400
    // cycles turn almost every miss into a long certified-idle span.
    let mut config = GpuConfig::with_cores(1);
    config.dram.latency = 400;
    let label = "bfs @ dram latency 400";
    let (speedup, stats) = ab_pairs(label, &Bfs::default(), &config, PAIRS);
    assert!(
        stats.cycles_skipped * 10 > stats.cycles * 6,
        "at 400-cycle DRAM latency the skip share must exceed 60% \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    gate_speedup(label, speedup, 1.5);

    // Leg 3: the 16-core tier, identity only.
    ab_pairs(
        "bfs-mc16",
        &Bfs::default(),
        &GpuConfig::with_cores(16),
        PAIRS,
    );
}
