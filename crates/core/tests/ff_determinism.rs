//! Fast-forward ≡ live ticking: skipping idle cycles is a pure host
//! optimization, so simulated cycles, every `GpuStats` counter, the final
//! memory image, the telemetry time series, the rendered
//! `vortex-profile-v1` document, fault-site draw counts, and snapshot
//! bytes must be bit-identical with [`GpuConfig::fast_forward`] on or
//! off. Two workloads, each on a flat and a clustered L2+L3 topology:
//!
//! * [`Workload::Strided`] is memory-bound (cold strided loads through the
//!   D$ into DRAM) precisely so real multi-hundred-cycle idle spans exist
//!   to skip;
//! * [`Workload::Barriers`] runs 8 cores through divergence, cross-core
//!   memory traffic and global barriers, so skips land inside barrier
//!   waits and around fences.

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, GpuStats, SimError};
use vortex_faults::FaultConfig;
use vortex_isa::{csr, vx, Reg};

const ENTRY: u32 = 0x8000_0000;
const NUM_CORES: usize = 4;
const OUT: u32 = 0xA000;
const BARRIER_CORES: usize = 8;
const SLOTS: u32 = 0x9000;
const RESULTS: u32 = 0x9400;

/// Memory-bound kernel: each core walks a core-private region with a
/// stride larger than a cache line, so every load is a cold D$ miss that
/// parks the core on the scoreboard for a full DRAM round trip — the
/// canonical dead span the fast-forward engine must collapse without
/// changing a single counter.
fn kernel() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_CID);
    a.slli(Reg::X6, Reg::X5, 12);
    a.li(Reg::X7, 0x0001_0000);
    a.add(Reg::X6, Reg::X6, Reg::X7); // base = 0x10000 + 4096·cid
    a.li(Reg::X8, 0); // i
    a.li(Reg::X9, 16); // iterations
    a.li(Reg::X10, 0); // sum
    a.label("chase").unwrap();
    a.lw(Reg::X11, Reg::X6, 0);
    a.add(Reg::X10, Reg::X10, Reg::X11); // depends on the load
    a.addi(Reg::X6, Reg::X6, 256); // next (cold) line
    a.addi(Reg::X8, Reg::X8, 1);
    a.blt(Reg::X8, Reg::X9, "chase");
    a.slli(Reg::X12, Reg::X5, 2);
    a.li(Reg::X13, OUT as i32);
    a.add(Reg::X12, Reg::X12, Reg::X13);
    a.sw(Reg::X10, Reg::X12, 0);
    a.ecall();
    a
}

/// A stress kernel for the commit phase: every core lights up all its
/// wavefronts and threads, each thread hammers a private global-memory
/// counter (store→load traffic through the D$), odd threads take a
/// divergent extra path, and wavefront 0 / thread 0 of every core runs
/// two rounds of publish → fence → global barrier → sum-all-slots.
fn barrier_kernel() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_NW);
    a.la(Reg::X6, "worker");
    a.wspawn(Reg::X5, Reg::X6);
    a.j("worker");

    a.label("worker").unwrap();
    a.csrr(Reg::X5, csr::VX_NT);
    a.tmc(Reg::X5);
    // Per-thread: bump mem[SLOTS + 4*gtid] sixteen times through memory.
    a.csrr(Reg::X6, csr::VX_GTID);
    a.slli(Reg::X7, Reg::X6, 2);
    a.li(Reg::X8, SLOTS as i32);
    a.add(Reg::X7, Reg::X7, Reg::X8);
    a.li(Reg::X9, 0); // loop counter
    a.li(Reg::X10, 16);
    a.label("bump").unwrap();
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 1);
    a.sw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X9, Reg::X9, 1);
    a.blt(Reg::X9, Reg::X10, "bump");
    // Divergence: odd gtids add an extra 100 (split/join, IPDOM stack).
    a.andi(Reg::X12, Reg::X6, 1);
    a.split(Reg::X12);
    a.beqz(Reg::X12, "even");
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 100);
    a.sw(Reg::X11, Reg::X7, 0);
    a.label("even").unwrap();
    a.join();
    // Only wavefront 0, thread 0 of each core does the barrier rounds.
    a.csrr(Reg::X13, csr::VX_WID);
    a.csrr(Reg::X14, csr::VX_TID);
    a.add(Reg::X13, Reg::X13, Reg::X14);
    a.seqz(Reg::X13, Reg::X13);
    a.split(Reg::X13);
    a.beqz(Reg::X13, "done");
    a.csrr(Reg::X15, csr::VX_CID);
    a.li(Reg::X20, 0); // round
    a.li(Reg::X21, 0); // accumulator
    a.label("round").unwrap();
    // results[cid] = accumulator so far; publish, sync, sum all slots.
    a.slli(Reg::X16, Reg::X15, 2);
    a.li(Reg::X17, RESULTS as i32);
    a.add(Reg::X16, Reg::X16, Reg::X17);
    a.addi(Reg::X18, Reg::X21, 7);
    a.sw(Reg::X18, Reg::X16, 0);
    a.fence();
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, BARRIER_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.li(Reg::X24, RESULTS as i32);
    for i in 0..BARRIER_CORES as i32 {
        a.lw(Reg::X25, Reg::X24, i * 4);
        a.add(Reg::X21, Reg::X21, Reg::X25);
    }
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.addi(Reg::X22, Reg::X22, 4);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, BARRIER_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.addi(Reg::X20, Reg::X20, 1);
    a.li(Reg::X26, 2);
    a.blt(Reg::X20, Reg::X26, "round");
    // Final per-core answer.
    a.sw(Reg::X21, Reg::X16, 4 * BARRIER_CORES as i32);
    a.label("done").unwrap();
    a.join();
    a.ecall();
    a
}

#[derive(Clone, Copy, Debug)]
enum Workload {
    /// [`kernel`] on 4 cores.
    Strided,
    /// [`barrier_kernel`] on 8 cores.
    Barriers,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Strided, Workload::Barriers];

    fn cores(self) -> usize {
        match self {
            Workload::Strided => NUM_CORES,
            Workload::Barriers => BARRIER_CORES,
        }
    }

    fn kernel(self) -> Assembler {
        match self {
            Workload::Strided => kernel(),
            Workload::Barriers => barrier_kernel(),
        }
    }

    /// The memory the kernel writes its results to.
    fn outputs(self) -> std::ops::Range<u32> {
        match self {
            Workload::Strided => OUT..OUT + 4 * NUM_CORES as u32,
            Workload::Barriers => SLOTS..RESULTS + 4 * (BARRIER_CORES as u32 + 1),
        }
    }
}

fn config(fast_forward: bool, sample: u64, profile: bool) -> GpuConfig {
    workload_config(Workload::Strided, fast_forward, sample, profile)
}

fn workload_config(workload: Workload, fast_forward: bool, sample: u64, profile: bool) -> GpuConfig {
    let mut config = GpuConfig::with_cores(workload.cores());
    config.fast_forward = fast_forward;
    config.sample_interval = sample;
    config.profile = profile;
    if let Workload::Barriers = workload {
        // Injected DRAM delays stretch the barrier waits; keep the
        // watchdog well clear of them.
        config.watchdog_cycles = 50_000;
    }
    config
}

/// Same knobs on a clustered topology: clusters of 2 cores behind
/// per-cluster L2s and a shared L3, so the commit phase shards and the
/// quiet-shard early-outs must agree byte-for-byte with live ticking.
fn clustered_config(workload: Workload, fast_forward: bool, sample: u64, profile: bool) -> GpuConfig {
    let mut config = workload_config(workload, fast_forward, sample, profile);
    config.cores_per_cluster = 2;
    config.l2 = Some(vortex_mem::hierarchy::l2_default());
    config.l3 = Some(vortex_mem::hierarchy::l3_default());
    config
}

struct RunOutcome {
    stats: GpuStats,
    mem: Vec<u8>,
    series: Option<vortex_core::TimeSeries>,
    fault_draws: Vec<u64>,
    snapshot: Vec<u8>,
    profile_doc: Option<String>,
}

fn run_with(
    fast_forward: bool,
    sample: u64,
    profile: bool,
    faults: Option<&FaultConfig>,
) -> RunOutcome {
    run_cfg(Workload::Strided, config(fast_forward, sample, profile), faults)
}

fn run_cfg(workload: Workload, config: GpuConfig, faults: Option<&FaultConfig>) -> RunOutcome {
    let prog = workload.kernel().assemble(ENTRY).expect("kernel assembles");
    let mut gpu = Gpu::new(config);
    if let Some(f) = faults {
        gpu.apply_faults(f);
    }
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    let stats = gpu.run(5_000_000).expect("kernel completes");
    let mem = workload
        .outputs()
        .map(|addr| gpu.ram.read_u8(addr))
        .collect();
    RunOutcome {
        mem,
        series: gpu.time_series().cloned(),
        fault_draws: gpu.fault_draws(),
        snapshot: gpu.save_snapshot(),
        profile_doc: gpu
            .profile()
            .map(|p| vortex_obs::render_profile_json("ff", &p)),
        stats,
    }
}

/// Everything invariant between a skipping and a live run must agree.
fn assert_same(label: &str, live: &RunOutcome, ff: &RunOutcome) {
    assert_eq!(live.stats.cycles, ff.stats.cycles, "{label}: cycle count");
    assert_eq!(live.stats, ff.stats, "{label}: GpuStats");
    assert_eq!(live.mem, ff.mem, "{label}: final memory image");
    assert_eq!(live.series, ff.series, "{label}: telemetry time series");
    assert_eq!(live.fault_draws, ff.fault_draws, "{label}: fault draws");
    assert_eq!(live.snapshot, ff.snapshot, "{label}: snapshot bytes");
    assert_eq!(live.profile_doc, ff.profile_doc, "{label}: profile export");
}

#[test]
fn skipping_is_bit_identical() {
    let live = run_with(false, 0, false, None);
    assert_eq!(
        live.stats.cycles_skipped, 0,
        "skipping off must never skip"
    );
    assert_eq!(live.stats.skip_events, 0);
    // Sanity: the kernel did its memory-bound work.
    let sum0 = u32::from_le_bytes(live.mem[0..4].try_into().unwrap());
    assert_eq!(sum0, 0, "cold RAM reads sum to zero");
    assert!(live.stats.merged_dcache().read_misses >= 16 * NUM_CORES as u64 / 4);

    let ff = run_with(true, 0, false, None);
    assert_same("ff on", &live, &ff);
    assert!(
        ff.stats.cycles_skipped > 0,
        "memory-bound run must actually skip"
    );
    assert!(ff.stats.skip_events > 0);
    assert!(
        ff.stats.cycles_skipped < ff.stats.cycles,
        "skipped cycles are a subset of simulated cycles"
    );
}

#[test]
fn skipping_preserves_telemetry_and_profile() {
    for workload in Workload::ALL {
        let live = run_cfg(workload, workload_config(workload, false, 64, true), None);
        let series = live.series.as_ref().expect("sampling enabled");
        assert!(!series.samples.is_empty(), "run long enough to sample");
        assert!(live.profile_doc.is_some(), "profiling enabled");
        let ff = run_cfg(workload, workload_config(workload, true, 64, true), None);
        assert_same(&format!("{workload:?} sampled+profiled"), &live, &ff);
        assert!(ff.stats.cycles_skipped > 0, "windows don't stop skipping");
    }
}

#[test]
fn fault_draws_identical_with_skipping() {
    // Fault plans draw at per-tick sites, so faulted components refuse to
    // fast-forward; the audit chains must come out equal.
    let faults = FaultConfig::from_spec(
        "seed=77,elastic_stall=300,dram_stall=400,dram_delay=500,\
         dram_extra_latency=40,cache_rsp_stall=300",
    )
    .expect("valid spec");
    for workload in Workload::ALL {
        let live = run_cfg(workload, workload_config(workload, false, 0, false), Some(&faults));
        assert!(
            live.fault_draws.iter().sum::<u64>() > 0,
            "fault streams actually consumed"
        );
        let ff = run_cfg(workload, workload_config(workload, true, 0, false), Some(&faults));
        assert_same(&format!("{workload:?} faulted"), &live, &ff);
    }
}

#[test]
fn clustered_l2_l3_skipping_is_bit_identical() {
    for workload in Workload::ALL {
        let live = run_cfg(workload, clustered_config(workload, false, 64, true), None);
        assert_eq!(live.stats.cycles_skipped, 0, "skipping off never skips");
        assert!(
            live.stats.dram_reads > 0,
            "traffic must reach DRAM through the L2/L3 levels"
        );
        assert!(live.profile_doc.is_some(), "profiling enabled");
        if let Workload::Barriers = workload {
            let total = u32::from_le_bytes(live.mem[0..4].try_into().unwrap());
            assert_eq!(total, 16, "gtid 0 bumped its slot 16 times");
        }
        let ff = run_cfg(workload, clustered_config(workload, true, 64, true), None);
        assert_same(&format!("clustered {workload:?}"), &live, &ff);
        assert!(
            ff.stats.cycles_skipped > 0,
            "clustered {workload:?} run must actually skip"
        );
    }
}

#[test]
fn clustered_fault_draws_identical_with_skipping() {
    let faults = FaultConfig::from_spec(
        "seed=99,elastic_stall=300,dram_stall=400,dram_delay=500,\
         dram_extra_latency=40,cache_rsp_stall=300",
    )
    .expect("valid spec");
    for workload in Workload::ALL {
        let live = run_cfg(workload, clustered_config(workload, false, 0, false), Some(&faults));
        assert!(
            live.fault_draws.iter().sum::<u64>() > 0,
            "fault streams actually consumed"
        );
        let ff = run_cfg(workload, clustered_config(workload, true, 0, false), Some(&faults));
        assert_same(&format!("clustered {workload:?} faulted"), &live, &ff);
    }
}

#[test]
fn paused_machines_snapshot_identically() {
    // Interrupt both runs mid-flight (inside the DRAM-bound phase): the
    // skipping machine must stop on exactly the budget cycle with exactly
    // the live machine's snapshot bytes.
    let run_until = |fast_forward: bool, budget: u64| {
        let prog = kernel().assemble(ENTRY).expect("kernel assembles");
        let mut gpu = Gpu::new(config(fast_forward, 0, false));
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        assert_eq!(
            gpu.run(budget),
            Err(SimError::Timeout { cycles: budget }),
            "budget lands mid-run (ff {fast_forward})"
        );
        gpu.save_snapshot()
    };
    for budget in [100, 400, 1500] {
        assert_eq!(
            run_until(false, budget),
            run_until(true, budget),
            "snapshot bytes at paused cycle {budget}"
        );
    }
}

#[test]
fn gpu_stats_equality_ignores_host_skip_accounting() {
    // GpuStats equality is simulated-state equality: two identical
    // simulations that reached the end through different jump schedules
    // still compare equal, while any architectural divergence does not.
    let a = run_with(false, 0, false, None).stats;
    let b = run_with(true, 0, false, None).stats;
    assert_ne!(
        (a.cycles_skipped, a.skip_events),
        (b.cycles_skipped, b.skip_events)
    );
    assert_eq!(a, b);
    let mut c = b.clone();
    c.cycles += 1;
    assert_ne!(a, c);
}
