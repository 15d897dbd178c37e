//! Interrupted ≡ uninterrupted: a run paused at any checkpoint boundary,
//! serialized with `Gpu::save_snapshot`, restored into a *fresh* machine
//! with `Gpu::restore_snapshot`, and continued must be bit-identical —
//! simulated cycles, every `GpuStats` counter, the final memory image,
//! the telemetry time series, and each fault site's RNG draw count — to a
//! run that was never touched. The interruption here is maximal: the
//! machine is killed and rebuilt at *every* checkpoint boundary, on a
//! flat and a clustered L2+L3 topology, with and without fault injection
//! and telemetry sampling, and across fast-forward settings (snapshots
//! are portable between them: the config fingerprint normalizes
//! `fast_forward`).

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, GpuStats, SimError};
use vortex_faults::FaultConfig;
use vortex_isa::{csr, vx, Reg};

const ENTRY: u32 = 0x8000_0000;
const NUM_CORES: usize = 8;
const SLOTS: u32 = 0x9000;
const RESULTS: u32 = 0x9400;

/// A commit-phase stress workload: every core lights up all wavefronts and
/// threads, each thread hammers a private global counter through the D$,
/// odd threads diverge, and wavefront 0 / thread 0 of every core runs two
/// rounds of publish → fence → global barrier → sum. Mid-run state here
/// covers regfiles, IPDOM stacks, in-flight loads, barrier tables, and
/// cross-core memory traffic — exactly what a snapshot must capture.
fn kernel() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_NW);
    a.la(Reg::X6, "worker");
    a.wspawn(Reg::X5, Reg::X6);
    a.j("worker");

    a.label("worker").unwrap();
    a.csrr(Reg::X5, csr::VX_NT);
    a.tmc(Reg::X5);
    a.csrr(Reg::X6, csr::VX_GTID);
    a.slli(Reg::X7, Reg::X6, 2);
    a.li(Reg::X8, SLOTS as i32);
    a.add(Reg::X7, Reg::X7, Reg::X8);
    a.li(Reg::X9, 0);
    a.li(Reg::X10, 16);
    a.label("bump").unwrap();
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 1);
    a.sw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X9, Reg::X9, 1);
    a.blt(Reg::X9, Reg::X10, "bump");
    a.andi(Reg::X12, Reg::X6, 1);
    a.split(Reg::X12);
    a.beqz(Reg::X12, "even");
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 100);
    a.sw(Reg::X11, Reg::X7, 0);
    a.label("even").unwrap();
    a.join();
    a.csrr(Reg::X13, csr::VX_WID);
    a.csrr(Reg::X14, csr::VX_TID);
    a.add(Reg::X13, Reg::X13, Reg::X14);
    a.seqz(Reg::X13, Reg::X13);
    a.split(Reg::X13);
    a.beqz(Reg::X13, "done");
    a.csrr(Reg::X15, csr::VX_CID);
    a.li(Reg::X20, 0);
    a.li(Reg::X21, 0);
    a.label("round").unwrap();
    a.slli(Reg::X16, Reg::X15, 2);
    a.li(Reg::X17, RESULTS as i32);
    a.add(Reg::X16, Reg::X16, Reg::X17);
    a.addi(Reg::X18, Reg::X21, 7);
    a.sw(Reg::X18, Reg::X16, 0);
    a.fence();
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, NUM_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.li(Reg::X24, RESULTS as i32);
    for i in 0..NUM_CORES as i32 {
        a.lw(Reg::X25, Reg::X24, i * 4);
        a.add(Reg::X21, Reg::X21, Reg::X25);
    }
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.addi(Reg::X22, Reg::X22, 4);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, NUM_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.addi(Reg::X20, Reg::X20, 1);
    a.li(Reg::X26, 2);
    a.blt(Reg::X20, Reg::X26, "round");
    a.sw(Reg::X21, Reg::X16, 4 * NUM_CORES as i32);
    a.label("done").unwrap();
    a.join();
    a.ecall();
    a
}

fn make_config(sample: u64) -> GpuConfig {
    let mut config = GpuConfig::with_cores(NUM_CORES);
    config.sample_interval = sample;
    config.watchdog_cycles = 50_000;
    config
}

/// [`make_config`] on 4 clusters of 2 cores behind per-cluster L2s and a
/// shared L3: the snapshot must carry every shard's in-flight state.
fn clustered_config(sample: u64) -> GpuConfig {
    let mut config = make_config(sample);
    config.cores_per_cluster = 2;
    config.l2 = Some(vortex_mem::hierarchy::l2_default());
    config.l3 = Some(vortex_mem::hierarchy::l3_default());
    config
}

/// Both topologies, labelled, for one sampling interval.
fn topologies(sample: u64) -> [(&'static str, GpuConfig); 2] {
    [
        ("flat", make_config(sample)),
        ("clustered", clustered_config(sample)),
    ]
}

fn boot(config: GpuConfig, faults: Option<&FaultConfig>) -> Gpu {
    let prog = kernel().assemble(ENTRY).expect("kernel assembles");
    let mut gpu = Gpu::new(config);
    if let Some(f) = faults {
        gpu.apply_faults(f);
    }
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu
}

struct RunOutcome {
    stats: GpuStats,
    mem: Vec<u8>,
    series: Option<vortex_core::TimeSeries>,
    fault_draws: Vec<u64>,
}

fn outcome_of(gpu: &Gpu, stats: GpuStats) -> RunOutcome {
    let mem = (SLOTS..RESULTS + 4 * (NUM_CORES as u32 + 1))
        .map(|addr| gpu.ram.read_u8(addr))
        .collect();
    RunOutcome {
        stats,
        mem,
        series: gpu.time_series().cloned(),
        fault_draws: gpu.fault_draws(),
    }
}

/// One continuous run to completion.
fn run_uninterrupted(config: GpuConfig, faults: Option<&FaultConfig>) -> RunOutcome {
    let mut gpu = boot(config, faults);
    let stats = gpu.run(5_000_000).expect("kernel completes");
    outcome_of(&gpu, stats)
}

/// The same run killed and resumed at every `every`-cycle boundary: at
/// each pause the machine is serialized, dropped, and a *fresh* `Gpu`
/// (built from `resume`, with no program load and no fault
/// re-application — everything must come from the snapshot) picks up
/// from the bytes. `boot` and `resume` may differ in host-execution knobs
/// to prove snapshots are portable across them.
fn run_interrupted(
    boot_config: GpuConfig,
    resume: &GpuConfig,
    faults: Option<&FaultConfig>,
    every: u64,
) -> RunOutcome {
    let mut gpu = boot(boot_config, faults);
    let mut interruptions = 0u32;
    let stats = loop {
        let target = (gpu.cycle() / every + 1) * every;
        match gpu.run(target.min(5_000_000)) {
            Ok(stats) => break stats,
            Err(SimError::Timeout { cycles }) if cycles < 5_000_000 => {
                let bytes = gpu.save_snapshot();
                drop(gpu);
                gpu = Gpu::new(resume.clone());
                gpu.restore_snapshot(&bytes)
                    .expect("own snapshot restores");
                interruptions += 1;
            }
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    };
    assert!(
        interruptions >= 3,
        "run must actually be interrupted several times (got {interruptions})"
    );
    outcome_of(&gpu, stats)
}

/// Asserts two outcomes are bit-identical, with a readable label.
fn assert_same(label: &str, a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.stats.cycles, b.stats.cycles, "{label}: cycle count");
    assert_eq!(a.stats, b.stats, "{label}: GpuStats");
    assert_eq!(a.mem, b.mem, "{label}: final memory image");
    assert_eq!(a.series, b.series, "{label}: telemetry time series");
    assert_eq!(a.fault_draws, b.fault_draws, "{label}: fault-site draws");
}

#[test]
fn interrupted_run_is_bit_identical() {
    for (topology, config) in topologies(0) {
        let baseline = run_uninterrupted(config.clone(), None);
        let total = u32::from_le_bytes(baseline.mem[0..4].try_into().unwrap());
        assert_eq!(total, 16, "{topology}: gtid 0 bumped its slot 16 times");
        let run = run_interrupted(config.clone(), &config, None, 400);
        assert_same(&format!("{topology} interrupted vs continuous"), &baseline, &run);
    }
}

#[test]
fn resume_is_portable_across_fast_forward() {
    let baseline = run_uninterrupted(make_config(0), None);
    // Saved with skipping on, resumed with it off — and the other way
    // around. Cycle-exact either way.
    for boot_ff in [true, false] {
        let mut boot_config = make_config(0);
        boot_config.fast_forward = boot_ff;
        let mut resume = make_config(0);
        resume.fast_forward = !boot_ff;
        let run = run_interrupted(boot_config, &resume, None, 400);
        assert_same(
            &format!("boot ff {boot_ff}, resume ff {}", !boot_ff),
            &baseline,
            &run,
        );
    }
}

#[test]
fn interrupted_faulted_run_is_bit_identical() {
    // Non-fatal fault classes only (drops hang by design). The fault
    // plans' RNG positions and draw counters travel inside the snapshot;
    // if they did not, the post-resume decision streams would diverge and
    // the cycle counts with them.
    let faults = FaultConfig::from_spec(
        "seed=1234,elastic_stall=300,dram_stall=400,dram_delay=500,\
         dram_extra_latency=40,cache_rsp_stall=300",
    )
    .expect("valid spec");
    for (topology, config) in topologies(0) {
        let baseline = run_uninterrupted(config.clone(), Some(&faults));
        assert!(
            baseline.fault_draws.iter().sum::<u64>() > 0,
            "fault sites must actually consume their decision streams"
        );
        let run = run_interrupted(config.clone(), &config, Some(&faults), 400);
        assert_same(&format!("{topology} faulted interrupted"), &baseline, &run);
    }
}

#[test]
fn interrupted_sampled_run_is_bit_identical() {
    for (topology, config) in topologies(64) {
        let baseline = run_uninterrupted(config.clone(), None);
        let series = baseline.series.as_ref().expect("sampling enabled");
        assert!(!series.samples.is_empty(), "run is long enough to sample");
        // Checkpoint cadence deliberately not a multiple of the sample
        // interval, so pauses land mid-window and the accumulated deltas
        // must survive the round trip.
        let run = run_interrupted(config.clone(), &config, None, 300);
        assert_same(&format!("{topology} sampled interrupted"), &baseline, &run);
    }
}

#[test]
fn resaved_snapshot_bytes_are_identical() {
    // save → restore → save must reproduce the exact bytes: nothing in
    // the machine state is lost or reordered by a round trip.
    let mut gpu = boot(make_config(64), None);
    for pause in [300u64, 900, 1_500] {
        match gpu.run(pause) {
            Err(SimError::Timeout { .. }) => {}
            other => panic!("expected checkpoint pause, got {other:?}"),
        }
        let bytes = gpu.save_snapshot();
        let mut fresh = Gpu::new(make_config(64));
        fresh
            .restore_snapshot(&bytes)
            .expect("own snapshot restores");
        assert_eq!(
            bytes,
            fresh.save_snapshot(),
            "re-saved snapshot at cycle {pause} must be byte-identical"
        );
        gpu = fresh;
    }
}
