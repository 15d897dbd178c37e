//! Faulted runs pinned to absolute numbers. The determinism suites
//! compare a faulted run only with itself (fast-forward on/off,
//! checkpoint resume), so a change that reorders fault draws — e.g. one
//! more or one fewer handshake attempt between memory levels — would pass
//! them. These pins hold the cycle count, every fault site's draw count
//! and the DRAM traffic of one benign fault spec on a flat and on a
//! clustered L2+L3 topology.

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, GpuStats};
use vortex_faults::FaultConfig;
use vortex_isa::{csr, Reg};

const ENTRY: u32 = 0x8000_0000;

/// Benign: every stall, delay and held response is retried, so the
/// kernel still completes, only later.
const SPEC: &str = "seed=77,elastic_stall=300,dram_stall=400,dram_delay=500,\
                    dram_extra_latency=40,cache_rsp_stall=300";

/// Every thread of every wavefront walks its own cold lines, loading and
/// storing, so I-cache, D-cache, shared-level and DRAM handshakes all
/// see backpressure and stalls.
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
    a.slli(Reg::X6, Reg::X6, 6);
    a.li(Reg::X7, 0x0002_0000);
    a.add(Reg::X6, Reg::X6, Reg::X7); // base = 0x20000 + 64·gtid
    a.li(Reg::X8, 0); // sum
    a.li(Reg::X9, 48); // iterations (uniform: no divergence)
    a.label("walk").unwrap();
    a.lw(Reg::X10, Reg::X6, 0);
    a.add(Reg::X8, Reg::X8, Reg::X10);
    a.sw(Reg::X8, Reg::X6, 4);
    a.li(Reg::X11, 4160);
    a.add(Reg::X6, Reg::X6, Reg::X11);
    a.addi(Reg::X9, Reg::X9, -1);
    a.bnez(Reg::X9, "walk");
    a.fence();
    a.ecall();
    a
}

fn run(config: GpuConfig) -> (GpuStats, Vec<u64>) {
    let prog = kernel().assemble(ENTRY).expect("kernel assembles");
    let mut gpu = Gpu::new(config);
    gpu.apply_faults(&FaultConfig::from_spec(SPEC).expect("spec parses"));
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    let stats = gpu.run(5_000_000).expect("benign faults still complete");
    (stats, gpu.fault_draws())
}

#[test]
fn flat_faulted_run_is_pinned() {
    let (stats, draws) = run(GpuConfig::with_cores(4));
    assert_eq!(stats.cycles, 9068, "cycles");
    assert_eq!(draws, [10548, 10530, 10642, 10605, 24061], "fault draws per site");
    assert_eq!((stats.dram_reads, stats.dram_writes), (3080, 3072), "DRAM reads/writes");
}

#[test]
fn clustered_faulted_run_is_pinned() {
    let mut config = GpuConfig::with_cores(16);
    config.cores_per_cluster = 4;
    config.l2 = Some(vortex_mem::hierarchy::l2_default());
    config.l3 = Some(vortex_mem::hierarchy::l3_default());
    let (stats, draws) = run(config);
    assert_eq!(stats.cycles, 13713, "cycles");
    assert_eq!(
        draws,
        [
            15122, 15189, 15161, 15261, 15220, 15262, 15217, 15266, 15380, 15611, 15972, 15707,
            17686, 16931, 16901, 19786, 155478,
        ],
        "fault draws per site (16 cores, then the shared hierarchy)"
    );
    assert_eq!((stats.dram_reads, stats.dram_writes), (3313, 12288), "DRAM reads/writes");
}
