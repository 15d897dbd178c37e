//! The graphics cycle gate: `RasterBench::quick()` — geometry, binning
//! and the SIMT raster kernel with hardware texture sampling — on the
//! vxbench multi-core tier configuration (16 cores), pinned to its exact
//! simulated cycle count. Any change to the raster kernel, the fill rule,
//! the texture unit or the commit phase that moves simulated timing shows
//! up here as a one-number diff to review, exactly like the compute gates
//! in `BENCH_PR6.json`.

use vortex_core::GpuConfig;
use vortex_gfx::RasterBench;
use vortex_kernels::Benchmark;

/// The pinned cycle count for `raster-mc16` in quick mode (also recorded
/// in `BENCH_PR6.json`). Update deliberately, with the reason in the PR.
const RASTER_QUICK_CYCLES: u64 = 226_212;

#[test]
fn raster_mc16_quick_cycles_are_pinned() {
    let r = RasterBench::quick().run_on(&GpuConfig::with_cores(16));
    assert!(r.validated, "raster bench must validate device against host");
    assert_eq!(
        r.stats.cycles, RASTER_QUICK_CYCLES,
        "raster-mc16 (quick) simulated cycles moved — if intentional, \
         update the pin and re-record BENCH_PR6.json"
    );
}
