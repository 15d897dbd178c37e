//! Snapshot compatibility: every `.vxsnap` container is sealed with
//! `Gpu::config_fingerprint`, so a change to the fingerprint of an
//! existing configuration orphans every snapshot written before it. The
//! values below are pinned; changing one is a snapshot-format break and
//! must be deliberate.

use vortex::gpu::{Gpu, GpuConfig};
use vortex::mem::hierarchy::{l2_default, l3_default};

fn fingerprint(config: GpuConfig) -> u64 {
    Gpu::new(config).config_fingerprint()
}

#[test]
fn flat_four_core_fingerprint_is_pinned() {
    assert_eq!(fingerprint(GpuConfig::with_cores(4)), 0x123b_637a_6a5c_4c78);
}

#[test]
fn clustered_l2_l3_fingerprint_is_pinned() {
    let mut config = GpuConfig::with_cores(16);
    config.cores_per_cluster = 4;
    config.l2 = Some(l2_default());
    config.l3 = Some(l3_default());
    assert_eq!(fingerprint(config), 0x04ce_75b8_cf65_9e29);
}

#[test]
fn host_execution_knobs_stay_out_of_the_fingerprint() {
    let base = GpuConfig::with_cores(4);
    let mut knobs = base.clone();
    knobs.checkpoint_drill = 5_000;
    knobs.fast_forward = !base.fast_forward;
    assert_eq!(fingerprint(knobs), fingerprint(base));
}
