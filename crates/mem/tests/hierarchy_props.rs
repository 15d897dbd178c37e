//! Property tests for the multi-level hierarchy: liveness and exactly-once
//! response delivery under randomized multi-core traffic, across hierarchy
//! shapes (flat, L2, L2+L3).

use proptest::prelude::*;
use vortex_mem::dram::DramConfig;
use vortex_mem::hierarchy::{l2_default, l3_default, HierarchyConfig, MemHierarchy};
use vortex_mem::req::MemReq;

/// Per-core traffic: `(line, write)` pairs.
type Trace = Vec<(u32, bool)>;

fn drive(mut h: MemHierarchy, traces: Vec<Trace>) -> Result<(), String> {
    let num_cores = traces.len();
    let mut pending: Vec<Vec<MemReq>> = traces
        .iter()
        .enumerate()
        .map(|(core, t)| {
            t.iter()
                .enumerate()
                .map(|(i, &(line, write))| MemReq {
                    tag: ((core as u64) << 32) | i as u64,
                    addr: (line % 256) * 64,
                    write,
                })
                .collect()
        })
        .collect();
    let expected: Vec<usize> = pending
        .iter()
        .map(|reqs| reqs.iter().filter(|r| !r.write).count())
        .collect();
    let mut got = vec![0usize; num_cores];
    for cycle in 0..200_000u64 {
        for (core, reqs) in pending.iter_mut().enumerate() {
            if let Some(req) = reqs.first().copied() {
                if h.push_req(core, req).is_ok() {
                    reqs.remove(0);
                }
            }
        }
        h.tick();
        for (core, g) in got.iter_mut().enumerate() {
            while let Some(rsp) = h.pop_rsp(core) {
                if (rsp.tag >> 32) as usize != core {
                    return Err(format!("response routed to the wrong core: {rsp:?}"));
                }
                *g += 1;
            }
        }
        if got == expected && pending.iter().all(Vec::is_empty) && h.is_idle() {
            return Ok(());
        }
        let _ = cycle;
    }
    Err(format!("hierarchy wedged: got {got:?}, expected {expected:?}"))
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..32, any::<bool>()), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat hierarchy: every read responds exactly once, to its own core.
    #[test]
    fn flat_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 1..4)) {
        let h = MemHierarchy::new(HierarchyConfig::flat(
            traces.len(),
            DramConfig { latency: 20, channels: 2, queue_size: 8 },
        ));
        prop_assert!(drive(h, traces).is_ok());
    }

    /// L2 hierarchy, two clusters.
    #[test]
    fn l2_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 4..5)) {
        let mut cfg = HierarchyConfig::flat(
            traces.len(),
            DramConfig { latency: 30, channels: 2, queue_size: 8 },
        );
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        prop_assert!(drive(MemHierarchy::new(cfg), traces).is_ok());
    }

    /// Full three-level hierarchy.
    #[test]
    fn l3_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 4..5)) {
        let mut cfg = HierarchyConfig::flat(
            traces.len(),
            DramConfig { latency: 50, channels: 1, queue_size: 4 },
        );
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        prop_assert!(drive(MemHierarchy::new(cfg), traces).is_ok());
    }
}
