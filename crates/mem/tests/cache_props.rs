//! Property tests for the cache subsystem: liveness (no deadlock, no lost
//! or duplicated responses) under randomized traffic, for every virtual-port
//! configuration the paper evaluates.

use proptest::prelude::*;
use vortex_mem::cache::{Cache, CacheConfig};
use vortex_mem::dram::{Dram, DramConfig};
use vortex_mem::req::{MemReq, MemRsp};

/// Drives `cache` over `dram` until every read in `trace` has responded.
/// Returns the received tags; panics (via assert) on timeout, which would
/// indicate one of the paper's two cache-deadlock hazards.
fn run_trace(config: CacheConfig, dram_cfg: DramConfig, trace: Vec<MemReq>) -> Vec<u64> {
    let mut cache = Cache::new(config);
    let mut dram = Dram::new(dram_cfg);
    let expected_reads = trace.iter().filter(|r| !r.write).count();
    let mut pending = trace;
    let mut got = Vec::new();
    let budget = 50_000u64;
    for _ in 0..budget {
        // Offer up to 4 requests per cycle (one wavefront's worth).
        let mut window: Vec<MemReq> = Vec::new();
        while window.len() < 4 && !pending.is_empty() {
            window.push(pending.remove(0));
        }
        cache.offer(&mut window);
        // Put back the refused ones, preserving order.
        for (i, r) in window.into_iter().enumerate() {
            pending.insert(i, r);
        }
        cache.tick();
        while let Some(req) = cache.peek_mem_req().copied() {
            if dram.push_req(req).is_ok() {
                cache.pop_mem_req();
            } else {
                break;
            }
        }
        dram.tick();
        while let Some(rsp) = dram.pop_rsp() {
            cache.push_mem_rsp(rsp);
        }
        while let Some(MemRsp { tag }) = cache.pop_rsp() {
            got.push(tag);
        }
        if got.len() == expected_reads && pending.is_empty() && cache.is_idle() && dram.is_idle() {
            return got;
        }
    }
    panic!(
        "cache deadlock or lost response: got {} of {expected_reads} reads",
        got.len()
    );
}

fn req_strategy() -> impl Strategy<Value = MemReq> {
    (any::<bool>(), 0u32..64, 0u32..16).prop_map(|(write, line, word)| MemReq {
        tag: 0, // assigned later
        addr: line * 64 + word * 4,
        write,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every accepted read gets exactly one response, regardless of the
    /// port count, traffic mix, or DRAM speed.
    #[test]
    fn reads_complete_exactly_once(
        raw_trace in prop::collection::vec(req_strategy(), 1..200),
        ports in prop::sample::select(vec![1usize, 2, 4]),
        mshr_size in 4usize..32,
        latency in 1u32..50,
        channels in 1u32..4,
    ) {
        let trace: Vec<MemReq> = raw_trace
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| { r.tag = i as u64; r })
            .collect();
        let read_tags: Vec<u64> =
            trace.iter().filter(|r| !r.write).map(|r| r.tag).collect();
        let config = CacheConfig {
            size_bytes: 2048,
            line_bytes: 64,
            num_banks: 4,
            num_ways: 1,
            ports,
            mshr_size,
            input_queue: 2,
            memq_size: 4,
        };
        let dram_cfg = DramConfig { latency, channels, queue_size: 4 };
        let mut got = run_trace(config, dram_cfg, trace);
        got.sort_unstable();
        let mut want = read_tags;
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// On wavefront-coherent traffic (the four lanes of a wavefront touching
    /// the same cache line — the locality Algorithm 2 exploits), virtual
    /// ports monotonically remove bank conflicts, and four ports remove all
    /// of them.
    #[test]
    fn more_ports_never_more_conflicts(
        lines in prop::collection::vec(0u32..64, 1..40),
    ) {
        // Each group of 4 lane requests targets one line at 4 word offsets.
        let trace: Vec<MemReq> = lines
            .iter()
            .enumerate()
            .flat_map(|(g, &line)| {
                (0..4).map(move |lane| MemReq {
                    tag: (g * 4 + lane) as u64,
                    addr: line * 64 + lane as u32 * 4,
                    write: false,
                })
            })
            .collect();
        let dram_cfg = DramConfig { latency: 10, channels: 2, queue_size: 8 };
        let mut conflicts = Vec::new();
        for ports in [1usize, 2, 4] {
            let config = CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                num_banks: 4,
                num_ways: 1,
                ports,
                mshr_size: 16,
                input_queue: 2,
                memq_size: 8,
            };
            let mut cache = Cache::new(config);
            let mut dram = Dram::new(dram_cfg);
            let mut pending = trace.clone();
            let mut done = 0usize;
            let reads = trace.iter().filter(|r| !r.write).count();
            for _ in 0..50_000 {
                let mut window: Vec<MemReq> = Vec::new();
                while window.len() < 4 && !pending.is_empty() {
                    window.push(pending.remove(0));
                }
                cache.offer(&mut window);
                for (i, r) in window.into_iter().enumerate() {
                    pending.insert(i, r);
                }
                cache.tick();
                while let Some(req) = cache.peek_mem_req().copied() {
                    if dram.push_req(req).is_ok() { cache.pop_mem_req(); } else { break; }
                }
                dram.tick();
                while let Some(rsp) = dram.pop_rsp() { cache.push_mem_rsp(rsp); }
                while cache.pop_rsp().is_some() { done += 1; }
                if done == reads && pending.is_empty() && cache.is_idle() { break; }
            }
            prop_assert_eq!(done, reads);
            conflicts.push(cache.stats.bank_conflicts);
        }
        prop_assert!(conflicts[1] <= conflicts[0],
            "2 ports worse than 1: {:?}", conflicts);
        prop_assert!(conflicts[2] <= conflicts[1],
            "4 ports worse than 2: {:?}", conflicts);
        prop_assert_eq!(conflicts[2], 0,
            "4 ports must absorb a full wavefront of same-line requests");
    }
}
