//! The multi-level memory hierarchy.
//!
//! Composes the levels of Figure 4: per-core L1 caches below an optional
//! shared L2 per cluster, an optional L3 shared by clusters, and the DRAM
//! at the bottom. [`MemHierarchy`] owns everything *above* the L1s: it
//! exposes one port per core on which the cores push their L1 miss traffic
//! and receive fills back.
//!
//! Tag management: every level re-tags requests with a fresh id and records
//! `(source port, original tag)` so responses route back even when two
//! cores fill the same line address concurrently.
//!
//! # One handshake
//!
//! Traffic crosses every level boundary the same way: the upstream cache's
//! memory queue hands requests, oldest first, to the downstream level's
//! `push` until it refuses one ([`Cache::forward_mem_reqs`]). A shared
//! level refuses when its admission buffer is full; the DRAM refuses when
//! its input queue is full or its fault plan stalls the handshake. Core
//! ports enter the same way through [`MemHierarchy::push_req`], and
//! [`MemHierarchy::tick`] moves everything below them: each cluster's L2,
//! in ascending cluster order, then the L3, then the DRAM.

use crate::cache::{Cache, CacheConfig, CacheOccupancy};
use crate::dram::{Dram, DramConfig};
use crate::req::{MemReq, MemRsp, Tag};
use std::collections::VecDeque;
use std::fmt;
use vortex_faults::{site, FaultConfig};
use vortex_snapshot::{Reader, Snap, SnapError, SnapResult, Writer};

/// Hierarchy shape above the L1s.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Number of core ports (one per core: I$ + D$ traffic share it).
    pub num_cores: usize,
    /// Cores per cluster (for L2 sharing); must divide `num_cores`.
    pub cores_per_cluster: usize,
    /// Optional shared L2 per cluster.
    pub l2: Option<CacheConfig>,
    /// Optional L3 shared by all clusters.
    pub l3: Option<CacheConfig>,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// A hierarchy with no L2/L3: cores talk straight to DRAM.
    pub fn flat(num_cores: usize, dram: DramConfig) -> Self {
        Self {
            num_cores,
            cores_per_cluster: num_cores.max(1),
            l2: None,
            l3: None,
            dram,
        }
    }

    fn num_clusters(&self) -> usize {
        self.num_cores.div_ceil(self.cores_per_cluster)
    }
}

/// Default L2: 128 KiB, 8 banks, 64 B lines.
pub fn l2_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 128 * 1024,
        line_bytes: 64,
        num_banks: 8,
        num_ways: 2,
        ports: 1,
        mshr_size: 32,
        input_queue: 4,
        memq_size: 16,
    }
}

/// Default L3: 512 KiB, 8 banks, 64 B lines.
pub fn l3_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 512 * 1024,
        line_bytes: 64,
        num_banks: 8,
        num_ways: 4,
        ports: 1,
        mshr_size: 64,
        input_queue: 4,
        memq_size: 16,
    }
}

/// Remembers where a re-tagged request came from.
///
/// The wrapped tag *is* the slot index, so routing a response back is an
/// array read instead of a hash lookup, and a slot freed by one response is
/// reused by a later request without touching the allocator. The free list
/// is LIFO and its order is part of the serialized state: future tag values
/// ride inside in-flight `MemReq`s, so a restore must replay the exact same
/// assignment sequence. Tag values are otherwise opaque — no level orders
/// or times on them — which keeps slot reuse timing-invariant.
#[derive(Debug)]
struct TagTable {
    slots: Vec<Option<(usize, Tag)>>,
    /// Free slot indices, popped LIFO.
    free: Vec<Tag>,
    live: usize,
    /// Most slots ever simultaneously live (host diagnostic, not state).
    high_water: usize,
    /// Times the table grew past its reservation. Zero on fault-free runs;
    /// dropped DRAM responses (fault injection) strand slots by design and
    /// may force growth.
    grows: u64,
}

impl TagTable {
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: vec![None; cap],
            // Reverse so pops hand out 0, 1, 2, … — matches a fresh table's
            // natural numbering and keeps unit-test tags readable.
            free: (0..cap as Tag).rev().collect(),
            live: 0,
            high_water: 0,
            grows: 0,
        }
    }

    fn wrap(&mut self, port: usize, orig: Tag) -> Tag {
        let tag = match self.free.pop() {
            Some(t) => t,
            None => {
                self.grows += 1;
                self.slots.push(None);
                (self.slots.len() - 1) as Tag
            }
        };
        self.slots[tag as usize] = Some((port, orig));
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        tag
    }

    fn unwrap(&mut self, tag: Tag) -> Option<(usize, Tag)> {
        let entry = self.slots.get_mut(tag as usize)?.take()?;
        self.free.push(tag);
        self.live -= 1;
        Some(entry)
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Serialized as the full slot array plus the free list *in order* —
    /// the LIFO order decides which tag values future requests get, and
    /// those values must match the ones already riding in serialized
    /// in-flight requests.
    fn save_state(&self, w: &mut Writer) {
        self.slots.save(w);
        self.free.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        let slots = Vec::<Option<(usize, Tag)>>::load(r)?;
        let free = Vec::<Tag>::load(r)?;
        let live = slots.iter().filter(|s| s.is_some()).count();
        if live + free.len() != slots.len() {
            return Err(SnapError::BadValue("tag table accounting"));
        }
        for &f in &free {
            match slots.get(f as usize) {
                Some(None) => {}
                _ => return Err(SnapError::BadValue("tag table free list")),
            }
        }
        self.slots = slots;
        self.free = free;
        self.live = live;
        self.high_water = live;
        self.grows = 0;
        Ok(())
    }
}

/// A cache level shared by several upstream ports.
///
/// All queues are reserved at construction and never reallocate in steady
/// state: `pending` is bounded by its admission check, each `rsp_out` queue
/// is drained every cycle and can gain at most a tick's worth of cache
/// responses, and the tag table is sized for the level's maximum number of
/// in-flight reads.
#[derive(Debug)]
struct SharedLevel {
    cache: Cache,
    tags: TagTable,
    /// Requests admitted from upstream but not yet accepted by the bank
    /// selector (bounded by the selector's own backpressure).
    pending: Vec<MemReq>,
    /// Admission bound for `pending`: two slots per upstream port.
    pending_cap: usize,
    /// Responses routed back per upstream port.
    rsp_out: Vec<VecDeque<MemRsp>>,
    /// Reservation for each `rsp_out` queue; the high-water mark is
    /// audited against it by the allocation tests.
    #[cfg_attr(not(test), allow(dead_code))]
    rsp_reserved: usize,
    /// Most responses ever queued on one port (host diagnostic, not state).
    rsp_high_water: usize,
}

impl SharedLevel {
    fn new(config: CacheConfig, ports: usize) -> Self {
        let pending_cap = ports * 2;
        // A single tick can retire at most one access per bank stage, but a
        // fill releasing MSHR subscribers can surface a burst; reserve for
        // the worst realistic burst and audit the high-water mark in tests.
        let rsp_reserved = config.num_banks * config.ports.max(1) * 4 + 16;
        // Reads alive inside the level: staged admissions, bank input
        // queues, pipeline stages, replays, and MSHR subscribers.
        let tag_cap = pending_cap
            + config.num_banks * (config.input_queue + 4) * config.ports.max(1)
            + 2 * config.num_banks * config.mshr_size;
        Self {
            cache: Cache::new(config),
            tags: TagTable::with_capacity(tag_cap),
            pending: Vec::with_capacity(pending_cap),
            pending_cap,
            rsp_out: (0..ports)
                .map(|_| VecDeque::with_capacity(rsp_reserved))
                .collect(),
            rsp_reserved,
            rsp_high_water: 0,
        }
    }

    /// Admits an upstream request if the pending buffer has room. The
    /// bound is pure capacity: this handshake has no fault gate.
    fn push_req(&mut self, port: usize, req: MemReq) -> Result<(), MemReq> {
        if self.pending.len() >= self.pending_cap {
            return Err(req);
        }
        // Writes never produce responses, so don't record a routing entry
        // for them (it would never be reclaimed).
        let tag = if req.write {
            0
        } else {
            self.tags.wrap(port, req.tag)
        };
        self.pending.push(MemReq { tag, ..req });
        Ok(())
    }

    /// Advances the level one cycle. A quiescent level (see
    /// [`SharedLevel::ff_idle`]) returns at once: its tick would change
    /// no state and draw no fault decision.
    fn tick(&mut self) {
        if self.ff_idle() {
            return;
        }
        self.cache.offer(&mut self.pending);
        self.cache.tick();
        while let Some(rsp) = self.cache.pop_rsp() {
            if let Some((port, orig)) = self.tags.unwrap(rsp.tag) {
                let q = &mut self.rsp_out[port];
                q.push_back(MemRsp { tag: orig });
                self.rsp_high_water = self.rsp_high_water.max(q.len());
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.cache.is_idle()
            && self.rsp_out.iter().all(VecDeque::is_empty)
    }

    /// `true` when a tick would change no state and draw no fault
    /// decision: nothing staged for the selector, nothing routed back
    /// upstream, and the cache itself fast-forward idle (which also
    /// rules out an attached fault plan). MSHR entries parked on
    /// in-flight fills do not disqualify — the fill wakes the level.
    fn ff_idle(&self) -> bool {
        self.pending.is_empty()
            && self.cache.ff_idle()
            && self.rsp_out.iter().all(VecDeque::is_empty)
    }

    fn save_state(&self, w: &mut Writer) {
        self.cache.save_state(w);
        self.tags.save_state(w);
        self.pending.save(w);
        for q in &self.rsp_out {
            q.save(w);
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.cache.restore_state(r)?;
        self.tags.restore_state(r)?;
        let n = r.len(1)?;
        if n > self.pending_cap {
            return Err(SnapError::BadValue("pending occupancy"));
        }
        self.pending.clear();
        for _ in 0..n {
            self.pending.push(MemReq::load(r)?);
        }
        for q in &mut self.rsp_out {
            let n = r.len(8)?;
            q.clear();
            for _ in 0..n {
                q.push_back(MemRsp::load(r)?);
            }
        }
        Ok(())
    }
}

/// Pushes one request into the DRAM input queue, re-tagged for routing
/// back to `port` — the one DRAM handshake for core, L2 and L3 traffic.
/// Capacity is checked before a routing tag is taken: a full queue with
/// an empty free list would otherwise grow the (serialized) slot table.
fn push_dram(dram: &mut Dram, tags: &mut TagTable, port: usize, req: MemReq) -> Result<(), MemReq> {
    if !dram.can_accept() {
        return Err(req);
    }
    let tag = if req.write {
        0
    } else {
        tags.wrap(port, req.tag)
    };
    dram.push_req(MemReq { tag, ..req }).map_err(|_| {
        // A fault plan stalled the handshake: hand the tag back, or it
        // leaks and the hierarchy never reads as idle again.
        if !req.write {
            tags.unwrap(tag);
        }
        req
    })
}

/// The memory system above the per-core L1 caches.
#[derive(Debug)]
pub struct MemHierarchy {
    config: HierarchyConfig,
    /// Per-cluster shared L2s (empty when none is configured). Core `c`
    /// talks to L2 `c / cores_per_cluster` on port `c % cores_per_cluster`.
    l2s: Vec<SharedLevel>,
    l3: Option<SharedLevel>,
    dram: Dram,
    dram_tags: TagTable,
    /// Per-core response queues (flat topology only; with L2s configured,
    /// responses ride the L2s' port queues instead).
    core_rsp: Vec<VecDeque<MemRsp>>,
}

impl MemHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    /// Panics if `cores_per_cluster` is zero.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores_per_cluster > 0, "cluster size must be non-zero");
        let clusters = config.num_clusters();
        let l2s = match &config.l2 {
            Some(cfg) => (0..clusters)
                .map(|_| SharedLevel::new(*cfg, config.cores_per_cluster))
                .collect(),
            None => Vec::new(),
        };
        let l3 = config
            .l3
            .as_ref()
            .map(|cfg| SharedLevel::new(*cfg, clusters.max(1)));
        let dcfg = config.dram;
        let dram_cap = dcfg.queue_size + dcfg.channels as usize * dcfg.latency as usize + 8;
        Self {
            dram: Dram::new(dcfg),
            dram_tags: TagTable::with_capacity(dram_cap),
            core_rsp: (0..config.num_cores).map(|_| VecDeque::new()).collect(),
            l2s,
            l3,
            config,
        }
    }

    /// Pushes one L1 miss-traffic request from `core` into its cluster's
    /// L2, or straight into the DRAM on a flat hierarchy. Fails on
    /// backpressure; the core retries next cycle.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn push_req(&mut self, core: usize, req: MemReq) -> Result<(), MemReq> {
        assert!(core < self.config.num_cores, "core id out of range");
        if self.l2s.is_empty() {
            return push_dram(&mut self.dram, &mut self.dram_tags, core, req);
        }
        let cpc = self.config.cores_per_cluster;
        self.l2s[core / cpc].push_req(core % cpc, req)
    }

    /// Pops one fill response destined for `core`.
    pub fn pop_rsp(&mut self, core: usize) -> Option<MemRsp> {
        if self.l2s.is_empty() {
            return self.core_rsp[core].pop_front();
        }
        let cpc = self.config.cores_per_cluster;
        self.l2s[core / cpc].rsp_out[core % cpc].pop_front()
    }

    /// Advances every shared level and the DRAM by one cycle: each L2
    /// ticks and forwards its misses to the L3 (or DRAM) in ascending
    /// cluster order, then the L3 ticks and forwards to the DRAM, the
    /// DRAM ticks, and completions route back up to the level or core
    /// port that asked.
    pub fn tick(&mut self) {
        let num_cores = self.config.num_cores;
        let Self {
            l2s,
            l3,
            dram,
            dram_tags,
            core_rsp,
            ..
        } = self;

        for (ci, l2) in l2s.iter_mut().enumerate() {
            l2.tick();
            match l3.as_mut() {
                Some(l3) => l2.cache.forward_mem_reqs(|req| l3.push_req(ci, req)),
                None => l2
                    .cache
                    .forward_mem_reqs(|req| push_dram(dram, dram_tags, num_cores + ci, req)),
            }
        }
        if let Some(l3) = l3.as_mut() {
            l3.tick();
            let port = num_cores + l2s.len();
            l3.cache
                .forward_mem_reqs(|req| push_dram(dram, dram_tags, port, req));
        }

        dram.tick();

        // DRAM responses → owning level.
        while let Some(rsp) = dram.pop_rsp() {
            let Some((port, orig)) = dram_tags.unwrap(rsp.tag) else {
                continue;
            };
            let rsp = MemRsp { tag: orig };
            if port < num_cores {
                core_rsp[port].push_back(rsp);
            } else if let Some(l2) = l2s.get_mut(port - num_cores) {
                l2.cache.push_mem_rsp(rsp);
            } else if let Some(l3) = l3.as_mut() {
                l3.cache.push_mem_rsp(rsp);
            }
        }

        // L3 responses → L2 fills.
        if let Some(l3) = l3.as_mut() {
            for (l2, out) in l2s.iter_mut().zip(&mut l3.rsp_out) {
                while let Some(rsp) = out.pop_front() {
                    l2.cache.push_mem_rsp(rsp);
                }
            }
        }
    }

    /// Flushes every shared cache level (part of the `fence` path).
    pub fn flush(&mut self) {
        for level in self.levels_mut() {
            level.cache.flush();
        }
    }

    /// The shared levels: every L2 in cluster order, then the L3.
    fn levels(&self) -> impl Iterator<Item = &SharedLevel> {
        self.l2s.iter().chain(&self.l3)
    }

    fn levels_mut(&mut self) -> impl Iterator<Item = &mut SharedLevel> {
        self.l2s.iter_mut().chain(&mut self.l3)
    }

    /// `true` when nothing is in flight anywhere above the L1s.
    pub fn is_idle(&self) -> bool {
        self.dram.is_idle()
            && self.dram_tags.is_empty()
            && self.levels().all(SharedLevel::is_idle)
            && self.core_rsp.iter().all(VecDeque::is_empty)
    }

    /// The earliest cycle whose [`MemHierarchy::tick`] could change
    /// state above the L1s. With work queued in any shared level (or a
    /// fault plan attached to one), fill responses waiting on core
    /// ports, or queued/fault work at the DRAM, that is `now`; with
    /// only DRAM accesses in flight it is the tick on which the oldest
    /// one retires; when everything above the L1s is drained,
    /// `u64::MAX` (outstanding routing tags alone hold no event — they
    /// wait on DRAM in-flight entries, which are accounted here).
    pub fn next_event_cycle(&self, now: u64) -> u64 {
        let levels_idle =
            self.levels().all(SharedLevel::ff_idle) && self.core_rsp.iter().all(VecDeque::is_empty);
        if !levels_idle {
            return now;
        }
        self.dram.next_event_cycle()
    }

    /// The bulk equivalent of `delta` certified-idle ticks (see
    /// [`MemHierarchy::next_event_cycle`]): every queue above the L1s
    /// is empty, so the only per-tick effect is the DRAM clock advancing.
    pub fn bulk_advance(&mut self, delta: u64) {
        self.dram.advance(delta);
    }

    /// Total DRAM reads serviced.
    pub fn dram_reads(&self) -> u64 {
        self.dram.total_reads
    }

    /// Total DRAM writes serviced.
    pub fn dram_writes(&self) -> u64 {
        self.dram.total_writes
    }

    /// Read responses dropped by fault injection.
    pub fn dram_dropped(&self) -> u64 {
        self.dram.dropped_rsps
    }

    /// L2 statistics per cluster (empty when no L2 is configured).
    pub fn l2_stats(&self) -> Vec<crate::cache::CacheStats> {
        self.l2s.iter().map(|l| l.cache.stats).collect()
    }

    /// Times any routing tag table grew past its reservation — the
    /// allocation audit's headline number; zero on fault-free runs.
    pub fn tag_grows(&self) -> u64 {
        self.dram_tags.grows + self.levels().map(|l| l.tags.grows).sum::<u64>()
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Derives and attaches fault plans for the DRAM and every shared
    /// cache level. Each component gets its own decision stream, so runs
    /// are reproducible for a given seed regardless of topology.
    pub fn apply_faults(&mut self, faults: &FaultConfig) {
        if faults.is_noop() {
            return;
        }
        self.dram.set_fault(faults.plan(site::DRAM));
        for (i, l2) in self.l2s.iter_mut().enumerate() {
            l2.cache.set_fault(faults.plan(site::l2(i)));
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.set_fault(faults.plan(site::L3));
        }
    }

    /// Detaches every fault plan above the L1s (recovery masking: a retry
    /// after rollback re-runs the remaining window fault-free).
    pub fn clear_faults(&mut self) {
        self.dram.clear_fault();
        for level in self.levels_mut() {
            level.cache.clear_fault();
        }
    }

    /// Decisions drawn across every fault plan attached above the L1s
    /// (DRAM + shared cache levels) — input to the per-site determinism
    /// audit: equal totals at equal simulation points mean the shared
    /// hierarchy consumed its decision streams identically.
    pub fn fault_draws(&self) -> u64 {
        self.dram.fault_draws() + self.levels().map(|l| l.cache.fault_draws()).sum::<u64>()
    }

    /// Appends everything in flight above the L1s: every shared level
    /// (L2s in cluster order, then the L3), the DRAM, the routing tag
    /// tables and the per-core response queues.
    pub fn save_state(&self, w: &mut Writer) {
        for level in self.levels() {
            level.save_state(w);
        }
        self.dram.save_state(w);
        self.dram_tags.save_state(w);
        for q in &self.core_rsp {
            q.save(w);
        }
    }

    /// Restores the hierarchy in place. The level structure (cluster
    /// count, presence of L2/L3) comes from this hierarchy's own
    /// configuration, never from the payload.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        for level in self.levels_mut() {
            level.restore_state(r)?;
        }
        self.dram.restore_state(r)?;
        self.dram_tags.restore_state(r)?;
        for q in &mut self.core_rsp {
            *q = VecDeque::load(r)?;
        }
        Ok(())
    }

    /// Queue depths across the whole hierarchy, for hang diagnosis.
    pub fn occupancy(&self) -> HierarchyOccupancy {
        let (dram_input, dram_in_flight, dram_responses) = self.dram.occupancy();
        HierarchyOccupancy {
            dram_input,
            dram_in_flight,
            dram_responses,
            dram_dropped: self.dram.dropped_rsps,
            outstanding_tags: self.dram_tags.len(),
            l2: self.l2s.iter().map(|l| l.cache.occupancy()).collect(),
            l3: self.l3.as_ref().map(|l| l.cache.occupancy()),
            core_rsp_pending: self.core_rsp.iter().map(VecDeque::len).sum::<usize>()
                + self
                    .l2s
                    .iter()
                    .flat_map(|l| &l.rsp_out)
                    .map(VecDeque::len)
                    .sum::<usize>(),
        }
    }
}

/// Queue depths across the shared memory system, for hang diagnosis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyOccupancy {
    /// Requests queued at the DRAM controller input.
    pub dram_input: usize,
    /// Accesses in flight inside DRAM.
    pub dram_in_flight: usize,
    /// DRAM read responses not yet routed.
    pub dram_responses: usize,
    /// Read responses dropped by fault injection (each one strands a tag).
    pub dram_dropped: u64,
    /// Routing tags awaiting a response — reads the hierarchy still owes.
    pub outstanding_tags: usize,
    /// Per-cluster L2 occupancy (empty when no L2 is configured).
    pub l2: Vec<CacheOccupancy>,
    /// L3 occupancy when configured.
    pub l3: Option<CacheOccupancy>,
    /// Fill responses queued on core ports, not yet consumed.
    pub core_rsp_pending: usize,
}

impl fmt::Display for HierarchyOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dram: input={} in-flight={} rsp={} dropped={} owed-tags={} core-rsp={}",
            self.dram_input,
            self.dram_in_flight,
            self.dram_responses,
            self.dram_dropped,
            self.outstanding_tags,
            self.core_rsp_pending,
        )?;
        for (i, l2) in self.l2.iter().enumerate() {
            write!(f, "\n    L2[{i}]: {l2}")?;
        }
        if let Some(l3) = &self.l3 {
            write!(f, "\n    L3: {l3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(h: &mut MemHierarchy, core: usize, mut reqs: Vec<MemReq>, max: u64) -> Vec<Tag> {
        let mut got = Vec::new();
        for _ in 0..max {
            if let Some(req) = reqs.first().copied() {
                if h.push_req(core, req).is_ok() {
                    reqs.remove(0);
                }
            }
            h.tick();
            while let Some(rsp) = h.pop_rsp(core) {
                got.push(rsp.tag);
            }
            if reqs.is_empty() && h.is_idle() {
                break;
            }
        }
        got
    }

    #[test]
    fn flat_hierarchy_round_trips() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(
            2,
            DramConfig {
                latency: 10,
                channels: 2,
                queue_size: 8,
            },
        ));
        let got = drive(&mut h, 0, vec![MemReq::read(5, 0x40), MemReq::read(6, 0x80)], 200);
        assert_eq!(got, vec![5, 6]);
    }

    #[test]
    fn l2_filters_repeat_fills() {
        let mut cfg = HierarchyConfig::flat(1, DramConfig::default());
        cfg.l2 = Some(l2_default());
        let mut h = MemHierarchy::new(cfg);
        // Same line twice: second time the L2 hits, DRAM sees one read.
        let got = drive(&mut h, 0, vec![MemReq::read(1, 0x100)], 1000);
        assert_eq!(got, vec![1]);
        let got = drive(&mut h, 0, vec![MemReq::read(2, 0x100)], 1000);
        assert_eq!(got, vec![2]);
        assert_eq!(h.dram_reads(), 1, "L2 must absorb the second fill");
    }

    #[test]
    fn three_level_hierarchy_round_trips() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for core in 0..4 {
            let got = drive(
                &mut h,
                core,
                vec![MemReq::read(100 + core as Tag, 0x40 * core as u32)],
                2000,
            );
            assert_eq!(got, vec![100 + core as Tag], "core {core}");
        }
    }

    #[test]
    fn same_tag_from_two_cores_routes_correctly() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(
            2,
            DramConfig {
                latency: 5,
                channels: 2,
                queue_size: 8,
            },
        ));
        h.push_req(0, MemReq::read(7, 0x40)).unwrap();
        h.push_req(1, MemReq::read(7, 0x40)).unwrap();
        for _ in 0..50 {
            h.tick();
        }
        assert_eq!(h.pop_rsp(0), Some(MemRsp { tag: 7 }));
        assert_eq!(h.pop_rsp(1), Some(MemRsp { tag: 7 }));
    }

    #[test]
    fn writes_reach_dram_without_responses() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(1, DramConfig::default()));
        h.push_req(0, MemReq::write(1, 0x40)).unwrap();
        for _ in 0..200 {
            h.tick();
        }
        assert_eq!(h.dram_writes(), 1);
        assert!(h.pop_rsp(0).is_none());
        assert!(h.is_idle());
    }

    /// Six cores in three clusters, all reading the same line through
    /// L2+L3 concurrently: every core must get its own response with its
    /// own tag even though the wrapped tags collide at every level.
    #[test]
    fn concurrent_same_line_fills_from_three_clusters() {
        let mut cfg = HierarchyConfig::flat(6, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for core in 0..6 {
            h.push_req(core, MemReq::read(200 + core as Tag, 0x1C0)).unwrap();
        }
        let mut got = vec![Vec::new(); 6];
        for _ in 0..2000 {
            h.tick();
            for (core, out) in got.iter_mut().enumerate() {
                while let Some(rsp) = h.pop_rsp(core) {
                    out.push(rsp.tag);
                }
            }
            if h.is_idle() {
                break;
            }
        }
        for (core, out) in got.iter().enumerate() {
            assert_eq!(out, &vec![200 + core as Tag], "core {core}");
        }
        assert!(h.is_idle(), "hierarchy must drain");
        // The L3 saw each cluster's fill but DRAM only one line read.
        assert_eq!(h.dram_reads(), 1, "L3 must coalesce the line fill");
    }

    /// Routing slots are recycled LIFO; cycling far more requests than
    /// the table holds must neither grow it nor misroute a response.
    #[test]
    fn tag_slots_recycle_without_growth() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for round in 0..64u32 {
            for core in 0..4usize {
                // Distinct lines so every read misses through to DRAM-side
                // levels and exercises wrap/unwrap on each table.
                let addr = (round * 4 + core as u32) * 0x40;
                let tag = u64::from(round) * 10 + core as Tag;
                let got = drive(&mut h, core, vec![MemReq::read(tag, addr)], 2000);
                assert_eq!(got, vec![tag], "round {round} core {core}");
            }
        }
        assert_eq!(h.tag_grows(), 0, "tag tables must not grow fault-free");
        assert!(h.is_idle());
    }

    /// A DRAM whose handshake stalls at random must neither lose nor
    /// duplicate a read on any of its three upstream links (core ports,
    /// L2s, L3), and every routing tag taken for a refused push must come
    /// back to its table.
    #[test]
    fn stalled_dram_handshake_reclaims_tags() {
        let stall = FaultConfig {
            seed: 5,
            elastic_stall: 500,
            ..FaultConfig::off()
        };
        for levels in 0..3 {
            let mut cfg = HierarchyConfig::flat(
                4,
                DramConfig {
                    latency: 20,
                    channels: 2,
                    queue_size: 4,
                },
            );
            if levels > 0 {
                cfg.cores_per_cluster = 2;
                cfg.l2 = Some(l2_default());
            }
            if levels > 1 {
                cfg.l3 = Some(l3_default());
            }
            let mut h = MemHierarchy::new(cfg);
            h.dram.set_fault(stall.plan(site::DRAM));
            // Per core: 48 requests to distinct lines, every fourth a write.
            let reqs: Vec<Vec<MemReq>> = (0..4u32)
                .map(|core| {
                    (0..48u32)
                        .map(|i| {
                            let addr = (i * 4 + core) * 0x40;
                            if i % 4 == 3 {
                                MemReq::write(Tag::from(i), addr)
                            } else {
                                MemReq::read(Tag::from(i), addr)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut sent = [0usize; 4];
            let mut got = vec![Vec::new(); 4];
            for _ in 0..20_000 {
                for (core, queue) in reqs.iter().enumerate() {
                    while let Some(&req) = queue.get(sent[core]) {
                        if h.push_req(core, req).is_err() {
                            break;
                        }
                        sent[core] += 1;
                    }
                }
                h.tick();
                for (core, out) in got.iter_mut().enumerate() {
                    while let Some(rsp) = h.pop_rsp(core) {
                        out.push(rsp.tag);
                    }
                }
                if sent.iter().all(|&n| n == 48) && h.is_idle() {
                    break;
                }
            }
            for (core, out) in got.iter_mut().enumerate() {
                out.sort_unstable();
                let reads: Vec<Tag> = reqs[core].iter().filter(|r| !r.write).map(|r| r.tag).collect();
                assert_eq!(*out, reads, "levels {levels} core {core}: each read once");
            }
            assert!(h.is_idle(), "levels {levels}: hierarchy must drain");
            assert_eq!(h.tag_grows(), 0, "levels {levels}: tag tables must not grow");
            assert!(h.dram.fault_draws() > 0, "levels {levels}: the stall plan was consulted");
        }
    }

    /// The allocation audit: a saturating burst through every level must
    /// stay within the construction-time reservations.
    #[test]
    fn reservations_hold_under_burst() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        let mut outstanding = [0usize; 4];
        let mut next_tag = 0 as Tag;
        for cycle in 0..4000u32 {
            for (core, out) in outstanding.iter_mut().enumerate() {
                // Keep up to 8 reads in flight per core over mixed lines.
                while *out < 8 {
                    let addr = (u32::from(next_tag as u16) % 512) * 0x40;
                    if h.push_req(core, MemReq::read(next_tag, addr)).is_err() {
                        break;
                    }
                    next_tag += 1;
                    *out += 1;
                }
            }
            h.tick();
            for (core, out) in outstanding.iter_mut().enumerate() {
                while h.pop_rsp(core).is_some() {
                    *out -= 1;
                }
            }
            if cycle > 3000 && outstanding.iter().all(|&o| o == 0) {
                break;
            }
        }
        assert_eq!(h.tag_grows(), 0, "tag tables must not grow fault-free");
        for (ci, l2) in h.l2s.iter().enumerate() {
            assert!(
                l2.rsp_high_water <= l2.rsp_reserved,
                "L2 {ci} response queues exceeded their reservation"
            );
        }
    }
}
