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
//! # Sharding
//!
//! The hierarchy is split along the cluster boundary: each per-cluster L2,
//! together with its slice of core ports, lives in a [`ClusterShard`] that
//! ticks on its own: a shard touches only its L2 and its cores' ports.
//! Everything below the L2s — the optional L3, the DRAM and the routing
//! tables that span clusters — is advanced by [`MemHierarchy::merge`],
//! which visits shards in ascending cluster order.

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

    /// Free admission slots. With no fault gate on this handshake (the
    /// bound is pure capacity), this many [`SharedLevel::admit`] calls are
    /// guaranteed to succeed back to back.
    fn space(&self) -> usize {
        self.pending_cap - self.pending.len()
    }

    /// Admits an upstream request unconditionally; the caller has checked
    /// [`SharedLevel::space`].
    fn admit(&mut self, port: usize, req: MemReq) {
        debug_assert!(self.pending.len() < self.pending_cap);
        // Writes never produce responses, so don't record a routing entry
        // for them (it would never be reclaimed).
        let tag = if req.write {
            0
        } else {
            self.tags.wrap(port, req.tag)
        };
        self.pending.push(MemReq {
            tag,
            addr: req.addr,
            write: req.write,
        });
    }

    /// Admits an upstream request if the pending buffer has room.
    fn push_req(&mut self, port: usize, req: MemReq) -> Result<(), MemReq> {
        if self.pending.len() >= self.pending_cap {
            return Err(req);
        }
        self.admit(port, req);
        Ok(())
    }

    fn begin_cycle(&mut self) {
        self.cache.begin_cycle();
    }

    fn tick(&mut self) {
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

/// One independently tickable slice of the hierarchy: a per-cluster shared
/// L2 plus the core ports of that cluster.
///
/// Shards have no references into each other or into the remainder below
/// them (L3/DRAM). Traffic crossing the cluster boundary in either
/// direction only moves during [`MemHierarchy::merge`].
#[derive(Debug)]
pub struct ClusterShard {
    level: SharedLevel,
    core_lo: usize,
    core_hi: usize,
}

impl ClusterShard {
    /// Global ids of the cores whose L1 miss traffic this shard carries.
    /// Core `core_lo + p` talks on upstream port `p`.
    pub fn core_range(&self) -> std::ops::Range<usize> {
        self.core_lo..self.core_hi
    }

    /// Free admission slots; this many [`ClusterShard::admit`] calls are
    /// guaranteed to succeed (the admission handshake has no fault gate).
    pub fn req_space(&self) -> usize {
        self.level.space()
    }

    /// Admits one L1 miss request on upstream port `port` (0-based within
    /// the cluster). The caller has checked [`ClusterShard::req_space`].
    pub fn admit(&mut self, port: usize, req: MemReq) {
        self.level.admit(port, req);
    }

    /// Fallible form of [`ClusterShard::admit`] for per-request callers.
    pub fn push_req(&mut self, port: usize, req: MemReq) -> Result<(), MemReq> {
        self.level.push_req(port, req)
    }

    /// Drains one response for upstream port `port`.
    pub fn pop_rsp(&mut self, port: usize) -> Option<MemRsp> {
        self.level.rsp_out[port].pop_front()
    }

    /// `true` when a tick would change no state and draw no fault
    /// decision — quiescent shards cost their caller one branch.
    pub fn quiet(&self) -> bool {
        self.level.ff_idle()
    }

    /// Advances the shard one cycle: clears the bank claims and runs the
    /// L2. Miss traffic accumulates in the L2's memory queue until the
    /// next [`MemHierarchy::merge`].
    pub fn begin_and_tick(&mut self) {
        self.level.begin_cycle();
        self.level.tick();
    }

    /// Times the shard's tag table grew past its reservation (allocation
    /// audit; zero on fault-free runs).
    pub fn tag_grows(&self) -> u64 {
        self.level.tags.grows
    }

    /// Most responses ever queued on one upstream port (allocation audit;
    /// must stay at or below [`ClusterShard::rsp_reserved`]).
    pub fn rsp_high_water(&self) -> usize {
        self.level.rsp_high_water
    }

    /// Per-port response-queue reservation.
    pub fn rsp_reserved(&self) -> usize {
        self.level.rsp_reserved
    }
}

/// Moves a cache's miss traffic into the DRAM input queue, re-tagged for
/// routing back to `port`. Fault-free, both queues hand out guaranteed
/// capacity, so the transfer is one batched drain; with a DRAM fault plan
/// attached every push must draw its own handshake decision, so the
/// per-request fallback preserves the exact decision stream.
fn drain_to_dram(dram: &mut Dram, tags: &mut TagTable, cache: &mut Cache, port: usize) {
    if dram.has_fault() {
        while let Some(req) = cache.peek_mem_req().copied() {
            if !dram.can_accept() {
                break;
            }
            let tag = if req.write { 0 } else { tags.wrap(port, req.tag) };
            match dram.push_req(MemReq {
                tag,
                addr: req.addr,
                write: req.write,
            }) {
                Ok(()) => {
                    cache.pop_mem_req();
                }
                Err(_) => {
                    // Injected handshake stall: reclaim the tag.
                    if !req.write {
                        tags.unwrap(tag);
                    }
                    break;
                }
            }
        }
        return;
    }
    let n = cache.mem_req_count().min(dram.space());
    for req in cache.drain_mem_reqs(n) {
        let tag = if req.write { 0 } else { tags.wrap(port, req.tag) };
        let pushed = dram.push_req(MemReq {
            tag,
            addr: req.addr,
            write: req.write,
        });
        debug_assert!(pushed.is_ok(), "space() guaranteed this push");
        let _ = pushed;
    }
}

/// The memory system above the per-core L1 caches.
#[derive(Debug)]
pub struct MemHierarchy {
    config: HierarchyConfig,
    /// Per-cluster shards (empty when no L2 is configured).
    shards: Vec<ClusterShard>,
    l3: Option<SharedLevel>,
    dram: Dram,
    dram_tags: TagTable,
    /// Per-core response queues (flat topology only; with L2s configured,
    /// responses ride the shards' port queues instead).
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
        let shards = match &config.l2 {
            Some(cfg) => (0..clusters)
                .map(|ci| {
                    let core_lo = ci * config.cores_per_cluster;
                    let core_hi = (core_lo + config.cores_per_cluster).min(config.num_cores);
                    ClusterShard {
                        level: SharedLevel::new(*cfg, config.cores_per_cluster),
                        core_lo,
                        core_hi,
                    }
                })
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
            shards,
            l3,
            config,
        }
    }

    /// Number of cluster shards (0 on a flat hierarchy).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard, for the commit phase to drive.
    pub fn shard_mut(&mut self, i: usize) -> &mut ClusterShard {
        &mut self.shards[i]
    }

    /// Guaranteed flat-path admissions this cycle: free DRAM input slots,
    /// or 0 when the topology has L2s (use the shards) or a DRAM fault
    /// plan gates every handshake individually (use
    /// [`MemHierarchy::push_req`] per request).
    pub fn flat_space(&self) -> usize {
        if !self.shards.is_empty() || self.dram.has_fault() {
            0
        } else {
            self.dram.space()
        }
    }

    /// Admits one request straight to DRAM; the caller has checked
    /// [`MemHierarchy::flat_space`].
    pub fn admit_flat(&mut self, core: usize, req: MemReq) {
        let tag = if req.write {
            0
        } else {
            self.dram_tags.wrap(core, req.tag)
        };
        let pushed = self.dram.push_req(MemReq {
            tag,
            addr: req.addr,
            write: req.write,
        });
        debug_assert!(pushed.is_ok(), "flat_space() guaranteed this push");
        let _ = pushed;
    }

    /// Pushes one L1 miss-traffic request from `core`. Fails on
    /// backpressure; the core retries next cycle.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn push_req(&mut self, core: usize, req: MemReq) -> Result<(), MemReq> {
        assert!(core < self.config.num_cores, "core id out of range");
        if self.shards.is_empty() {
            // Straight to DRAM (re-tagged for routing).
            if !self.dram.can_accept() {
                return Err(req);
            }
            let tag = if req.write {
                0
            } else {
                self.dram_tags.wrap(core, req.tag)
            };
            match self.dram.push_req(MemReq {
                tag,
                addr: req.addr,
                write: req.write,
            }) {
                Ok(()) => Ok(()),
                Err(r) => {
                    // The push can fail even after `can_accept` when a fault
                    // plan stalls the handshake: reclaim the routing tag or
                    // it leaks and the hierarchy never reads as idle again.
                    if !req.write {
                        self.dram_tags.unwrap(tag);
                    }
                    Err(MemReq {
                        tag: req.tag,
                        addr: r.addr,
                        write: r.write,
                    })
                }
            }
        } else {
            let cluster = core / self.config.cores_per_cluster;
            let port = core % self.config.cores_per_cluster;
            self.shards[cluster].push_req(port, req)
        }
    }

    /// Pops one fill response destined for `core`.
    pub fn pop_rsp(&mut self, core: usize) -> Option<MemRsp> {
        if self.shards.is_empty() {
            self.core_rsp[core].pop_front()
        } else {
            let cluster = core / self.config.cores_per_cluster;
            let port = core % self.config.cores_per_cluster;
            self.shards[cluster].pop_rsp(port)
        }
    }

    /// Advances the remainder below the shards by one cycle: drains each
    /// shard's L2 miss traffic downstream (ascending cluster order), runs
    /// the L3 and the DRAM, and routes completions back up into the
    /// shards' caches. Callers tick the shards first, then merge;
    /// [`MemHierarchy::tick`] packages that sequence.
    pub fn merge(&mut self) {
        let num_cores = self.config.num_cores;
        let nshards = self.shards.len();

        // L2 miss traffic → L3 (or DRAM).
        for ci in 0..nshards {
            let cache = &mut self.shards[ci].level.cache;
            match &mut self.l3 {
                Some(l3) => {
                    // Both sides of this handshake are pure capacity checks,
                    // so the transfer batches exactly.
                    let n = cache.mem_req_count().min(l3.space());
                    for req in cache.drain_mem_reqs(n) {
                        l3.admit(ci, req);
                    }
                }
                None => drain_to_dram(&mut self.dram, &mut self.dram_tags, cache, num_cores + ci),
            }
        }

        // A quiescent L3's tick would be a pure no-op (its bank claims are
        // already clear — see `Cache::ff_idle`), so skip it; admissions
        // above make it non-idle, so nothing staged is ever stranded.
        if let Some(l3) = &mut self.l3 {
            if !l3.ff_idle() {
                l3.begin_cycle();
                l3.tick();
                drain_to_dram(
                    &mut self.dram,
                    &mut self.dram_tags,
                    &mut l3.cache,
                    num_cores + nshards,
                );
            }
        }

        self.dram.tick();

        // DRAM responses → owning level.
        while let Some(rsp) = self.dram.pop_rsp() {
            let Some((port, orig)) = self.dram_tags.unwrap(rsp.tag) else {
                continue;
            };
            if port < num_cores {
                self.core_rsp[port].push_back(MemRsp { tag: orig });
            } else {
                let idx = port - num_cores;
                if idx < nshards {
                    self.shards[idx].level.cache.push_mem_rsp(MemRsp { tag: orig });
                } else if let Some(l3) = &mut self.l3 {
                    l3.cache.push_mem_rsp(MemRsp { tag: orig });
                }
            }
        }

        // L3 responses → L2 fills.
        if let Some(l3) = &mut self.l3 {
            for ci in 0..nshards {
                if l3.rsp_out[ci].is_empty() {
                    continue;
                }
                let cache = &mut self.shards[ci].level.cache;
                while let Some(rsp) = l3.rsp_out[ci].pop_front() {
                    cache.push_mem_rsp(rsp);
                }
            }
        }
    }

    /// Advances every shared level and the DRAM by one cycle, moving
    /// traffic between levels — "tick every non-quiescent shard, then
    /// merge" in one call.
    pub fn tick(&mut self) {
        for shard in &mut self.shards {
            if !shard.quiet() {
                shard.begin_and_tick();
            }
        }
        self.merge();
    }

    /// Flushes every shared cache level (part of the `fence` path).
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            shard.level.cache.flush();
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.flush();
        }
    }

    /// `true` when nothing is in flight anywhere above the L1s.
    pub fn is_idle(&self) -> bool {
        self.dram.is_idle()
            && self.dram_tags.is_empty()
            && self
                .shards
                .iter()
                .all(|s| s.level.is_idle())
            && self.l3.as_ref().is_none_or(SharedLevel::is_idle)
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
        let levels_idle = self.shards.iter().all(|s| s.quiet())
            && self.l3.as_ref().is_none_or(SharedLevel::ff_idle)
            && self.core_rsp.iter().all(VecDeque::is_empty);
        if !levels_idle {
            return now;
        }
        self.dram.next_event_cycle()
    }

    /// The bulk equivalent of `delta` certified-idle ticks (see
    /// [`MemHierarchy::next_event_cycle`]): every queue above the L1s
    /// is empty, so the only per-tick effects are the shared levels'
    /// `begin_cycle` (a no-op on an idle selector) and the DRAM clock
    /// advancing.
    pub fn bulk_advance(&mut self, delta: u64) {
        for shard in &mut self.shards {
            shard.level.begin_cycle();
        }
        if let Some(l3) = &mut self.l3 {
            l3.begin_cycle();
        }
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
        self.shards
            .iter()
            .map(|s| s.level.cache.stats)
            .collect()
    }

    /// Times any routing tag table grew past its reservation — the
    /// allocation audit's headline number; zero on fault-free runs.
    pub fn tag_grows(&self) -> u64 {
        self.dram_tags.grows
            + self
                .shards
                .iter()
                .map(|s| s.tag_grows())
                .sum::<u64>()
            + self.l3.as_ref().map_or(0, |l| l.tags.grows)
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
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.level.cache.set_fault(faults.plan(site::l2(i)));
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.set_fault(faults.plan(site::L3));
        }
    }

    /// Detaches every fault plan above the L1s (recovery masking: a retry
    /// after rollback re-runs the remaining window fault-free).
    pub fn clear_faults(&mut self) {
        self.dram.clear_fault();
        for shard in &mut self.shards {
            shard.level.cache.clear_fault();
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.clear_fault();
        }
    }

    /// Decisions drawn across every fault plan attached above the L1s
    /// (DRAM + shared cache levels) — input to the per-site determinism
    /// audit: equal totals at equal simulation points mean the shared
    /// hierarchy consumed its decision streams identically.
    pub fn fault_draws(&self) -> u64 {
        self.dram.fault_draws()
            + self
                .shards
                .iter()
                .map(|s| s.level.cache.fault_draws())
                .sum::<u64>()
            + self.l3.as_ref().map_or(0, |l| l.cache.fault_draws())
    }

    /// Appends everything in flight above the L1s: every shard's shared
    /// level, the L3, the DRAM, the routing tag tables and the per-core
    /// response queues.
    pub fn save_state(&self, w: &mut Writer) {
        for shard in &self.shards {
            shard.level.save_state(w);
        }
        if let Some(l3) = &self.l3 {
            l3.save_state(w);
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
        for shard in &mut self.shards {
            shard.level.restore_state(r)?;
        }
        if let Some(l3) = &mut self.l3 {
            l3.restore_state(r)?;
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
            l2: self
                .shards
                .iter()
                .map(|s| s.level.cache.occupancy())
                .collect(),
            l3: self.l3.as_ref().map(|l| l.cache.occupancy()),
            core_rsp_pending: self.core_rsp.iter().map(VecDeque::len).sum::<usize>()
                + self
                    .shards
                    .iter()
                    .map(|s| s.level.rsp_out.iter().map(VecDeque::len).sum::<usize>())
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

    /// The allocation audit: a saturating burst through every level must
    /// stay within the construction-time reservations.
    #[test]
    fn reservations_hold_under_burst() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        let mut outstanding = vec![0usize; 4];
        let mut next_tag = 0 as Tag;
        for cycle in 0..4000u32 {
            for core in 0..4usize {
                // Keep up to 8 reads in flight per core over mixed lines.
                while outstanding[core] < 8 {
                    let addr = (u32::from(next_tag as u16) % 512) * 0x40;
                    if h.push_req(core, MemReq::read(next_tag, addr)).is_err() {
                        break;
                    }
                    next_tag += 1;
                    outstanding[core] += 1;
                }
            }
            h.tick();
            for core in 0..4usize {
                while h.pop_rsp(core).is_some() {
                    outstanding[core] -= 1;
                }
            }
            if cycle > 3000 && outstanding.iter().all(|&o| o == 0) {
                break;
            }
        }
        assert_eq!(h.tag_grows(), 0, "tag tables must not grow fault-free");
        for si in 0..h.num_shards() {
            let shard = h.shard_mut(si);
            assert!(
                shard.rsp_high_water() <= shard.rsp_reserved(),
                "shard {si} response queues exceeded their reservation"
            );
        }
    }
}
