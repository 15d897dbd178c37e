//! One SIMT core: the five-stage in-order pipeline of Figure 4 with its
//! SIMT extensions, L1 caches, shared memory and texture unit.
//!
//! Pipeline model per cycle (back to front, so transactions advance one
//! stage per cycle):
//!
//! 1. **writeback** — one instruction per cycle claims the register write
//!    port (priority: LSU loads > texture responses > arithmetic units) and
//!    clears its scoreboard entry;
//! 2. **issue/execute** — one decoded instruction issues if its scoreboard
//!    and functional unit allow; it executes *functionally* right here
//!    (registers read, memory touched, PC updated) while its timing is
//!    dispatched to the owning functional unit;
//! 3. **fetch** — the wavefront scheduler picks a wavefront and sends its
//!    PC to the I-cache; the response decodes into the per-wavefront
//!    instruction buffer.
//!
//! Each wavefront owns a small instruction buffer (the RTL's per-warp
//! ibuffer): fetch runs ahead of issue as long as the buffer has space and
//! no unresolved PC redirect (branch/jump/`join`) is pending, and I-cache
//! hits resolve on a two-cycle fast path (SIMT fetch needs only one word
//! per cycle). Multi-wavefront interleaving on top of this modest
//! per-wavefront pipelining is what fills the machine — the behaviour the
//! paper's design-space study (Figure 14) explores.

use crate::barrier::{BarrierOutcome, BarrierTable};
use crate::config::CoreConfig;
use crate::decode_cache::DecodeCache;
use crate::error::{CoreHangState, SimError, WarpHangState};
use crate::exec::{self, CsrFile, ExecEnv, ExecPool, FuKind, Trap, Writeback};
use crate::lsu::{tags, Lsu};
use crate::profile::CoreProfile;
use crate::regfile::RegFile;
use crate::scheduler::WavefrontScheduler;
use crate::scoreboard::{RegId, Scoreboard};
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceEvent};
use crate::warp::{StallReason, Wavefront};
use std::collections::HashMap;
use vortex_faults::{site, FaultConfig};
use vortex_isa::{decode, CsrSrc, Instr, Reg};
use vortex_mem::{Cache, MemReq, MemRsp, Ram, RamView, SharedMem, Tag, WriteLog};
use vortex_tex::{TexRequest, TexUnit};

/// Tag bit distinguishing I-cache from D-cache fills above the L1s.
const ICACHE_BIT: Tag = 1 << 61;

/// A pending arithmetic completion waiting for the writeback port.
#[derive(Debug)]
struct Completion {
    ready: u64,
    wid: usize,
    wb: Writeback,
}

/// Deferred state of a *parked* core: a core whose own horizon probe
/// (see [`Core::try_park`]) proved that every tick until `until` is a
/// pure idle bump. While parked, [`Core::tick`] and the GPU-level jump
/// ([`Core::bulk_advance`]) reduce to two counter increments, and the
/// per-tick side effects (stall bucket, profiler attribution,
/// shared-memory clock, texture countdowns) accumulate in `delta`, to be
/// replayed in one batch by [`Core::unpark`]. That is legal because any
/// state change that could alter the memoized classification is an
/// event that would have kept the horizon at "now", or arrives through
/// an external entry point that unparks first.
///
/// Parking is host-side scheduling, invisible to the simulated machine:
/// it is never serialized, and every run loop flushes all parks before
/// returning so snapshots and profiles observe fully-replayed state.
#[derive(Debug, Clone, Copy)]
struct Park {
    /// First cycle whose tick must run live (`u64::MAX`: only an
    /// external event — fill response, barrier release — can wake the
    /// core).
    until: u64,
    /// Idle ticks taken while parked but not yet replayed.
    delta: u64,
    /// Memoized no-pick classification (see [`IssueScan`]) — constant
    /// over the span by the fast-forward contract.
    blocked_scoreboard: bool,
    blocked_fu: bool,
    /// Memoized profiler attribution site `(pc, encoded word)`; `None`
    /// when the stall is `ibuffer_empty` or profiling is off.
    site: Option<(u32, u32)>,
}

/// Outcome of the pure issue-candidate scan. One scan is shared by the
/// issue stage and the park probe, so a parked span classifies every
/// no-pick cycle exactly as the issue stage would (same bucket, same
/// profiler attribution site) by construction.
#[derive(Debug, Clone, Copy)]
struct IssueScan {
    /// Wavefront the issue stage would pick this cycle, if any.
    picked: Option<usize>,
    /// At least one candidate lost the scoreboard hazard check.
    blocked_scoreboard: bool,
    /// At least one candidate found its functional unit busy.
    blocked_fu: bool,
    /// First scoreboard-blocked candidate in round-robin order
    /// (`usize::MAX` when none) — the profiler's attribution site.
    first_scoreboard_wid: usize,
    /// First FU-blocked candidate in round-robin order (`usize::MAX`
    /// when none).
    first_fu_wid: usize,
    /// Earliest `busy_until` among candidates blocked on a *timed*
    /// (div/fdiv/fsqrt) unit; `u64::MAX` when every block is
    /// state-based (LSU/texture acceptance), which only clears via
    /// events accounted elsewhere.
    next_fu_ready: u64,
}

/// A global-barrier arrival the GPU level must process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalBarrierArrival {
    /// Barrier id (MSB already stripped).
    pub id: u32,
    /// Arriving wavefront.
    pub wid: usize,
    /// Expected total arrivals.
    pub count: u32,
}

/// One Vortex SIMT core.
#[derive(Debug)]
pub struct Core {
    /// Core id within the processor.
    pub id: usize,
    config: CoreConfig,
    num_cores: usize,

    wavefronts: Vec<Wavefront>,
    scheduler: WavefrontScheduler,
    regs: RegFile,
    scoreboard: Scoreboard,
    csrf: CsrFile,
    barriers: BarrierTable,

    icache: Cache,
    dcache: Cache,
    smem: SharedMem,
    tex_unit: TexUnit,
    lsu: Lsu,

    /// Per-wavefront outstanding fetch PC.
    fetch_pending: Vec<Option<u32>>,
    /// Per-wavefront decoded instruction buffer (depth
    /// [`Core::IBUFFER_DEPTH`]).
    /// Per-wavefront decoded-instruction buffers. Each entry carries the
    /// instruction, its PC, and its precomputed scoreboard need mask (see
    /// [`Core::hazard_mask`]).
    ibuffer: Vec<std::collections::VecDeque<(Instr, u32, u64)>>,
    /// Per-wavefront flag: a PC-redirecting instruction is decoded but not
    /// yet executed, so the next fetch address is unknown.
    cf_block: Vec<bool>,
    /// Fast-path I-cache hits waiting their fixed latency:
    /// `(ready cycle, wavefront, pc)`.
    fast_fetch: std::collections::VecDeque<(u64, usize, u32)>,
    /// Scratch buffer for the (at most one per cycle) I-cache miss
    /// request, reused so the fetch stage never allocates.
    fetch_req: Vec<MemReq>,
    /// Memoized decoder ([`None`] when `config.decode_cache` is off).
    decode_memo: Option<DecodeCache>,
    /// Recycled writeback/lane-access buffers for the execute stage.
    exec_pool: ExecPool,
    issue_rr: usize,

    completions: Vec<Completion>,
    div_busy_until: u64,
    fdiv_busy_until: u64,
    fsqrt_busy_until: u64,

    /// Wavefronts waiting on `fence`.
    fence_waiters: Vec<usize>,
    /// Pending global-barrier arrivals for the GPU level.
    global_barrier_out: Vec<GlobalBarrierArrival>,
    /// Texture request tag → (wavefront, destination register).
    tex_dest: HashMap<Tag, (usize, RegId)>,
    next_tex_tag: Tag,
    /// Texture-unit memory requests waiting for the D-cache.
    tex_mem_pending: Vec<MemReq>,

    /// Stores buffered by this cycle's compute phase, applied to the
    /// functional RAM by [`Core::commit_stores`] during the commit phase.
    /// Reads from this core (execute-stage loads, instruction fetch) see
    /// the pending entries, so a core's own same-cycle stores stay visible
    /// to it exactly as under the old eager-store model.
    store_log: WriteLog,

    cycle: u64,
    /// Sticky quiescence flag: set once every wavefront has halted and
    /// every queue, pipeline, and cache in the core is empty. From that
    /// point [`Core::tick`] takes a short-circuit path that bumps only
    /// `cycle` and the ibuffer-empty stall counter. That is *not* a full
    /// idle tick: it also stops the scratchpad clock and the texture
    /// unit's `idle_cycles` counter, so a drained core's bytes differ from
    /// a live idle core's. They are the same with fast-forward on or off,
    /// because `drained` latches on the same cycle either way (a core
    /// about to latch never parks) and [`Core::bulk_advance`] bumps
    /// exactly the same two counters. Cleared by [`Core::launch`] and by
    /// a (defensive, should-be-impossible) late memory response. Never set
    /// while fault plans are attached: faulted components draw from their
    /// decision streams even on empty offers, so skipping ticks would
    /// desynchronize them.
    drained: bool,
    /// Active park, when the core is locally fast-forwarding (see
    /// [`Park`]). Host-side scheduling state: never serialized, always
    /// `None` outside a run loop.
    park: Option<Park>,
    /// Issued-instruction count at the last park probe — probing only
    /// makes sense on ticks that issued nothing.
    park_mark: u64,
    /// Remaining ticks before the next park probe after a failed one.
    park_backoff: u32,
    /// `true` once [`Core::apply_faults`] attached non-noop fault plans.
    has_faults: bool,
    /// Performance counters. Holds only the directly-incremented issue-side
    /// counters during simulation; cycle and component (cache/tex/smem)
    /// counters are folded in on demand by [`Core::stats_snapshot`] so the
    /// hot loop does not copy them every cycle.
    stats: CoreStats,
    /// PC-level profile accumulator ([`None`] unless
    /// [`Core::enable_profile`] ran). Boxed so the disabled case costs one
    /// pointer-sized field; observation-only, never consulted by the
    /// pipeline.
    profile: Option<Box<CoreProfile>>,
    /// Instruction trace (disabled by default).
    pub trace: Trace,
}

impl Core {
    /// Instruction-buffer depth per wavefront.
    pub const IBUFFER_DEPTH: usize = 2;

    /// Shortest proven-idle span worth parking for: below this the
    /// park/replay bookkeeping costs about as much as the live idle
    /// ticks it would skip (short fetch bubbles in particular).
    const PARK_MIN_SPAN: u64 = 4;
    /// Ticks to wait before re-probing after a failed park probe, so a
    /// core bouncing between short bubbles doesn't pay the probe every
    /// cycle. A successful issue resets the gate (see `park_mark`).
    const PARK_PROBE_BACKOFF: u32 = 3;

    /// `true` for instructions the front end must not fetch past: PC
    /// redirects (branch/jump/`join`) and instructions that may halt or
    /// stall the wavefront (`ecall`/`ebreak`/`tmc`/`bar`/`fence`) — the
    /// next fetch address or even the wavefront's liveness is unknown
    /// until they execute.
    fn blocks_fetch(instr: &Instr) -> bool {
        matches!(
            instr,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Join
                | Instr::Ecall
                | Instr::Ebreak
                | Instr::Tmc { .. }
                | Instr::Bar { .. }
                | Instr::Fence
        )
    }

    /// Builds core `id` of `num_cores` with the given configuration.
    pub fn new(id: usize, num_cores: usize, config: CoreConfig) -> Self {
        let nw = config.num_wavefronts;
        Self {
            id,
            num_cores,
            wavefronts: (0..nw)
                .map(|wid| Wavefront::new(wid, config.num_threads))
                .collect(),
            scheduler: WavefrontScheduler::with_policy(nw, config.sched_policy),
            regs: RegFile::new(nw, config.num_threads),
            scoreboard: Scoreboard::new(nw),
            csrf: CsrFile::default(),
            barriers: BarrierTable::new(config.num_barriers),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            smem: SharedMem::new(config.smem),
            tex_unit: TexUnit::new(config.tex),
            lsu: Lsu::new(config.lsu_entries),
            fetch_pending: vec![None; nw],
            ibuffer: (0..nw).map(|_| std::collections::VecDeque::new()).collect(),
            cf_block: vec![false; nw],
            fast_fetch: std::collections::VecDeque::new(),
            fetch_req: Vec::with_capacity(1),
            decode_memo: config.decode_cache.then(DecodeCache::new),
            exec_pool: ExecPool::default(),
            issue_rr: 0,
            completions: Vec::new(),
            div_busy_until: 0,
            fdiv_busy_until: 0,
            fsqrt_busy_until: 0,
            fence_waiters: Vec::new(),
            global_barrier_out: Vec::new(),
            tex_dest: HashMap::new(),
            next_tex_tag: 0,
            tex_mem_pending: Vec::new(),
            store_log: WriteLog::new(),
            cycle: 0,
            drained: false,
            park: None,
            park_mark: u64::MAX,
            park_backoff: 0,
            has_faults: false,
            stats: CoreStats::default(),
            profile: None,
            trace: Trace::disabled(),
            config,
        }
    }

    /// Attaches an empty PC-level profile accumulator (see
    /// [`crate::profile`]). Call before the first tick; profiled and
    /// unprofiled cores produce bit-identical simulations, but their
    /// snapshot payloads differ in shape.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::new(CoreProfile::new(self.config.num_threads)));
    }

    /// This core's PC-level profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&CoreProfile> {
        self.profile.as_deref()
    }

    /// Resets and starts wavefront 0 at `pc` with one active thread — the
    /// hardware boot condition; the kernel stub then uses `wspawn`/`tmc`
    /// to light up the rest of the machine.
    pub fn launch(&mut self, pc: u32) {
        for wid in 0..self.config.num_wavefronts {
            self.wavefronts[wid].halt();
            self.scoreboard.clear_wavefront(wid);
            self.ibuffer[wid].clear();
            self.cf_block[wid] = false;
            self.fetch_pending[wid] = None;
        }
        self.fast_fetch.clear();
        self.completions.clear();
        self.fence_waiters.clear();
        self.tex_dest.clear();
        self.tex_mem_pending.clear();
        self.store_log.clear();
        self.drained = false;
        self.park = None;
        self.park_mark = u64::MAX;
        self.park_backoff = 0;
        self.wavefronts[0].spawn(pc, 1);
    }

    /// `true` when every wavefront has halted and all machinery drained.
    pub fn is_done(&self) -> bool {
        self.drained
            || self.is_done_slow()
    }

    fn is_done_slow(&self) -> bool {
        self.wavefronts.iter().all(|w| !w.active)
            && self.lsu.is_idle()
            && self.tex_unit.is_idle()
            && self.icache.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
            && self.completions.is_empty()
            && self.store_log.is_empty()
    }

    /// The per-core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Registers an instruction reads or writes, written into `out`
    /// (sources first, destination last) for the scoreboard hazard check;
    /// returns the filled length. Stack-allocated by the caller: the issue
    /// stage runs this for every candidate wavefront every cycle, so this
    /// path must not heap-allocate. Four slots suffice — the widest cases
    /// (`fma`, `tex`) use three sources plus a destination.
    fn hazard_regs(instr: &Instr, out: &mut [RegId; 4]) -> usize {
        use Instr::*;
        let mut n = 0usize;
        let mut push = |r: RegId| {
            out[n] = r;
            n += 1;
        };
        match *instr {
            Lui { rd, .. } | Auipc { rd, .. } | Jal { rd, .. } => push(rd.into()),
            Jalr { rd, rs1, .. } => {
                push(rs1.into());
                push(rd.into());
            }
            Branch { rs1, rs2, .. } | Store { rs1, rs2, .. } => {
                push(rs1.into());
                push(rs2.into());
            }
            Fsw { rs1, rs2, .. } => {
                push(rs1.into());
                push(rs2.into());
            }
            Load { rd, rs1, .. } | OpImm { rd, rs1, .. } => {
                push(rs1.into());
                push(rd.into());
            }
            Flw { rd, rs1, .. } => {
                push(rs1.into());
                push(rd.into());
            }
            Op { rd, rs1, rs2, .. } => {
                push(rs1.into());
                push(rs2.into());
                push(rd.into());
            }
            Fence | Ecall | Ebreak | Join => {}
            Csr { rd, src, .. } => {
                if let CsrSrc::Reg(r) = src {
                    push(r.into());
                }
                if rd != Reg::X0 {
                    push(rd.into());
                }
            }
            Fma {
                rd, rs1, rs2, rs3, ..
            } => {
                push(rs1.into());
                push(rs2.into());
                push(rs3.into());
                push(rd.into());
            }
            FpOp { rd, rs1, rs2, .. } => {
                push(rs1.into());
                push(rs2.into());
                push(rd.into());
            }
            FpCmp { rd, rs1, rs2, .. } => {
                push(rs1.into());
                push(rs2.into());
                push(rd.into());
            }
            FpToInt { rd, rs1, .. } | FmvToInt { rd, rs1 } | FClass { rd, rs1 } => {
                push(rs1.into());
                push(rd.into());
            }
            IntToFp { rd, rs1, .. } | FmvFromInt { rd, rs1 } => {
                push(rs1.into());
                push(rd.into());
            }
            Tmc { rs1 } | Split { rs1 } => push(rs1.into()),
            Wspawn { rs1, rs2 } | Bar { rs1, rs2 } => {
                push(rs1.into());
                push(rs2.into());
            }
            Tex { rd, u, v, lod, .. } => {
                push(u.into());
                push(v.into());
                push(lod.into());
                push(rd.into());
            }
        }
        n
    }

    /// The hazard registers of `instr` folded into a 64-bit mask matching
    /// the scoreboard's pending-bit layout. Computed once per *decoded*
    /// instruction (at ibuffer insert) so the issue stage's per-cycle
    /// hazard check is a single AND instead of re-deriving the register
    /// list of a blocked instruction every cycle it waits.
    fn hazard_mask(instr: &Instr) -> u64 {
        let mut need = [RegId(0); 4];
        let n = Self::hazard_regs(instr, &mut need);
        let mut mask = 0u64;
        for r in &need[..n] {
            mask |= 1 << r.0;
        }
        mask
    }

    /// Applies a writeback and returns its values buffer to the exec pool
    /// (the per-instruction payload vectors are recycled, not dropped).
    fn apply_writeback(&mut self, wid: usize, wb: Writeback) {
        for (lane, value) in wb.values.iter().enumerate() {
            if let Some(v) = value {
                if wb.reg.0 < 32 {
                    self.regs
                        .write_x(wid, lane, Reg::from_index(u32::from(wb.reg.0)), *v);
                } else {
                    self.regs.write_f(
                        wid,
                        lane,
                        vortex_isa::FReg::from_index(u32::from(wb.reg.0 - 32)),
                        *v,
                    );
                }
            }
        }
        self.scoreboard.clear_pending(wid, wb.reg);
        self.exec_pool.recycle_values(wb.values);
    }

    /// Writeback stage: one register write per cycle.
    fn writeback_stage(&mut self) {
        // Priority 1: completed loads.
        if let Some((wid, wb)) = self.lsu.pop_ready() {
            self.apply_writeback(wid, wb);
            return;
        }
        // Priority 2: texture responses.
        if let Some(rsp) = self.tex_unit.pop_rsp() {
            if let Some((wid, reg)) = self.tex_dest.remove(&rsp.tag) {
                let wb = Writeback {
                    reg,
                    values: rsp.colors,
                };
                self.apply_writeback(wid, wb);
            }
            return;
        }
        // Priority 3: earliest ready arithmetic completion.
        if let Some(idx) = self
            .completions
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ready <= self.cycle)
            .min_by_key(|(_, c)| c.ready)
            .map(|(i, _)| i)
        {
            let c = self.completions.remove(idx);
            self.apply_writeback(c.wid, c.wb);
        }
    }

    /// The issue stage's candidate scan, as a pure function of core state:
    /// which wavefront would issue this cycle, or — when none can — how the
    /// stalled cycle would be classified. Shared verbatim by
    /// [`Core::issue_stage`] (which acts on it) and the park probe (which
    /// requires `picked == None` to park, and memoizes the classification
    /// for every parked cycle), so both agree bit for bit.
    fn issue_scan(&self) -> IssueScan {
        let nw = self.config.num_wavefronts;
        let mut scan = IssueScan {
            picked: None,
            blocked_scoreboard: false,
            blocked_fu: false,
            first_scoreboard_wid: usize::MAX,
            first_fu_wid: usize::MAX,
            next_fu_ready: u64::MAX,
        };
        for i in 0..nw {
            let wid = (self.issue_rr + i) % nw;
            let Some(&(ref instr, _pc, need)) = self.ibuffer[wid].front() else {
                continue;
            };
            // Hazard check: one AND against the precomputed need mask.
            if self.scoreboard.pending_mask(wid) & need != 0 {
                if !scan.blocked_scoreboard {
                    scan.first_scoreboard_wid = wid;
                }
                scan.blocked_scoreboard = true;
                continue;
            }
            // `timer` is the busy-until deadline when the block is a timed
            // unit: the earliest cycle the scan outcome can change without
            // any other event.
            let mut timer = u64::MAX;
            let fu_free = match instr {
                Instr::Load { .. } | Instr::Flw { .. } => self.lsu.can_accept_load(),
                Instr::Store { .. } | Instr::Fsw { .. } => self.lsu.can_accept_store(),
                Instr::Op { op, .. } if op.is_muldiv() => {
                    if matches!(
                        op,
                        vortex_isa::OpKind::Div
                            | vortex_isa::OpKind::Divu
                            | vortex_isa::OpKind::Rem
                            | vortex_isa::OpKind::Remu
                    ) {
                        timer = self.div_busy_until;
                        self.div_busy_until <= self.cycle
                    } else {
                        true
                    }
                }
                Instr::FpOp { op, .. } => match op {
                    vortex_isa::FpOpKind::Div => {
                        timer = self.fdiv_busy_until;
                        self.fdiv_busy_until <= self.cycle
                    }
                    vortex_isa::FpOpKind::Sqrt => {
                        timer = self.fsqrt_busy_until;
                        self.fsqrt_busy_until <= self.cycle
                    }
                    _ => true,
                },
                Instr::Tex { .. } => self.tex_unit.can_accept(),
                _ => true,
            };
            if !fu_free {
                if !scan.blocked_fu {
                    scan.first_fu_wid = wid;
                }
                scan.blocked_fu = true;
                scan.next_fu_ready = scan.next_fu_ready.min(timer);
                continue;
            }
            scan.picked = Some(wid);
            break;
        }
        scan
    }

    /// Issue + execute stage.
    ///
    /// # Errors
    /// Propagates execution traps (divergence misuse, divergent branches)
    /// as [`SimError`]s carrying the trap site.
    fn issue_stage(&mut self, ram: &Ram) -> Result<(), SimError> {
        let nw = self.config.num_wavefronts;
        let IssueScan {
            picked,
            blocked_scoreboard,
            blocked_fu,
            first_scoreboard_wid,
            first_fu_wid,
            ..
        } = self.issue_scan();

        let Some(wid) = picked else {
            if blocked_scoreboard {
                self.stats.stalls.scoreboard += 1;
            } else if blocked_fu {
                self.stats.stalls.fu_busy += 1;
            } else {
                self.stats.stalls.ibuffer_empty += 1;
            }
            if let Some(p) = self.profile.as_deref_mut() {
                // Mirror the bucket priority above: the cycle is charged
                // to the first scoreboard-blocked candidate, else the
                // first FU-blocked one. `ibuffer_empty` has no waiting
                // instruction and stays whole-core only.
                let stall_wid = if blocked_scoreboard {
                    first_scoreboard_wid
                } else if blocked_fu {
                    first_fu_wid
                } else {
                    usize::MAX
                };
                if stall_wid != usize::MAX {
                    if let Some(&(ref instr, pc, _need)) = self.ibuffer[stall_wid].front() {
                        p.record_stall(pc, || vortex_isa::encode(instr), blocked_scoreboard);
                    }
                }
            }
            return Ok(());
        };
        self.issue_rr = (wid + 1) % nw;
        let (instr, instr_pc, _need) = self.ibuffer[wid].pop_front().expect("picked non-empty");

        // Execute functionally.
        let env = ExecEnv {
            core_id: self.id,
            num_cores: self.num_cores,
            num_wavefronts: self.config.num_wavefronts,
            num_threads: self.config.num_threads,
            cycle: self.cycle,
            instret: self.stats.instrs,
        };
        let wf = &mut self.wavefronts[wid];
        let tmask_at_issue = wf.tmask;
        if Self::blocks_fetch(&instr) {
            // The front end stalled at this instruction; resolve the PC
            // now (execution overwrites it on taken redirects).
            wf.pc = instr_pc.wrapping_add(4);
            self.cf_block[wid] = false;
        }
        // Execute against the RAM snapshot with stores deferred into this
        // core's write log (read-your-write preserved by the view).
        let mut mem = RamView::new(ram, &mut self.store_log);
        let result = exec::execute_with(
            wf,
            &self.regs,
            &mut mem,
            &mut self.csrf,
            &env,
            &instr,
            instr_pc,
            &mut self.exec_pool,
        )
            .map_err(|trap| {
                let (core, pc) = (self.id, instr_pc);
                match trap {
                    Trap::DivergenceUnderflow => SimError::DivergenceUnderflow { core, wid, pc },
                    Trap::DivergenceOverflow => SimError::DivergenceOverflow { core, wid, pc },
                    Trap::DivergentBranch => SimError::DivergentBranch { core, wid, pc },
                }
            })?;
        if result.halted {
            // Discard any prefetched work of the halted wavefront.
            self.ibuffer[wid].clear();
            self.cf_block[wid] = false;
            self.fetch_pending[wid] = None;
        }

        self.stats.instrs += 1;
        self.stats.thread_instrs += u64::from(tmask_at_issue.count_ones());
        if result.diverged {
            self.stats.divergences += 1;
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.record_issue(
                instr_pc,
                || vortex_isa::encode(&instr),
                tmask_at_issue.count_ones(),
                result.diverged,
            );
        }
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                cycle: self.cycle,
                core: self.id,
                wid,
                pc: instr_pc,
                tmask: tmask_at_issue,
                text: instr.to_string(),
            });
        }

        // Dispatch timing.
        let lat = self.config.latencies;
        match result.fu {
            FuKind::Lsu if result.fence => {
                // Fence: flush the D-cache, stall until drained.
                self.dcache.flush();
                self.wavefronts[wid].stall = StallReason::Fence;
                self.fence_waiters.push(wid);
            }
            FuKind::Lsu => {
                let accesses = result.mem.expect("LSU instruction carries accesses");
                let is_load = result.wb.is_some();
                match result.wb {
                    Some(wb) => {
                        self.stats.loads += 1;
                        self.scoreboard.set_pending(wid, wb.reg);
                        self.lsu.issue_load(wid, &accesses, wb);
                    }
                    None => {
                        self.stats.stores += 1;
                        self.lsu.issue_store(&accesses);
                    }
                }
                if let Some(p) = self.profile.as_deref_mut() {
                    // Issue-time attribution: a non-mutating tag probe per
                    // lane (the bank-stage hit/miss no longer knows the
                    // PC). See `crate::profile` for the exact semantics.
                    let dcache = &self.dcache;
                    p.record_mem(instr_pc, is_load, accesses.iter().flatten(), |addr| {
                        dcache.probe(addr)
                    });
                }
                self.exec_pool.recycle_accesses(accesses);
            }
            FuKind::Tex => {
                self.stats.tex_ops += 1;
                let (stage, lanes) = result.tex.expect("tex instruction carries coords");
                let wb = result.wb.expect("tex writes a destination");
                let tag = self.next_tex_tag;
                self.next_tex_tag = self.next_tex_tag.wrapping_add(1);
                self.scoreboard.set_pending(wid, wb.reg);
                self.tex_dest.insert(tag, (wid, wb.reg));
                let states = self.csrf.tex_states();
                self.tex_unit
                    .issue(TexRequest { tag, stage, lanes }, &states, ram)
                    .expect("tex unit acceptance checked at issue");
                self.exec_pool.recycle_values(wb.values);
            }
            fu => {
                if let Some((id, count)) = result.barrier {
                    self.stats.barriers += 1;
                    self.arrive_barrier(wid, id, count);
                }
                if let Some((count, pc)) = result.wspawn {
                    self.do_wspawn(wid, count, pc);
                }
                if let Some(wb) = result.wb {
                    let latency = match fu {
                        FuKind::Alu | FuKind::Sfu => lat.alu,
                        FuKind::Mul => lat.mul,
                        FuKind::Div => {
                            self.div_busy_until = self.cycle + u64::from(lat.div);
                            lat.div
                        }
                        FuKind::Fpu => lat.fpu,
                        FuKind::FDiv => {
                            self.fdiv_busy_until = self.cycle + u64::from(lat.fdiv);
                            lat.fdiv
                        }
                        FuKind::FSqrt => {
                            self.fsqrt_busy_until = self.cycle + u64::from(lat.fsqrt);
                            lat.fsqrt
                        }
                        FuKind::Lsu | FuKind::Tex => unreachable!("handled above"),
                    };
                    self.scoreboard.set_pending(wid, wb.reg);
                    self.completions.push(Completion {
                        ready: self.cycle + u64::from(latency),
                        wid,
                        wb,
                    });
                } else {
                    // No writeback: blocking units still go busy.
                    match fu {
                        FuKind::Div => self.div_busy_until = self.cycle + u64::from(lat.div),
                        FuKind::FDiv => {
                            self.fdiv_busy_until = self.cycle + u64::from(lat.fdiv);
                        }
                        FuKind::FSqrt => {
                            self.fsqrt_busy_until = self.cycle + u64::from(lat.fsqrt);
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    fn arrive_barrier(&mut self, wid: usize, id: u32, count: u32) {
        use vortex_isa::vx::BAR_GLOBAL_BIT;
        self.wavefronts[wid].stall = StallReason::Barrier;
        if id & BAR_GLOBAL_BIT != 0 {
            self.global_barrier_out.push(GlobalBarrierArrival {
                id: id & !BAR_GLOBAL_BIT,
                wid,
                count,
            });
        } else {
            let slot = (id as usize) % self.barriers.len();
            match self.barriers.arrive(slot, wid, count) {
                BarrierOutcome::Wait => {}
                BarrierOutcome::Release(wids) => {
                    for w in wids {
                        self.release_wavefront(w);
                    }
                }
            }
        }
    }

    fn do_wspawn(&mut self, caller: usize, count: u32, pc: u32) {
        let n = (count as usize).min(self.config.num_wavefronts);
        for wid in 0..n {
            if wid != caller && !self.wavefronts[wid].active {
                self.wavefronts[wid].spawn(pc, 1);
                self.scoreboard.clear_wavefront(wid);
                self.ibuffer[wid].clear();
                self.cf_block[wid] = false;
                self.fetch_pending[wid] = None;
            }
        }
    }

    /// Unstalls a wavefront released from a (local or global) barrier or
    /// fence.
    pub fn release_wavefront(&mut self, wid: usize) {
        // A release can wake a core parked on a barrier wait.
        self.unpark();
        if self.wavefronts[wid].active {
            self.wavefronts[wid].stall = StallReason::None;
        }
    }

    /// The fetch stage's ready mask as a pure function of core state:
    /// wavefronts the scheduler would be offered this cycle. Shared by
    /// [`Core::fetch_stage`] and the fast-forward horizon probe — a
    /// non-zero mask means fetch would engage the (stateful) scheduler,
    /// so the cycle is not skippable.
    fn fetch_ready_mask(&self) -> u64 {
        let mut ready_mask = 0u64;
        for (wid, wf) in self.wavefronts.iter().enumerate() {
            if wf.schedulable()
                && self.ibuffer[wid].len() < Self::IBUFFER_DEPTH
                && !self.cf_block[wid]
                && self.fetch_pending[wid].is_none()
            {
                ready_mask |= 1 << wid;
            }
        }
        ready_mask
    }

    /// Fetch stage: scheduler pick, fast-path hit probe, or I-cache miss
    /// request.
    fn fetch_stage(&mut self) {
        let ready_mask = self.fetch_ready_mask();
        if ready_mask == 0 {
            return;
        }
        let Some(wid) = self.scheduler.pick(ready_mask) else {
            return;
        };
        let pc = self.wavefronts[wid].pc;
        if self.icache.lookup_for_fetch(pc) {
            // Two-cycle hit path.
            self.fast_fetch.push_back((self.cycle + 2, wid, pc));
            self.fetch_pending[wid] = Some(pc);
            return;
        }
        self.fetch_req.clear();
        self.fetch_req.push(MemReq::read(wid as Tag, pc));
        self.icache.offer(&mut self.fetch_req);
        if self.fetch_req.is_empty() {
            self.fetch_pending[wid] = Some(pc);
        }
        // Rejected (bank busy / FIFO full): retry next cycle.
    }

    /// Decodes a fetched word into the wavefront's instruction buffer and
    /// lets the front end run ahead when the instruction cannot redirect
    /// the PC.
    ///
    /// # Errors
    /// [`SimError::IllegalInstruction`] when the word does not decode —
    /// surfaced to the host instead of crashing the simulator.
    fn decode_into_ibuffer(&mut self, wid: usize, pc: u32, ram: &Ram) -> Result<(), SimError> {
        if !self.wavefronts[wid].active {
            return Ok(()); // halted while the fetch was in flight
        }
        // Fetch through the write log: a store buffered earlier this cycle
        // (self-modifying code) must be visible to this core's own fetch,
        // exactly as it was when stores applied eagerly.
        let word = self.store_log.read_u32(ram, pc);
        // Memoized decode. Keying by the *word just fetched* makes the memo
        // self-invalidating under self-modifying code: a code write changes
        // the lookup key, never the cached mapping.
        let decoded = match self.decode_memo.as_mut() {
            Some(memo) => memo.decode(word),
            None => decode(word),
        };
        match decoded {
            Ok(instr) => {
                if Self::blocks_fetch(&instr) {
                    self.cf_block[wid] = true;
                } else {
                    self.wavefronts[wid].pc = pc.wrapping_add(4);
                }
                let need = Self::hazard_mask(&instr);
                self.ibuffer[wid].push_back((instr, pc, need));
                Ok(())
            }
            Err(_) => Err(SimError::IllegalInstruction {
                core: self.id,
                wid,
                pc,
                word,
            }),
        }
    }

    /// Advances the core one cycle: the *compute phase* of the two-phase
    /// protocol. `ram` is a read-snapshot of the functional memory; stores
    /// executed this cycle land in the core's write log and become globally
    /// visible only when the caller invokes [`Core::commit_stores`] (in
    /// fixed core-id order, which is what makes parallel core ticking
    /// deterministic).
    ///
    /// # Errors
    /// Propagates structured traps ([`SimError`]) from the issue and
    /// decode stages; the caller aborts the simulation and reports them.
    pub fn tick(&mut self, ram: &Ram) -> Result<(), SimError> {
        if self.drained {
            // Only these two counters move. The full tick below would
            // also advance the scratchpad clock and the texture unit's
            // idle count; this path deliberately does not (see
            // `drained`), and the bulk advance matches it.
            self.stats.stalls.ibuffer_empty += 1;
            self.cycle += 1;
            return Ok(());
        }
        if let Some(p) = &mut self.park {
            if self.cycle < p.until {
                // Proven-idle tick: defer its side effects into the park
                // and pay two increments instead of the pipeline walk.
                p.delta += 1;
                self.cycle += 1;
                return Ok(());
            }
            // First live cycle of the horizon: replay the span, then run
            // the tick below normally.
            self.unpark();
        }

        self.writeback_stage();
        self.issue_stage(ram)?;
        self.fetch_stage();

        // LSU → D-cache / shared memory (LSU has priority over texture).
        // Only the *oldest* lane group is presented: the core↔cache
        // interface is wavefront-wide, so a partially accepted group
        // blocks the next memory instruction (the throughput cost virtual
        // multi-porting removes).
        if let Some(group) = self.lsu.dcache_groups.front_mut() {
            let stores_before = group.iter().filter(|r| r.write).count();
            self.dcache.offer(group);
            let stores_after = group.iter().filter(|r| r.write).count();
            let accepted_stores = stores_before - stores_after;
            if group.is_empty() {
                let drained = self.lsu.dcache_groups.pop_front().expect("front exists");
                self.lsu.recycle_group(drained);
            }
            self.lsu.stores_accepted(accepted_stores);
        }
        if let Some(group) = self.lsu.smem_groups.front_mut() {
            self.smem.offer(group);
            if group.is_empty() {
                let drained = self.lsu.smem_groups.pop_front().expect("front exists");
                self.lsu.recycle_group(drained);
            }
        }

        // Texture unit → D-cache (tags marked with the TEX bit).
        while let Some(req) = self.tex_unit.pop_mem_req() {
            self.tex_mem_pending.push(MemReq {
                tag: req.tag | tags::TEX_BIT,
                addr: req.addr,
                write: req.write,
            });
        }
        self.dcache.offer(&mut self.tex_mem_pending);

        self.icache.tick();
        self.dcache.tick();
        self.smem.tick();
        self.tex_unit.tick();

        // Fast-path fetches that reached their latency → decode.
        while let Some(&(ready, wid, pc)) = self.fast_fetch.front() {
            if ready > self.cycle {
                break;
            }
            self.fast_fetch.pop_front();
            if self.fetch_pending[wid] == Some(pc) {
                self.fetch_pending[wid] = None;
                self.decode_into_ibuffer(wid, pc, ram)?;
            }
        }
        // I-cache miss responses → decode into the ibuffer.
        while let Some(MemRsp { tag }) = self.icache.pop_rsp() {
            let wid = tag as usize;
            let Some(pc) = self.fetch_pending[wid].take() else {
                continue;
            };
            self.decode_into_ibuffer(wid, pc, ram)?;
        }

        // D-cache responses → LSU or texture unit.
        while let Some(MemRsp { tag }) = self.dcache.pop_rsp() {
            if tag & tags::TEX_BIT != 0 {
                self.tex_unit.push_mem_rsp(MemRsp {
                    tag: tag & !tags::TEX_BIT,
                });
            } else {
                self.lsu.push_rsp(tag);
            }
        }
        while let Some(MemRsp { tag }) = self.smem.pop_rsp() {
            self.lsu.push_rsp(tag);
        }

        // Fence release: core-local memory machinery fully drained.
        if !self.fence_waiters.is_empty()
            && self.lsu.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
        {
            for wid in std::mem::take(&mut self.fence_waiters) {
                self.release_wavefront(wid);
            }
        }

        self.cycle += 1;

        // Quiescence detection for the fast path above. The first clause
        // fails on the first active wavefront, so live cores pay almost
        // nothing for the probe; a winding-down core runs the full check
        // for the few cycles between its last retirement and idle caches.
        if self.quiescent() {
            self.drained = true;
        } else if self.stats.instrs == self.park_mark {
            // Nothing issued since the last probe: the core may be
            // stalled. Probe for a parkable span, rate-limited after
            // failures.
            if self.park_backoff == 0 {
                self.try_park();
            } else {
                self.park_backoff -= 1;
            }
        } else {
            self.park_mark = self.stats.instrs;
            self.park_backoff = 0;
        }
        Ok(())
    }

    /// Park probe: asks [`Core::horizon_probe`] for the first live cycle
    /// and parks the core when the proven-idle span is long enough to
    /// beat the replay bookkeeping. Parking is the only way a live core
    /// opens the GPU-level fast-forward horizon.
    fn try_park(&mut self) {
        let (horizon, scan) = self.horizon_probe();
        if horizon < self.cycle + Self::PARK_MIN_SPAN {
            self.park_backoff = Self::PARK_PROBE_BACKOFF;
            return;
        }
        let scan = scan.expect("a future horizon implies the scan ran");
        let stall_wid = if scan.blocked_scoreboard {
            scan.first_scoreboard_wid
        } else if scan.blocked_fu {
            scan.first_fu_wid
        } else {
            usize::MAX
        };
        let site = if self.profile.is_some() && stall_wid != usize::MAX {
            self.ibuffer[stall_wid]
                .front()
                .map(|&(ref instr, pc, _need)| (pc, vortex_isa::encode(instr)))
        } else {
            None
        };
        self.park = Some(Park {
            until: horizon,
            delta: 0,
            blocked_scoreboard: scan.blocked_scoreboard,
            blocked_fu: scan.blocked_fu,
            site,
        });
    }

    /// Replays a park's deferred ticks — the exact per-cycle effects of
    /// `delta` live idle ticks, except the cycle counter, which already
    /// advanced. Idempotent; called from every external entry point that
    /// could invalidate the memoized horizon, and by the run loop before
    /// it returns.
    pub(crate) fn unpark(&mut self) {
        let Some(p) = self.park.take() else { return };
        if p.delta == 0 {
            return;
        }
        if p.blocked_scoreboard {
            self.stats.stalls.scoreboard += p.delta;
        } else if p.blocked_fu {
            self.stats.stalls.fu_busy += p.delta;
        } else {
            self.stats.stalls.ibuffer_empty += p.delta;
        }
        if let Some(prof) = self.profile.as_deref_mut() {
            if let Some((pc, word)) = p.site {
                prof.record_stall_n(pc, || word, p.blocked_scoreboard, p.delta);
            }
        }
        self.smem.advance(p.delta);
        self.tex_unit.bulk_advance(p.delta);
    }

    /// Whether the core has fully wound down (the condition under which
    /// [`Core::tick`] latches `drained`). Also consulted by the park
    /// probe: a core about to latch must take one live tick so the
    /// transition lands on the same cycle either way.
    fn quiescent(&self) -> bool {
        !self.has_faults
            && self.wavefronts.iter().all(|w| !w.active)
            && self.completions.is_empty()
            && self.fast_fetch.is_empty()
            && self.fence_waiters.is_empty()
            && self.global_barrier_out.is_empty()
            && self.tex_mem_pending.is_empty()
            && self.fetch_pending.iter().all(Option::is_none)
            && self.ibuffer.iter().all(std::collections::VecDeque::is_empty)
            && self.is_done_slow()
    }

    /// The core's contribution to the GPU fast-forward horizon, in O(1):
    /// `u64::MAX` when drained, the park's `until` when parked, and
    /// `self.cycle` ("now", no skip) otherwise. A live core never opens
    /// the global horizon; it has to park first.
    ///
    /// A park reports the horizon memoized at park time rather than a
    /// recomputation: the texture sampler countdowns are *relative* and
    /// stale while their decrements sit deferred in the park, so a live
    /// recomputation would over-report the horizon.
    pub fn next_event_cycle(&self) -> u64 {
        if self.drained {
            u64::MAX
        } else if let Some(p) = &self.park {
            p.until
        } else {
            self.cycle
        }
    }

    /// The park probe's horizon computation: the first cycle at which
    /// ticking this live core is *not* a pure, replicable idle bump.
    /// Returns `self.cycle` ("now") when the next tick does real work (or
    /// consumes a fault draw), `u64::MAX` when nothing core-local will
    /// ever happen again (stalled purely on external events), and an
    /// exact future cycle when the only pending work is a timer expiry
    /// (arithmetic completion, fast-fetch arrival, FU busy-until,
    /// shared-memory latency, texture sampler). Also returns the
    /// [`IssueScan`] when the probe got far enough to run it (`Some`
    /// exactly when the returned horizon is in the future), whose
    /// classification the park memoizes.
    ///
    /// Every cycle in `[now, horizon)` must charge the same stall bucket
    /// and profiler site as a live tick would — guaranteed because any
    /// state change that could alter the [`Core::issue_scan`] outcome is
    /// itself an event that returns `now` here (or arrives through
    /// [`Core::push_l1_mem_rsp`], which unparks).
    fn horizon_probe(&self) -> (u64, Option<IssueScan>) {
        let now = self.cycle;
        // Any fault plan attached to this core draws at fixed per-tick
        // sites (cache offers, texture tick) — skipping would desync the
        // audited decision streams, so faulted cores never park.
        if self.has_faults
            || !self.store_log.is_empty()
            || !self.global_barrier_out.is_empty()
            || !self.tex_mem_pending.is_empty()
            || self.lsu.has_ready()
            || !self.lsu.dcache_groups.is_empty()
            || !self.lsu.smem_groups.is_empty()
            || !self.icache.ff_idle()
            || !self.dcache.ff_idle()
        {
            return (now, None);
        }
        // Fence release would fire this tick.
        if !self.fence_waiters.is_empty()
            && self.lsu.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
        {
            return (now, None);
        }
        // Quiescence transition pending: take one live tick so `drained`
        // latches on the same cycle with skipping on or off.
        if self.quiescent() {
            return (now, None);
        }
        // Fetch would engage the (stateful) scheduler.
        if self.fetch_ready_mask() != 0 {
            return (now, None);
        }
        let scan = self.issue_scan();
        if scan.picked.is_some() {
            return (now, Some(scan));
        }
        // Timed events only from here down. Each bound is the exact cycle
        // whose live tick first observes the event, matching the stage's
        // own clocking (writeback compares `ready <= cycle` pre-increment;
        // the shared-memory clock advances before its response drain, so
        // an entry with latency `r` pops during the tick at `r - 1`).
        let mut horizon = scan.next_fu_ready;
        if let Some(ready) = self.completions.iter().map(|c| c.ready).min() {
            if ready <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(ready);
        }
        if let Some(&(ready, _, _)) = self.fast_fetch.front() {
            if ready <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(ready);
        }
        if let Some(ready) = self.smem.front_ready() {
            let h = ready.saturating_sub(1);
            if h <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(h);
        }
        let tex = self.tex_unit.next_event_cycle(now);
        if tex <= now {
            return (now, Some(scan));
        }
        (horizon.min(tex), Some(scan))
    }

    /// Advances the core by `delta` cycles in one step, reproducing bit for
    /// bit what `delta` consecutive ticks would have done. Only legal when
    /// [`Core::next_event_cycle`] returned a horizon `>= cycle + delta`,
    /// i.e. the core is drained (the span is `delta` drained ticks) or
    /// parked past the span (which extends the park; every replayed
    /// effect is additive over sub-spans).
    pub fn bulk_advance(&mut self, delta: u64) {
        if self.drained {
            self.stats.stalls.ibuffer_empty += delta;
        } else {
            let p = self.park.as_mut().expect("bulk_advance on a live core");
            debug_assert!(self.cycle + delta <= p.until);
            p.delta += delta;
        }
        self.cycle += delta;
    }

    /// Commit phase: applies this cycle's buffered stores to the functional
    /// RAM in program order and clears the log. The GPU level calls this
    /// for every core in ascending core-id order after all compute phases
    /// finish, so global store-application order is a pure function of the
    /// configuration.
    pub fn commit_stores(&mut self, ram: &mut Ram) {
        if !self.store_log.is_empty() {
            self.store_log.apply(ram);
        }
    }

    /// Decisions drawn across this core's fault plans (I-cache, D-cache,
    /// texture unit); 0 when no faults are attached. Part of the per-site
    /// determinism audit: every per-core plan is ticked inside
    /// [`Core::tick`], so equal draw totals across fast-forward and
    /// resume boundaries prove the streams stayed per-site deterministic.
    pub fn fault_draws(&self) -> u64 {
        self.icache.fault_draws() + self.dcache.fault_draws() + self.tex_unit.fault_draws()
    }

    /// The core's performance counters, with the cycle count and the
    /// component (cache / texture / shared-memory) counters folded in.
    /// This fold used to happen every cycle in [`Core::tick`]; doing it on
    /// demand keeps ~250 bytes of copies out of the hot loop.
    pub fn stats_snapshot(&self) -> CoreStats {
        let mut stats = self.stats;
        // A parked span's stall bucket is deferred in the park; fold it
        // in here (without flushing) so mid-run observers — telemetry
        // samples in particular — see the same counters a live run
        // would.
        if let Some(p) = &self.park {
            if p.blocked_scoreboard {
                stats.stalls.scoreboard += p.delta;
            } else if p.blocked_fu {
                stats.stalls.fu_busy += p.delta;
            } else {
                stats.stalls.ibuffer_empty += p.delta;
            }
        }
        stats.cycles = self.cycle;
        stats.icache = self.icache.stats;
        stats.dcache = self.dcache.stats;
        stats.tex = self.tex_unit.stats;
        stats.smem_accesses = self.smem.accesses;
        stats.smem_conflicts = self.smem.bank_conflicts;
        stats
    }

    /// Decoded instructions parked across all wavefront ibuffers right
    /// now (telemetry-sampler probe).
    pub fn ibuffer_occupancy(&self) -> usize {
        self.ibuffer.iter().map(std::collections::VecDeque::len).sum()
    }

    /// D-cache MSHR entries outstanding right now (telemetry-sampler
    /// probe).
    pub fn dcache_mshr_pending(&self) -> usize {
        self.dcache.mshr_pending()
    }

    /// Hit/miss counters of the decode memo (host-side diagnostics;
    /// `(0, 0)` when the memo is disabled).
    pub fn decode_memo_stats(&self) -> (u64, u64) {
        self.decode_memo.as_ref().map_or((0, 0), DecodeCache::stats)
    }

    /// Attaches deterministic fault plans to this core's components
    /// (I-cache, D-cache, texture unit), each seeded from its own site id
    /// so per-component decision streams are independent.
    pub fn apply_faults(&mut self, faults: &FaultConfig) {
        if faults.is_noop() {
            return;
        }
        // Fault plans draw from their decision streams even on empty
        // offers, so the drained-core tick skip must stay off — and any
        // in-progress park must replay before the plans attach.
        self.unpark();
        self.has_faults = true;
        self.icache.set_fault(faults.plan(site::icache(self.id)));
        self.dcache.set_fault(faults.plan(site::dcache(self.id)));
        self.tex_unit.set_fault(faults.plan(site::tex(self.id)));
    }

    /// Monotone progress counter: strictly increases whenever the core
    /// retires an instruction or its caches accept or fill requests. The
    /// GPU-level watchdog compares successive values to detect deadlock.
    pub fn progress_token(&self) -> u64 {
        self.stats
            .instrs
            .wrapping_add(self.icache.stats.accepted)
            .wrapping_add(self.dcache.stats.accepted)
            .wrapping_add(self.icache.stats.reads)
            .wrapping_add(self.dcache.stats.reads)
            .wrapping_add(self.dcache.stats.writes)
            .wrapping_add(self.tex_unit.stats.requests)
    }

    /// Snapshot of everything that can be stuck, for the hang report.
    pub fn hang_state(&self) -> CoreHangState {
        CoreHangState {
            core: self.id,
            warps: self
                .wavefronts
                .iter()
                .filter(|w| w.active)
                .map(|w| WarpHangState {
                    wid: w.wid,
                    pc: w.pc,
                    tmask: w.tmask,
                    stall: w.stall,
                    ibuffer: self.ibuffer[w.wid].len(),
                    fetch_pending: self.fetch_pending[w.wid].is_some(),
                })
                .collect(),
            lsu_pending: self.lsu.pending(),
            completions: self.completions.len(),
            fence_waiters: self.fence_waiters.len(),
            icache: self.icache.occupancy(),
            dcache: self.dcache.occupancy(),
            tex: self.tex_unit.occupancy(),
        }
    }

    // --- Memory-side plumbing for the GPU level -------------------------

    /// Forwards this core's L1 miss traffic to `push`, the next level's
    /// handshake: I-cache misses first, then D-cache misses, each stream
    /// oldest first until `push` refuses one. I-cache requests carry a
    /// tag bit that routes their fills back in [`Core::push_l1_mem_rsp`].
    pub fn send_l1_misses(&mut self, mut push: impl FnMut(MemReq) -> Result<(), MemReq>) {
        self.icache.forward_mem_reqs(|req| {
            push(MemReq {
                tag: req.tag | ICACHE_BIT,
                ..req
            })
        });
        self.dcache.forward_mem_reqs(push);
    }

    /// Delivers a fill response to the L1 that asked for it.
    pub fn push_l1_mem_rsp(&mut self, rsp: MemRsp) {
        // A fill is exactly the external event a memory-stalled park
        // waits for: replay the deferred span before accepting it.
        self.unpark();
        // A drained core has no outstanding reads, so no response should
        // reach it — but if one ever does, resume full ticking so the fill
        // is processed rather than stranded.
        self.drained = false;
        if rsp.tag & ICACHE_BIT != 0 {
            self.icache.push_mem_rsp(MemRsp {
                tag: rsp.tag & !ICACHE_BIT,
            });
        } else {
            self.dcache.push_mem_rsp(rsp);
        }
    }

    /// Drains this core's pending global-barrier arrivals.
    pub fn take_global_barrier_arrivals(&mut self) -> Vec<GlobalBarrierArrival> {
        std::mem::take(&mut self.global_barrier_out)
    }

    /// Read access to a wavefront (tests, debugging).
    pub fn wavefront(&self, wid: usize) -> &Wavefront {
        &self.wavefronts[wid]
    }

    /// Read access to the register file (tests, runtime result readout).
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Detaches every fault plan from this core's components and re-enables
    /// the drained-core fast path (recovery masking: after a rollback the
    /// retry re-runs the remaining cycles fault-free).
    pub fn clear_faults(&mut self) {
        self.icache.clear_fault();
        self.dcache.clear_fault();
        self.tex_unit.clear_fault();
        self.has_faults = false;
    }

    /// Appends the core's complete simulation state: architectural state
    /// (wavefronts, registers, scoreboards, CSRs, barriers), every pipeline
    /// and memory-side structure in flight, fault-plan positions (inside
    /// the component states) and the performance counters.
    ///
    /// Structural geometry (wavefront count, cache shapes, LSU depth) is
    /// construction state derived from the configuration and is *not*
    /// serialized — restore validates occupancies against it instead of
    /// trusting the payload. Host-side scratch (decode memo, exec pool,
    /// fetch-request buffer, trace) is behavior-invisible and skipped.
    /// Decoded ibuffer instructions are stored as their 32-bit encodings
    /// and re-decoded on restore.
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        use vortex_snapshot::Snap;
        // Parks are host-side scheduling, flushed by the run loops before
        // they return; a snapshot must never observe one mid-span.
        debug_assert!(self.park.is_none(), "save_state with an active park");
        for wf in &self.wavefronts {
            wf.save_state(w);
        }
        self.scheduler.save_state(w);
        self.regs.save_state(w);
        self.scoreboard.save_state(w);
        self.csrf.save_state(w);
        self.barriers.save_state(w);
        self.icache.save_state(w);
        self.dcache.save_state(w);
        self.smem.save_state(w);
        self.tex_unit.save_state(w);
        self.lsu.save_state(w);
        for fp in &self.fetch_pending {
            fp.save(w);
        }
        for buf in &self.ibuffer {
            w.usize(buf.len());
            for &(ref instr, pc, _need) in buf {
                w.u32(vortex_isa::encode(instr));
                w.u32(pc);
            }
        }
        for &b in &self.cf_block {
            w.bool(b);
        }
        self.fast_fetch.save(w);
        w.usize(self.issue_rr);
        self.completions.save(w);
        w.u64(self.div_busy_until);
        w.u64(self.fdiv_busy_until);
        w.u64(self.fsqrt_busy_until);
        self.fence_waiters.save(w);
        self.global_barrier_out.save(w);
        // HashMap iteration order is nondeterministic; sort by tag so the
        // snapshot bytes are a pure function of the simulated state.
        let mut tex_dest: Vec<(Tag, usize, u8)> = self
            .tex_dest
            .iter()
            .map(|(&tag, &(wid, reg))| (tag, wid, reg.0))
            .collect();
        tex_dest.sort_unstable_by_key(|&(tag, _, _)| tag);
        w.usize(tex_dest.len());
        for (tag, wid, reg) in tex_dest {
            w.u64(tag);
            w.usize(wid);
            w.u8(reg);
        }
        w.u64(self.next_tex_tag);
        self.tex_mem_pending.save(w);
        self.store_log.save_state(w);
        w.u64(self.cycle);
        w.bool(self.drained);
        w.bool(self.has_faults);
        self.stats.save(w);
        // Enablement is configuration, not payload: a profiled core's
        // snapshot only restores into a profiled core (the config
        // fingerprint refuses the cross-enablement cases).
        if let Some(p) = &self.profile {
            p.save_state(w);
        }
    }

    /// Restores the core in place from a payload written by
    /// [`Core::save_state`] on an identically-configured core.
    ///
    /// # Errors
    /// Structured [`vortex_snapshot::SnapError`]s (never a panic) when the
    /// payload is malformed or violates a structural invariant — e.g. a
    /// wavefront index out of range or an undecodable ibuffer word. On
    /// error the core may be partially restored and must be discarded.
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        use vortex_snapshot::{Snap, SnapError};
        let nw = self.config.num_wavefronts;
        for wf in &mut self.wavefronts {
            wf.restore_state(r)?;
        }
        self.scheduler.restore_state(r)?;
        self.regs.restore_state(r)?;
        self.scoreboard.restore_state(r)?;
        self.csrf.restore_state(r)?;
        self.barriers.restore_state(r)?;
        self.icache.restore_state(r)?;
        self.dcache.restore_state(r)?;
        self.smem.restore_state(r)?;
        self.tex_unit.restore_state(r)?;
        self.lsu.restore_state(r)?;
        for fp in &mut self.fetch_pending {
            *fp = Option::<u32>::load(r)?;
        }
        for buf in &mut self.ibuffer {
            let n = r.len(8)?;
            if n > Self::IBUFFER_DEPTH {
                return Err(SnapError::BadValue("ibuffer depth"));
            }
            buf.clear();
            for _ in 0..n {
                let word = r.u32()?;
                let pc = r.u32()?;
                let instr = vortex_isa::decode(word)
                    .map_err(|_| SnapError::BadValue("ibuffer instruction"))?;
                let need = Self::hazard_mask(&instr);
                buf.push_back((instr, pc, need));
            }
        }
        for b in &mut self.cf_block {
            *b = r.bool()?;
        }
        self.fast_fetch = Snap::load(r)?;
        if self.fast_fetch.iter().any(|&(_, wid, _)| wid >= nw) {
            return Err(SnapError::BadValue("fast-fetch wavefront"));
        }
        self.issue_rr = r.usize()?;
        if self.issue_rr >= nw {
            return Err(SnapError::BadValue("issue pointer"));
        }
        self.completions = Snap::load(r)?;
        if self.completions.iter().any(|c| c.wid >= nw) {
            return Err(SnapError::BadValue("completion wavefront"));
        }
        self.div_busy_until = r.u64()?;
        self.fdiv_busy_until = r.u64()?;
        self.fsqrt_busy_until = r.u64()?;
        self.fence_waiters = Snap::load(r)?;
        if self.fence_waiters.iter().any(|&wid| wid >= nw) {
            return Err(SnapError::BadValue("fence waiter"));
        }
        self.global_barrier_out = Snap::load(r)?;
        if self.global_barrier_out.iter().any(|a| a.wid >= nw) {
            return Err(SnapError::BadValue("global-barrier wavefront"));
        }
        let n = r.len(8 + 8 + 1)?;
        self.tex_dest.clear();
        for _ in 0..n {
            let tag = r.u64()?;
            let wid = r.usize()?;
            let reg = r.u8()?;
            if wid >= nw || reg >= 64 {
                return Err(SnapError::BadValue("texture destination"));
            }
            self.tex_dest.insert(tag, (wid, RegId(reg)));
        }
        self.next_tex_tag = r.u64()?;
        self.tex_mem_pending = Snap::load(r)?;
        self.store_log.restore_state(r)?;
        self.cycle = r.u64()?;
        self.drained = r.bool()?;
        self.has_faults = r.bool()?;
        self.stats = Snap::load(r)?;
        if let Some(p) = self.profile.as_deref_mut() {
            p.restore_state(r)?;
        }
        // Host-side scratch: rebuilt lazily, never part of simulated state.
        self.fetch_req.clear();
        self.park = None;
        self.park_mark = u64::MAX;
        self.park_backoff = 0;
        Ok(())
    }
}

impl vortex_snapshot::Snap for Completion {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u64(self.ready);
        w.usize(self.wid);
        self.wb.save(w);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        Ok(Self {
            ready: r.u64()?,
            wid: r.usize()?,
            wb: vortex_snapshot::Snap::load(r)?,
        })
    }
}

impl vortex_snapshot::Snap for GlobalBarrierArrival {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u32(self.id);
        w.usize(self.wid);
        w.u32(self.count);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        Ok(Self {
            id: r.u32()?,
            wid: r.usize()?,
            count: r.u32()?,
        })
    }
}
