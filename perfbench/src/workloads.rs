//! The four workloads, their device configurations, and the
//! driver-equivalence gates. Why each workload exists is in README.md.

use crate::drivers::{self, SimResult, KERNELS_SEED};
use crate::trace::{elapsed_ns, Acct, Layer, Rec, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vortex_core::{GpuConfig, GpuStats};
use vortex_kernels::{Benchmark, Bfs, Sgemm};

/// sgemm-1c matrix side: three 32×32 f32 matrices (12 KiB) fit the
/// 16 KiB L1 D-cache.
const SGEMM_N: usize = 32;
/// bfs-1c graph: (nodes, extra edges per node). At this density every
/// seed gives the same BFS depth, so run-to-run spread comes from the
/// host, not from the number of launches.
const BFS_1C: (usize, usize) = (1024, 5);
/// bfs-16c-l2l3 graph, chosen the same way.
const BFS_16C: (usize, usize) = (4096, 4);
/// Core counts of the Figure 18 sweep.
const FIG18_CORES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Pinned gate cycles of the kernel crate's default sgemm and bfs on one
/// core (the numbers the repository's gate tests hold fixed).
pub const SGEMM_GATE_CYCLES: u64 = 81_970;
/// See [`SGEMM_GATE_CYCLES`].
pub const BFS_GATE_CYCLES: u64 = 793_827;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// sgemm on one core.
    Sgemm1c,
    /// bfs on one core.
    Bfs1c,
    /// bfs on 16 cores in 4 clusters with an L2 each and a shared L3.
    Bfs16cL2L3,
    /// The Figure 18 grid plus texture and raster points.
    SweepFig18,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Sgemm1c,
        Workload::Bfs1c,
        Workload::Bfs16cL2L3,
        Workload::SweepFig18,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sgemm1c => "sgemm-1c",
            Workload::Bfs1c => "bfs-1c",
            Workload::Bfs16cL2L3 => "bfs-16c-l2l3",
            Workload::SweepFig18 => "sweep-fig18",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The device configurations the workload simulates.
    pub fn configs(self) -> Vec<GpuConfig> {
        match self {
            Workload::Sgemm1c | Workload::Bfs1c => vec![flat(1)],
            Workload::Bfs16cL2L3 => vec![clustered(16, 4)],
            Workload::SweepFig18 => FIG18_CORES.into_iter().map(flat).collect(),
        }
    }

    /// The simulations of repetition `rep`, in the order they run.
    fn points(self, seed: u64, rep: u32) -> Vec<Point> {
        match self {
            Workload::Sgemm1c => vec![Point::new(0, Prog::SeededSgemm(seed), flat(1))],
            Workload::Bfs1c => vec![Point::new(0, Prog::SeededBfs(BFS_1C, seed), flat(1))],
            Workload::Bfs16cL2L3 => {
                vec![Point::new(
                    0,
                    Prog::SeededBfs(BFS_16C, seed),
                    clustered(16, 4),
                )]
            }
            Workload::SweepFig18 => sweep_points(seed, rep),
        }
    }

    /// Host threads one repetition keeps busy.
    pub fn threads(self, workers: usize) -> usize {
        match self {
            Workload::SweepFig18 => workers,
            _ => 1,
        }
    }

    /// The driver-equivalence gates this workload's drivers must pass.
    pub fn gates(self) -> &'static [Gate] {
        match self {
            Workload::Sgemm1c => &[Gate::Sgemm],
            Workload::Bfs1c | Workload::Bfs16cL2L3 => &[Gate::Bfs],
            Workload::SweepFig18 => &[Gate::Sgemm, Gate::Bfs],
        }
    }
}

/// `GpuConfig::with_cores` with the host knobs pinned: one simulation
/// thread and fast-forward on (the defaults, whatever the environment
/// says — `main` refuses to run when it says anything).
fn flat(cores: usize) -> GpuConfig {
    let mut c = GpuConfig::with_cores(cores);
    c.sim_threads = 1;
    c.fast_forward = true;
    c
}

/// `cores` in `clusters` equal clusters with the default L2 per cluster
/// and a shared L3 (`vxsim --clusters N --l2 --l3`).
fn clustered(cores: usize, clusters: usize) -> GpuConfig {
    let mut c = flat(cores);
    c.cores_per_cluster = cores / clusters;
    c.l2 = Some(vortex_mem::hierarchy::l2_default());
    c.l3 = Some(vortex_mem::hierarchy::l3_default());
    c
}

/// A simulated program and its input.
#[derive(Debug, Clone, Copy)]
enum Prog {
    SeededSgemm(u64),
    SeededBfs((usize, usize), u64),
    Sgemm,
    Vecadd,
    Sfilter,
    Saxpy,
    Nearn,
    Gaussian,
    Bfs,
    Texture,
    Raster,
}

/// One simulation of a repetition. `id` is stable across repetitions and
/// seeds, so repeated simulations of one input can be compared.
#[derive(Debug, Clone)]
struct Point {
    id: u32,
    prog: Prog,
    config: GpuConfig,
}

impl Point {
    fn new(id: u32, prog: Prog, config: GpuConfig) -> Self {
        Self { id, prog, config }
    }

    /// Runs the point as one simulation, timing its set-up.
    fn simulate(&self, rec: &mut Rec) -> SimRecord {
        let open = rec.begin_sim(self.id);
        let result = self.run(rec);
        let acct = rec.end_sim(open);
        SimRecord {
            id: self.id,
            result,
            acct,
        }
    }

    fn run(&self, rec: &mut Rec) -> SimResult {
        let c = &self.config;
        match self.prog {
            Prog::SeededSgemm(seed) => drivers::sgemm(rec, c, SGEMM_N, seed),
            Prog::SeededBfs((nodes, extra), seed) => drivers::bfs(rec, c, nodes, extra, seed),
            Prog::Sgemm => drivers::sgemm(rec, c, Sgemm::default().n, KERNELS_SEED),
            Prog::Bfs => {
                let b = Bfs::default();
                drivers::bfs(rec, c, b.nodes, b.extra_degree, KERNELS_SEED)
            }
            Prog::Vecadd => drivers::vecadd(rec, c),
            Prog::Sfilter => drivers::sfilter(rec, c),
            Prog::Saxpy => drivers::saxpy(rec, c),
            Prog::Nearn => drivers::nearn(rec, c),
            Prog::Gaussian => drivers::gaussian(rec, c),
            Prog::Texture => drivers::texture(rec, c),
            Prog::Raster => drivers::raster(rec, c),
        }
    }
}

/// The sweep: seven Rodinia kernels at every Figure 18 core count, plus
/// texture and raster at 1 and 16 cores. Inputs are the kernel crate's
/// fixed ones; the seed shuffles the order points are dealt to workers
/// within each core count, afresh each repetition. Core counts go
/// widest first, so both workers hold their largest devices at the same
/// moment every repetition (peak memory does not depend on the order)
/// and the repetition ends on short points (a small tail).
fn sweep_points(seed: u64, rep: u32) -> Vec<Point> {
    let rodinia = [
        Prog::Sgemm,
        Prog::Vecadd,
        Prog::Sfilter,
        Prog::Saxpy,
        Prog::Nearn,
        Prog::Gaussian,
        Prog::Bfs,
    ];
    let mut progs: Vec<(Prog, usize)> = FIG18_CORES
        .into_iter()
        .flat_map(|c| rodinia.map(|p| (p, c)))
        .collect();
    for p in [Prog::Texture, Prog::Raster] {
        progs.extend([(p, 1), (p, 16)]);
    }
    let mut points: Vec<Point> = progs
        .into_iter()
        .enumerate()
        .map(|(i, (p, c))| Point::new(i as u32, p, flat(c)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..points.len()).rev() {
        points.swap(i, rng.random_range(0..i + 1));
    }
    // Stable: keeps the shuffled order within each core count.
    points.sort_by_key(|p| std::cmp::Reverse(p.config.num_cores));
    points
}

/// One finished simulation.
#[derive(Debug)]
pub struct SimRecord {
    /// Stable input id within the workload.
    pub id: u32,
    /// Outcome.
    pub result: SimResult,
    /// Host accounting.
    pub acct: Acct,
}

/// `par_map` timing of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct ParTiming {
    /// Worker threads.
    pub workers: usize,
    /// Summed item time over workers × the map's wall time.
    pub busy_frac: f64,
    /// Last item's end minus the moment the first worker went idle.
    pub tail_s: f64,
}

/// One repetition's outcome.
#[derive(Debug)]
pub struct RepOut {
    /// Wall time from the first set-up call to the last validation.
    pub wall_ns: u64,
    /// Every simulation run.
    pub sims: Vec<SimRecord>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Worker timing, for workloads that fan out.
    pub par: Option<ParTiming>,
}

/// Runs one repetition of `workload`.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    epoch: Instant,
    tracing: bool,
    rep: u32,
    workers: usize,
) -> RepOut {
    let points = workload.points(seed, rep);
    let mut rec = Rec::new(epoch, tracing, rep);
    let start = Instant::now();
    let root = rec.open(Layer::Rep, 1);
    let (sims, par) = if let [p] = points.as_slice() {
        (vec![p.simulate(&mut rec)], None)
    } else {
        let (sims, par) = run_par(&mut rec, &points, workers);
        (sims, Some(par))
    };
    rec.close(root);
    RepOut {
        wall_ns: elapsed_ns(start),
        sims,
        spans: rec.into_spans(),
        par,
    }
}

/// Deals `points` to `workers` threads.
fn run_par(rec: &mut Rec, points: &[Point], workers: usize) -> (Vec<SimRecord>, ParTiming) {
    let map = rec.open(Layer::ParMap, workers as u32);
    let map_start = Instant::now();
    let parent: &Rec = rec;
    let outs = vortex_par::par_map_with_jobs(workers, points, |_, p| {
        let mut item = parent.fork();
        let begin = elapsed_ns(map_start);
        let open = item.open(Layer::ParItem, 1);
        let sim = p.simulate(&mut item);
        item.close(open);
        let end = elapsed_ns(map_start);
        (sim, item, std::thread::current().id(), begin, end)
    });
    let map_ns = elapsed_ns(map_start);
    // Each worker goes idle when its last item ends.
    let mut last_end: Vec<(std::thread::ThreadId, u64)> = Vec::new();
    let mut busy_ns = 0u64;
    let mut sims = Vec::with_capacity(outs.len());
    for (sim, item, thread, begin, end) in outs {
        busy_ns += end - begin;
        match last_end.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, e)) => *e = (*e).max(end),
            None => last_end.push((thread, end)),
        }
        rec.adopt(item);
        sims.push(sim);
    }
    rec.close(map);
    let first_idle = last_end.iter().map(|&(_, e)| e).min().unwrap_or(0);
    let last = last_end.iter().map(|&(_, e)| e).max().unwrap_or(0);
    let par = ParTiming {
        workers,
        busy_frac: busy_ns as f64 / (workers as f64 * map_ns as f64),
        tail_s: (last - first_idle) as f64 * 1e-9,
    };
    (sims, par)
}

/// A driver-equivalence gate: at the kernel crate's seed and gate size,
/// the benchmark's seeded driver must land on the pinned cycle count and
/// on exactly the `GpuStats` the crate's own `Benchmark::run_on` gives.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// sgemm, 32×32, one core.
    Sgemm,
    /// bfs, 1024 nodes, extra degree 3, one core.
    Bfs,
}

impl Gate {
    /// Runs the gate; `Err` describes the mismatch.
    pub fn check(self, epoch: Instant) -> Result<(), String> {
        let config = flat(1);
        let mut rec = Rec::new(epoch, false, 0);
        let (name, pinned, ours, theirs): (_, _, SimResult, GpuStats) = match self {
            Gate::Sgemm => {
                let b = Sgemm::default();
                let ours = drivers::sgemm(&mut rec, &config, b.n, KERNELS_SEED);
                ("sgemm", SGEMM_GATE_CYCLES, ours, b.run_on(&config).stats)
            }
            Gate::Bfs => {
                let b = Bfs::default();
                let ours = drivers::bfs(&mut rec, &config, b.nodes, b.extra_degree, KERNELS_SEED);
                ("bfs", BFS_GATE_CYCLES, ours, b.run_on(&config).stats)
            }
        };
        let ours = ours.map_err(|e| format!("{name} gate: {e}"))?;
        if !ours.valid {
            return Err(format!(
                "{name} gate: output does not match the host reference"
            ));
        }
        if ours.stats.cycles != pinned {
            return Err(format!(
                "{name} gate: {} cycles, pinned {pinned}",
                ours.stats.cycles
            ));
        }
        if ours.stats != theirs {
            return Err(format!(
                "{name} gate: GpuStats differ from the kernel crate's run"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_kernels::rodinia::all_rodinia;
    use vortex_kernels::{FilterKind, TexBench};

    /// The sweep's drivers replay the kernel crate's `run_on` exactly:
    /// same device addresses, same cycles, same counters.
    #[test]
    fn sweep_drivers_match_the_kernel_crate() {
        let config = flat(1);
        let mut benches = all_rodinia();
        benches.push(Box::new(TexBench::new(FilterKind::Bilinear, true, 6)));
        let progs = [
            Prog::Sgemm,
            Prog::Vecadd,
            Prog::Sfilter,
            Prog::Saxpy,
            Prog::Nearn,
            Prog::Gaussian,
            Prog::Bfs,
            Prog::Texture,
        ];
        for (bench, prog) in benches.iter().zip(progs) {
            let mut rec = Rec::new(Instant::now(), false, 0);
            let ours = Point::new(0, prog, config.clone())
                .run(&mut rec)
                .expect("driver runs");
            assert!(ours.valid, "{}: output mismatch", bench.name());
            assert_eq!(ours.stats, bench.run_on(&config).stats, "{}", bench.name());
        }
    }

    #[test]
    fn every_seed_deals_every_sweep_point_once() {
        for (seed, rep) in [(1, 0), (1, 1), (99, 7)] {
            let mut ids: Vec<u32> = sweep_points(seed, rep).iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..46).collect::<Vec<u32>>());
        }
        assert_ne!(
            sweep_points(1, 0).iter().map(|p| p.id).collect::<Vec<_>>(),
            sweep_points(2, 0).iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }
}
