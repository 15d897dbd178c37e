//! Host-performance benchmark of the Vortex simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sgemm-1c --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Repeats one workload for `--seconds`, checks every simulated result
//! against its host reference and every repetition's `GpuStats` against
//! the first, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). The last stdout line
//! is one JSON object; the same numbers, with the host context, are
//! written to `perfbench/out/`. See README.md.

mod calib;
mod drivers;
mod heap;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Span};
use vortex_core::GpuStats;
use vortex_obs::json::{num, quote};
use vortex_obs::Value;
use workloads::{RepOut, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Environment knobs that would change how the simulator runs; any of
/// them set means the numbers would not describe the default
/// configuration.
const REFUSED_ENV: [&str; 3] = ["VORTEX_SIM_THREADS", "VORTEX_FF", "VORTEX_JOBS"];

/// The end-to-end metrics, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ips", "1/s"),
    ("sim_cycles", "cycles"),
    ("peak_heap_mib", "MiB"),
    ("pass_frac", "fraction"),
];

/// The per-layer metrics of a traced run, with units. Every `<layer>_s`
/// named after a [`Layer`] is that layer's self time.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("bench.rep_s", "s"),
    ("par.map_s", "s"),
    ("par.item_s", "s"),
    ("bench.sim_s", "s"),
    ("kernels.gen_s", "s"),
    ("asm.build_s", "s"),
    ("runtime.new_s", "s"),
    ("runtime.dma_s", "s"),
    ("core.run_s", "s"),
    ("kernels.ref_s", "s"),
    ("gfx.geometry_s", "s"),
    ("gfx.binning_s", "s"),
    ("gfx.host_ref_s", "s"),
    ("runtime.sims", "count"),
    ("runtime.launches", "count"),
    ("runtime.dma_bytes", "bytes"),
    ("core.instrs", "count"),
    ("core.thread_instrs", "count"),
    ("core.ipc", "instr/cycle"),
    ("core.ns_per_instr", "ns"),
    ("core.ns_per_live_cycle", "ns"),
    ("core.stall.ibuffer_empty", "cycles"),
    ("core.stall.scoreboard", "cycles"),
    ("core.stall.fu_busy", "cycles"),
    ("ff.cycles_skipped", "cycles"),
    ("ff.skip_events", "count"),
    ("ff.skip_frac", "fraction"),
    ("mem.l1d.reads", "count"),
    ("mem.l1d.writes", "count"),
    ("mem.l1d.read_hit_rate", "fraction"),
    ("mem.l1d.mshr_merges", "count"),
    ("mem.l1d.bank_conflicts", "count"),
    ("mem.l1i.read_hit_rate", "fraction"),
    ("mem.dram.reads", "count"),
    ("mem.dram.writes", "count"),
    ("mem.smem.conflicts", "count"),
    ("tex.ops", "count"),
    ("tex.texels_generated", "count"),
    ("tex.texels_fetched", "count"),
    ("tex.mem_busy_cycles", "cycles"),
    ("tex.dedup_frac", "fraction"),
    ("par.workers", "count"),
    ("par.busy_frac", "fraction"),
    ("par.tail_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("host.speed", "ratio"),
    ("host.median_wall_s", "s"),
    ("fail_frac", "fraction"),
    ("reps", "count"),
];

/// Repetitions a run makes at least, whatever `--seconds` says: the
/// determinism guard needs a second simulation of each input, and a
/// traced run needs two traced and two untraced repetitions.
const MIN_REPS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; unset it to measure the default configuration");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Failure bookkeeping across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    /// First `GpuStats` seen per input, for the determinism guard.
    first: BTreeMap<u32, GpuStats>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Checks every simulation of a repetition.
    fn check(&mut self, rep: u32, out: &RepOut) {
        for sim in &out.sims {
            self.attempted += 1;
            match &sim.result {
                Err(e) => self.fail(format!("rep {rep} sim {}: {e}", sim.id)),
                Ok(o) if !o.valid => {
                    self.fail(format!("rep {rep} sim {}: output mismatch", sim.id));
                }
                Ok(o) => match self.first.get(&sim.id) {
                    Some(first) if *first != o.stats => self.fail(format!(
                        "rep {rep} sim {}: GpuStats differ from the first repetition \
                         ({} vs {} cycles)",
                        sim.id, o.stats.cycles, first.cycles
                    )),
                    Some(_) => {}
                    None => {
                        self.first.insert(sim.id, o.stats.clone());
                    }
                },
            }
        }
    }
}

/// One repetition and what was measured around it.
struct Rep {
    out: RepOut,
    traced: bool,
    /// Peak live heap during the repetition.
    heap_mib: f64,
    /// Host speed around the repetition: host seconds times `scale` are
    /// reference seconds (see `calib.rs`).
    scale: f64,
}

impl Rep {
    /// `ns` host nanoseconds in reference seconds.
    fn secs(&self, ns: u64) -> f64 {
        ns as f64 * 1e-9 * self.scale
    }

    fn wall_s(&self) -> f64 {
        self.secs(self.out.wall_ns)
    }

    fn setup_s(&self) -> f64 {
        self.secs(sum_acct(&self.out, |a| a.setup_ns))
    }

    /// Warp instructions per reference second inside `Device::run_kernel`.
    fn sim_ips(&self) -> f64 {
        let core_s = self.secs(sum_acct(&self.out, |a| a.core_ns));
        ratio(sum_stats(&self.out, GpuStats::total_instrs) as f64, core_s)
    }
}

/// The median of `f` over `reps`.
fn median<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median_of(reps.into_iter().map(f))
}

fn run(args: &Args) -> Result<(), String> {
    let epoch = Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut tally = Tally::default();
    for gate in args.workload.gates() {
        tally.attempted += 1;
        if let Err(msg) = gate.check(epoch) {
            tally.fail(msg);
        }
    }

    let probe = calib::Probe::new(args.workload.threads(workers));
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let rep = reps.len() as u32;
        // A traced run alternates untraced and traced repetitions, so the
        // tracing overhead is measured under the same host conditions.
        let traced = args.trace && rep % 2 == 1;
        let before = probe.time();
        heap::reset_peak();
        let out = workloads::run_rep(args.workload, args.seed, epoch, traced, rep, workers);
        let heap_mib = heap::peak_bytes() as f64 / (1024.0 * 1024.0);
        let scale = calib::scale(before.min(probe.time()));
        tally.check(rep, &out);
        reps.push(Rep {
            out,
            traced,
            heap_mib,
            scale,
        });
    }

    let pass_frac = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        layer_metrics(args, &reps, pass_frac)?
    } else {
        let values = [
            median(&reps, Rep::wall_s),
            median(&reps, Rep::setup_s),
            median(&reps, Rep::sim_ips),
            median(&reps, |r| sum_stats(&r.out, |s| s.cycles) as f64),
            median(&reps, |r| r.heap_mib),
            pass_frac,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };

    let result = render_result(args, workers, &reps, &tally, &metrics);
    let path = out_dir()?.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, &result).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // Everything printed below is read back from the file just written.
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = summary_line(&doc)?;
    for msg in &tally.messages {
        eprintln!("perfbench: FAILED {msg}");
    }
    print_table(args, &doc)?;
    Value::parse(&line).map_err(|e| format!("summary line does not parse: {e}"))?;
    println!("{line}");
    Ok(())
}

fn sum_acct(r: &RepOut, f: impl Fn(&trace::Acct) -> u64) -> u64 {
    r.sims.iter().map(|s| f(&s.acct)).sum()
}

fn sum_stats(r: &RepOut, f: impl Fn(&GpuStats) -> u64) -> u64 {
    r.sims
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|o| f(&o.stats))
        .sum()
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `values` (0 when there are none).
fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-layer metrics of one traced repetition, given its layer self
/// times in host seconds. Times are reported in reference seconds.
fn rep_layer_metrics(rep: &Rep, self_s: &[(Layer, f64)]) -> BTreeMap<&'static str, f64> {
    let r = &rep.out;
    let mut m = BTreeMap::new();
    for &(layer, s) in self_s {
        m.insert(layer_metric(layer), s * rep.scale);
    }
    let stat = |f: &dyn Fn(&GpuStats) -> u64| sum_stats(r, f) as f64;
    let core_ns = sum_acct(r, |a| a.core_ns) as f64 * rep.scale;
    let instrs = stat(&GpuStats::total_instrs);
    let cycles = stat(&|s| s.cycles);
    let skipped = stat(&|s| s.cycles_skipped);
    let l1d = |f: fn(&vortex_mem::cache::CacheStats) -> u64| stat(&|s| f(&s.merged_dcache()));
    let l1i = |f: fn(&vortex_mem::cache::CacheStats) -> u64| stat(&|s| f(&s.merged_icache()));
    let tex = |f: fn(&vortex_tex::TexUnitStats) -> u64| stat(&|s| f(&s.merged_tex()));
    let stall = |f: fn(&vortex_core::StallStats) -> u64| stat(&|s| f(&s.merged_stalls()));
    let cores = |f: fn(&vortex_core::CoreStats) -> u64| stat(&|s| s.cores.iter().map(f).sum());
    m.extend([
        ("runtime.sims", r.sims.len() as f64),
        ("runtime.launches", sum_acct(r, |a| a.launches) as f64),
        ("runtime.dma_bytes", sum_acct(r, |a| a.dma_bytes) as f64),
        ("core.instrs", instrs),
        ("core.thread_instrs", stat(&GpuStats::total_thread_instrs)),
        ("core.ipc", ratio(instrs, cycles)),
        ("core.ns_per_instr", ratio(core_ns, instrs)),
        ("core.ns_per_live_cycle", ratio(core_ns, cycles - skipped)),
        ("core.stall.ibuffer_empty", stall(|s| s.ibuffer_empty)),
        ("core.stall.scoreboard", stall(|s| s.scoreboard)),
        ("core.stall.fu_busy", stall(|s| s.fu_busy)),
        ("ff.cycles_skipped", skipped),
        ("ff.skip_events", stat(&|s| s.skip_events)),
        ("ff.skip_frac", ratio(skipped, cycles)),
        ("mem.l1d.reads", l1d(|c| c.reads)),
        ("mem.l1d.writes", l1d(|c| c.writes)),
        (
            "mem.l1d.read_hit_rate",
            ratio(l1d(|c| c.read_hits), l1d(|c| c.reads)),
        ),
        ("mem.l1d.mshr_merges", l1d(|c| c.mshr_merges)),
        ("mem.l1d.bank_conflicts", l1d(|c| c.bank_conflicts)),
        (
            "mem.l1i.read_hit_rate",
            ratio(l1i(|c| c.read_hits), l1i(|c| c.reads)),
        ),
        ("mem.dram.reads", stat(&|s| s.dram_reads)),
        ("mem.dram.writes", stat(&|s| s.dram_writes)),
        ("mem.smem.conflicts", cores(|c| c.smem_conflicts)),
        ("tex.ops", cores(|c| c.tex_ops)),
        ("tex.texels_generated", tex(|t| t.texels_generated)),
        ("tex.texels_fetched", tex(|t| t.texels_fetched)),
        ("tex.mem_busy_cycles", tex(|t| t.mem_busy_cycles)),
        (
            "tex.dedup_frac",
            ratio(
                tex(|t| t.texels_generated) - tex(|t| t.texels_fetched),
                tex(|t| t.texels_generated),
            ),
        ),
        ("par.workers", r.par.map_or(0.0, |p| p.workers as f64)),
        ("par.busy_frac", r.par.map_or(0.0, |p| p.busy_frac)),
        ("par.tail_s", r.par.map_or(0.0, |p| p.tail_s * rep.scale)),
        ("trace.spans", r.spans.len() as f64),
    ]);
    m
}

fn layer_metric(layer: Layer) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix("_s") == Some(layer.name()))
        .expect("every layer has a self-time metric")
}

/// The traced run's metrics: spans of the traced repetitions are written
/// to the trace file, read back, and the layer self times computed from
/// what was read.
fn layer_metrics(
    args: &Args,
    reps: &[Rep],
    pass_frac: f64,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let mut spans: Vec<Span> = Vec::new();
    for r in &traced {
        let base = spans.len();
        spans.extend(r.out.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let path = out_dir()?.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(
        &path,
        trace::render(args.workload.name(), args.seed, &spans),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    let spans = trace::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut per_rep: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut at = 0;
    for r in &traced {
        let n = r.out.spans.len();
        let chunk: Vec<Span> = spans[at..at + n]
            .iter()
            .cloned()
            .map(|mut s| {
                s.parent = s.parent.map(|p| p - at);
                s
            })
            .collect();
        per_rep.push(rep_layer_metrics(r, &trace::self_seconds(&chunk)));
        at += n;
    }
    let traced_wall = median(traced.iter().copied(), Rep::wall_s);
    let untraced_wall = median(reps.iter().filter(|r| !r.traced), Rep::wall_s);
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.wall_s" => traced_wall,
                "trace.untraced_wall_s" => untraced_wall,
                "trace.overhead_s" => traced_wall - untraced_wall,
                "host.speed" => median(reps, |r| r.scale),
                "host.median_wall_s" => median(reps, |r| r.out.wall_ns as f64 * 1e-9),
                "fail_frac" => 1.0 - pass_frac,
                "reps" => reps.len() as f64,
                _ => median_of(per_rep.iter().map(|m| m[name])),
            };
            (name, unit, v)
        })
        .collect())
}

/// The kernel's resident-set high-water mark of this process, in MiB,
/// where `/proc` reports it. Recorded as context only (see `heap.rs`).
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = manifest_dir().join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(refname)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn render_result(
    args: &Args,
    workers: usize,
    reps: &[Rep],
    tally: &Tally,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":{},\"workload\":{},\"context\":{{\"nproc\":{workers},\"workers\":{workers},\
         \"memory_method\":{},\"vm_hwm_mib\":{},\"timing_method\":{},\
         \"host_median_wall_s\":{},\"host_median_sim_ips\":{},\"seed\":{},\"git_commit\":{},\"run_seconds\":{},\
         \"trace\":{},\"reps\":{},\"traced_reps\":{},\"configs\":[",
        quote("perfbench-result-v1"),
        quote(args.workload.name()),
        quote("peak live heap bytes per repetition from a counting global allocator; median over repetitions"),
        vortex_obs::json::opt_num(vm_hwm_mib()),
        quote("median over repetitions of host time times calib::scale(probe time)"),
        num(median(reps, |r| r.out.wall_ns as f64 * 1e-9)),
        num(median(reps, |r| r.sim_ips() * r.scale)),
        num(args.seed as f64),
        quote(&git_commit()),
        args.seconds,
        args.trace,
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
    );
    for (i, c) in args.workload.configs().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"num_cores\":{},\"cores_per_cluster\":{},\"wavefronts\":{},\"threads\":{},\
             \"l2\":{},\"l3\":{},\"dram_channels\":{},\"sim_threads\":{},\"fast_forward\":{},\
             \"debug\":{}}}",
            if i > 0 { "," } else { "" },
            c.num_cores,
            c.cores_per_cluster,
            c.core.num_wavefronts,
            c.core.num_threads,
            c.l2.is_some(),
            c.l3.is_some(),
            c.dram.channels,
            c.sim_threads,
            c.fast_forward,
            quote(&format!("{c:?}")),
        );
    }
    let _ = write!(
        out,
        "]}},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    let msgs: Vec<String> = tally.messages.iter().map(|m| quote(m)).collect();
    out.push_str(&msgs.join(","));
    out.push_str("],\"metrics\":{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            quote(name),
            num(*v),
            quote(unit)
        );
    }
    out.push_str("\n}}\n");
    out
}

/// The contract line: `correct`, `attempted`, `failed` and `metrics`,
/// taken from a parsed result document.
fn summary_line(doc: &Value) -> Result<String, String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result file lacks {k}"));
    let correct = matches!(field("correct")?, Value::Bool(true));
    let count = |k: &str| -> Result<String, String> {
        field(k)?
            .as_num()
            .map(num)
            .ok_or_else(|| format!("result field {k} is not a number"))
    };
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("result file lacks a metrics object".into());
    };
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        count("attempted")?,
        count("failed")?
    );
    let mut first = true;
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_num);
        let unit = m.get("unit").and_then(Value::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("metric {name} lacks a value or unit"));
        };
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if first { "" } else { ", " },
            quote(name),
            num(value),
            quote(unit)
        );
        first = false;
    }
    out.push_str("}}");
    Ok(out)
}

fn print_table(args: &Args, doc: &Value) -> Result<(), String> {
    let ctx = doc.get("context").ok_or("result file lacks context")?;
    let n = |k: &str| ctx.get(k).and_then(Value::as_num).unwrap_or(0.0);
    println!(
        "perfbench {} seed={} trace={} reps={} nproc={} commit={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        n("reps"),
        n("nproc"),
        ctx.get("git_commit")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        let v = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_num)
            .ok_or_else(|| format!("result file lacks metric {name}"))?;
        println!("  {name:<26} {v:>16.6} {unit}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn every_layer_has_a_metric() {
        for layer in Layer::ALL {
            assert!(layer_metric(layer).ends_with("_s"));
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median_of([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median_of([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median_of(std::iter::empty()), 0.0);
    }
}
