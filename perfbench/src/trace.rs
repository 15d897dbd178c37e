//! In-memory span recording around every call the benchmark makes into a
//! simulator layer, plus the per-simulation accounting the end-to-end
//! metrics need even when tracing is off.
//!
//! Spans are only recorded when tracing is on; the accounting (host time
//! inside `Device::run_kernel`, set-up time before the first launch,
//! launches, DMA bytes) is always kept, because `sim_ips` and `setup_s`
//! come from untraced runs.

use std::fmt::Write as _;
use std::time::Instant;
use vortex_obs::json::{num, quote};
use vortex_obs::Value;
use vortex_runtime::{Device, RunReport, RuntimeError};

/// Trace file schema tag.
pub const TRACE_SCHEMA: &str = "perfbench-trace-v1";

/// One layer boundary the benchmark times. The leaf layers wrap calls
/// into a simulator crate; the others are the benchmark's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One workload repetition (root span).
    Rep,
    /// One `vortex_par::par_map_with_jobs` call. Its span is `workers`
    /// wide, so its self time is worker time spent idle.
    ParMap,
    /// One work item handed to a `par_map` worker.
    ParItem,
    /// One simulation: set-up, launches and validation of one input.
    Sim,
    /// Seeded input generators (`vortex-kernels` and the benchmark's own).
    KernelsGen,
    /// Kernel `program()` builders (`vortex-asm`).
    AsmBuild,
    /// `Device::new`.
    RuntimeNew,
    /// `Device::{alloc, upload, write_args, load_program, download}`,
    /// including host-side byte marshalling.
    RuntimeDma,
    /// `Device::run_kernel`: the simulator proper (`Gpu::run`).
    CoreRun,
    /// Host references and the comparison against device output.
    KernelsRef,
    /// `vortex_gfx::process_geometry`.
    GfxGeometry,
    /// `TileBins::build` plus the device-array and record serialization.
    GfxBinning,
    /// The host rasterizer reference and the framebuffer comparison.
    GfxHostRef,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Rep,
        Layer::ParMap,
        Layer::ParItem,
        Layer::Sim,
        Layer::KernelsGen,
        Layer::AsmBuild,
        Layer::RuntimeNew,
        Layer::RuntimeDma,
        Layer::CoreRun,
        Layer::KernelsRef,
        Layer::GfxGeometry,
        Layer::GfxBinning,
        Layer::GfxHostRef,
    ];

    /// The span name, also the stem of the layer's self-time metric.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "bench.rep",
            Layer::ParMap => "par.map",
            Layer::ParItem => "par.item",
            Layer::Sim => "bench.sim",
            Layer::KernelsGen => "kernels.gen",
            Layer::AsmBuild => "asm.build",
            Layer::RuntimeNew => "runtime.new",
            Layer::RuntimeDma => "runtime.dma",
            Layer::CoreRun => "core.run",
            Layer::KernelsRef => "kernels.ref",
            Layer::GfxGeometry => "gfx.geometry",
            Layer::GfxBinning => "gfx.binning",
            Layer::GfxHostRef => "gfx.host_ref",
        }
    }

    fn from_name(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// A recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which layer boundary.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Simulation id (`u32::MAX` outside any simulation).
    pub sim: u32,
    /// Host threads the span's interval covers (`par.map` spans its
    /// workers; everything else is 1).
    pub width: u32,
    /// Workload repetition the span belongs to.
    pub rep: u32,
}

/// Accounting kept for every simulation, traced or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acct {
    /// Host time inside `Device::run_kernel`, summed over launches.
    pub core_ns: u64,
    /// Host time from the simulation's start to its first launch.
    pub setup_ns: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Bytes moved by DMA in either direction.
    pub dma_bytes: u64,
}

/// A span recorder for one thread of work.
#[derive(Debug)]
pub struct Rec {
    epoch: Instant,
    tracing: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    sim: u32,
    sim_start: Option<Instant>,
    acct: Acct,
}

/// Handle of an open span (see [`Rec::open`]).
#[must_use]
pub struct Open(Option<usize>);

impl Rec {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tracing: bool, rep: u32) -> Self {
        Self {
            epoch,
            tracing,
            rep,
            spans: Vec::new(),
            stack: Vec::new(),
            sim: u32::MAX,
            sim_start: None,
            acct: Acct::default(),
        }
    }

    /// A fresh recorder for a worker, sharing this one's epoch and mode.
    pub fn fork(&self) -> Rec {
        Rec::new(self.epoch, self.tracing, self.rep)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant, width: u32) -> usize {
        let span = Span {
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            sim: self.sim,
            width,
            rep: self.rep,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that closes with [`Rec::close`]; spans recorded in
    /// between become its children.
    pub fn open(&mut self, layer: Layer, width: u32) -> Open {
        if !self.tracing {
            return Open(None);
        }
        let now = Instant::now();
        let idx = self.push(layer, now, now, width);
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened with [`Rec::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(idx), "spans close in LIFO order");
            self.spans[idx].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` as one call into `layer`.
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.push(layer, start, Instant::now(), 1);
        r
    }

    /// Starts simulation `id`: its set-up clock runs until the first
    /// launch.
    pub fn begin_sim(&mut self, id: u32) -> Open {
        self.sim = id;
        self.sim_start = Some(Instant::now());
        self.acct = Acct::default();
        self.open(Layer::Sim, 1)
    }

    /// Ends the current simulation and returns its accounting.
    pub fn end_sim(&mut self, open: Open) -> Acct {
        // A simulation that failed before launching spent all its time
        // setting up.
        if let Some(start) = self.sim_start.take() {
            self.acct.setup_ns += elapsed_ns(start);
        }
        self.close(open);
        self.sim = u32::MAX;
        self.acct
    }

    /// Counts DMA traffic of the current simulation.
    pub fn add_dma_bytes(&mut self, bytes: usize) {
        self.acct.dma_bytes += bytes as u64;
    }

    /// `Device::run_kernel`, always timed.
    pub fn run_kernel(&mut self, dev: &mut Device, entry: u32) -> Result<RunReport, RuntimeError> {
        let start = Instant::now();
        if let Some(sim_start) = self.sim_start.take() {
            self.acct.setup_ns += ns_between(sim_start, start);
        }
        let r = dev.run_kernel(entry);
        let end = Instant::now();
        self.acct.core_ns += ns_between(start, end);
        self.acct.launches += 1;
        if self.tracing {
            self.push(Layer::CoreRun, start, end, 1);
        }
        r
    }

    /// Appends a worker's spans under the currently open span.
    pub fn adopt(&mut self, child: Rec) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(parent, |p| Some(p + base));
            s
        }));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span closed");
        self.spans
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).expect("interval shorter than 584 years")
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    ns_between(t, Instant::now())
}

/// Self time per layer, in seconds: each span's duration times its width,
/// minus the durations of its children.
pub fn self_seconds(spans: &[Span]) -> Vec<(Layer, f64)> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns - s.start_ns) * i128::from(s.width))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    Layer::ALL
        .into_iter()
        .map(|layer| {
            let total: i128 = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, &ns)| ns)
                .sum();
            (layer, total as f64 / 1e9)
        })
        .collect()
}

/// Serializes spans as a `perfbench-trace-v1` document.
pub fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":{},\"workload\":{},\"seed\":{},\"spans\":[",
        quote(TRACE_SCHEMA),
        quote(workload),
        num(seed as f64)
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| num(p as f64));
        let sim = if s.sim == u32::MAX {
            "null".to_string()
        } else {
            num(f64::from(s.sim))
        };
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"sim\":{sim},\"width\":{},\"rep\":{}}}",
            quote(s.layer.name()),
            num(s.start_ns as f64),
            num(s.end_ns as f64),
            s.width,
            s.rep
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Reads a document written by [`render`] back into spans.
///
/// # Errors
/// A message naming what is malformed.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let doc = Value::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(TRACE_SCHEMA) {
        return Err("trace schema tag missing or wrong".into());
    }
    let arr = doc
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("trace has no span array")?;
    let count = |v: &Value, key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            Some(Value::Null) => Ok(None),
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
            _ => Err(format!("span field {key} missing or not a count")),
        }
    };
    let need = |v: &Value, key: &str| -> Result<u64, String> {
        count(v, key)?.ok_or_else(|| format!("span field {key} is null"))
    };
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            let name = v.get("name").and_then(Value::as_str).unwrap_or("");
            let layer = Layer::from_name(name).ok_or_else(|| format!("unknown span {name:?}"))?;
            let parent = count(v, "parent")?.map(|p| p as usize);
            if parent.is_some_and(|p| p >= i) {
                return Err(format!("span {i} names a later parent"));
            }
            let (start_ns, end_ns) = (need(v, "start_ns")?, need(v, "end_ns")?);
            if end_ns < start_ns {
                return Err(format!("span {i} ends before it starts"));
            }
            Ok(Span {
                layer,
                start_ns,
                end_ns,
                parent,
                sim: count(v, "sim")?.map_or(u32::MAX, |s| s as u32),
                width: need(v, "width")? as u32,
                rep: need(v, "rep")? as u32,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_counts_width() {
        let span = |layer, start_ns, end_ns, parent, width| Span {
            layer,
            start_ns,
            end_ns,
            parent,
            sim: 0,
            width,
            rep: 0,
        };
        let spans = vec![
            span(Layer::Rep, 0, 100, None, 1),
            span(Layer::ParMap, 10, 90, Some(0), 2),
            span(Layer::ParItem, 10, 80, Some(1), 1),
            span(Layer::ParItem, 10, 60, Some(1), 1),
        ];
        let got: Vec<(Layer, f64)> = self_seconds(&spans)
            .into_iter()
            .filter(|(_, s)| *s != 0.0)
            .collect();
        assert_eq!(
            got,
            vec![
                (Layer::Rep, 20e-9),
                (Layer::ParMap, 40e-9),
                (Layer::ParItem, 120e-9)
            ]
        );
    }

    #[test]
    fn trace_document_round_trips() {
        let spans = vec![
            Span {
                layer: Layer::Sim,
                start_ns: 5,
                end_ns: 50,
                parent: None,
                sim: 3,
                width: 1,
                rep: 1,
            },
            Span {
                layer: Layer::CoreRun,
                start_ns: 7,
                end_ns: 40,
                parent: Some(0),
                sim: u32::MAX,
                width: 1,
                rep: 1,
            },
        ];
        assert_eq!(parse(&render("w", 9, &spans)), Ok(spans));
        assert!(parse("{\"schema\":\"other\",\"spans\":[]}").is_err());
    }
}
