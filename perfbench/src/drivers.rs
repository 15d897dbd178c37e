//! One driver per simulated program. Each replays the call sequence of
//! the matching `Benchmark::run_on` in `vortex-kernels`/`vortex-gfx`
//! (same allocation order, so the same device addresses and cycles) but
//! makes every call itself, so each one can be timed at its layer
//! boundary.

use crate::trace::{Layer, Rec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex_core::{GpuConfig, GpuStats};
use vortex_gfx::binning::{TileBins, TILE_PIXELS};
use vortex_gfx::raster::{self, rasterize_host_with_jobs, records_to_bytes};
use vortex_gfx::{process_geometry, Framebuffer, Mat4, RenderState, Vertex};
use vortex_kernels::rodinia::{bfs, gaussian, nearn, saxpy, sfilter, sgemm, vecadd};
use vortex_kernels::texture::{self, build_texture_with_mips};
use vortex_kernels::util::{approx_eq_slices, floats_to_bytes, random_floats, words_to_bytes};
use vortex_kernels::{FilterKind, TexBench};
use vortex_mem::Ram;
use vortex_runtime::{ArgWriter, Device, DeviceBuffer, RuntimeError};
use vortex_tex::{FilterMode, Rgba8, TexFormat, TexState, WrapMode};

/// The seed `vortex-kernels` draws every input from.
pub const KERNELS_SEED: u64 = 0x5EED_CAFE;

/// What one simulation produced.
#[derive(Debug, Clone)]
pub struct SimOut {
    /// Counters after the last launch (they accumulate across launches).
    pub stats: GpuStats,
    /// `true` when the device output matched the host reference.
    pub valid: bool,
}

/// A simulation's outcome; an `Err` is a failed simulation.
pub type SimResult = Result<SimOut, RuntimeError>;

/// A device plus the recorder its calls are timed into.
struct Session<'r> {
    dev: Device,
    rec: &'r mut Rec,
}

impl<'r> Session<'r> {
    fn open(rec: &'r mut Rec, config: &GpuConfig) -> Self {
        let dev = rec.call(Layer::RuntimeNew, || Device::new(config.clone()));
        Self { dev, rec }
    }

    fn dma<R>(&mut self, bytes: usize, f: impl FnOnce(&mut Device) -> R) -> R {
        self.rec.add_dma_bytes(bytes);
        let dev = &mut self.dev;
        self.rec.call(Layer::RuntimeDma, || f(dev))
    }

    fn alloc(&mut self, size: usize) -> Result<DeviceBuffer, RuntimeError> {
        let size = u32::try_from(size).expect("benchmark buffers fit the address space");
        self.dma(0, |d| d.alloc(size))
    }

    fn upload(&mut self, buf: DeviceBuffer, bytes: &[u8]) -> Result<(), RuntimeError> {
        self.dma(bytes.len(), |d| d.upload(buf, bytes))
    }

    /// Allocates a buffer for `words` and uploads them.
    fn upload_new_words(&mut self, words: &[u32]) -> Result<DeviceBuffer, RuntimeError> {
        let buf = self.alloc(words.len() * 4)?;
        self.dma(words.len() * 4, |d| d.upload(buf, &words_to_bytes(words)))?;
        Ok(buf)
    }

    /// Allocates a buffer for `floats` and uploads them.
    fn upload_new_floats(&mut self, floats: &[f32]) -> Result<DeviceBuffer, RuntimeError> {
        let buf = self.alloc(floats.len() * 4)?;
        self.dma(floats.len() * 4, |d| {
            d.upload(buf, &floats_to_bytes(floats))
        })?;
        Ok(buf)
    }

    fn args(&mut self, args: &ArgWriter) {
        self.dma(args.bytes().len(), |d| d.write_args(args));
    }

    fn load(&mut self, prog: &vortex_asm::Program) {
        self.dma(prog.to_bytes().len(), |d| d.load_program(prog));
    }

    fn run(&mut self, entry: u32) -> Result<GpuStats, RuntimeError> {
        Ok(self.rec.run_kernel(&mut self.dev, entry)?.stats)
    }

    fn bytes(&mut self, buf: DeviceBuffer) -> Result<Vec<u8>, RuntimeError> {
        self.dma(buf.size as usize, |d| d.download(buf))
    }

    fn words(&mut self, buf: DeviceBuffer) -> Result<Vec<u32>, RuntimeError> {
        self.dma(buf.size as usize, |d| d.download_words(buf))
    }

    fn floats(&mut self, buf: DeviceBuffer) -> Result<Vec<f32>, RuntimeError> {
        self.dma(buf.size as usize, |d| d.download_floats(buf))
    }

    fn check(&mut self, layer: Layer, f: impl FnOnce() -> bool) -> bool {
        self.rec.call(layer, f)
    }
}

/// `n` uniform floats in [0, 1) from `seed` — `vortex_kernels::util::
/// random_floats` with the seed as a parameter.
fn seeded_floats(seed: u64, n: usize) -> Vec<f32> {
    let mut r = StdRng::seed_from_u64(seed);
    (0..n).map(|_| r.random::<f32>()).collect()
}

/// `vortex_kernels::rodinia::bfs::generate_graph` with the seed as a
/// parameter: a random spanning tree plus `extra_degree` random edges per
/// node, both directions of every edge listed.
pub fn seeded_graph(seed: u64, nodes: usize, extra_degree: usize) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut srcs, mut dsts) = (Vec::new(), Vec::new());
    let mut push = |a: usize, b: usize| {
        let (a, b) = (a as u32, b as u32);
        srcs.extend([a, b]);
        dsts.extend([b, a]);
    };
    for v in 1..nodes {
        push(rng.random_range(0..v), v);
    }
    for v in 0..nodes {
        for _ in 0..extra_degree {
            let w = rng.random_range(0..nodes);
            if w != v {
                push(v, w);
            }
        }
    }
    (srcs, dsts)
}

/// sgemm over `n × n` matrices drawn from `seed`. Like the kernel crate,
/// both operands come from a fresh generator, so at [`KERNELS_SEED`] the
/// inputs are exactly the gate's.
pub fn sgemm(rec: &mut Rec, config: &GpuConfig, n: usize, seed: u64) -> SimResult {
    let (a, b) = rec.call(Layer::KernelsGen, || {
        (seeded_floats(seed, n * n), seeded_floats(seed, n * n))
    });
    let prog = rec.call(Layer::AsmBuild, sgemm::program);
    let mut s = Session::open(rec, config);
    let buf_a = s.upload_new_floats(&a)?;
    let buf_b = s.upload_new_floats(&b)?;
    let buf_c = s.alloc(n * n * 4)?;
    let mut args = ArgWriter::new();
    args.word(buf_a.addr)
        .word(buf_b.addr)
        .word(buf_c.addr)
        .word(n as u32);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let c = s.floats(buf_c)?;
    let valid = s.check(Layer::KernelsRef, || {
        approx_eq_slices(&c, &sgemm::reference(&a, &b, n), 1e-5)
    });
    Ok(SimOut { stats, valid })
}

/// Level-synchronous bfs over a graph drawn from `seed`, one launch per
/// level until no node is claimed.
pub fn bfs(
    rec: &mut Rec,
    config: &GpuConfig,
    nodes: usize,
    extra_degree: usize,
    seed: u64,
) -> SimResult {
    let (srcs, dsts) = rec.call(Layer::KernelsGen, || {
        seeded_graph(seed, nodes, extra_degree)
    });
    let prog = rec.call(Layer::AsmBuild, bfs::program);
    let m = srcs.len();
    let mut s = Session::open(rec, config);
    let buf_srcs = s.upload_new_words(&srcs)?;
    let buf_dsts = s.upload_new_words(&dsts)?;
    let buf_levels = s.alloc(nodes * 4)?;
    let buf_updated = s.alloc(4)?;
    let mut init = vec![u32::MAX; nodes];
    init[0] = 0;
    s.upload(buf_levels, &words_to_bytes(&init))?;
    s.load(&prog);
    let mut stats;
    let mut level = 0u32;
    loop {
        s.upload(buf_updated, &[0; 4])?;
        let mut args = ArgWriter::new();
        args.word(buf_srcs.addr)
            .word(buf_dsts.addr)
            .word(buf_levels.addr)
            .word(m as u32)
            .word(level)
            .word(buf_updated.addr);
        s.args(&args);
        stats = s.run(prog.entry)?;
        if s.words(buf_updated)?[0] == 0 {
            break;
        }
        level += 1;
        if level as usize > nodes {
            // More levels than nodes: the device never converges.
            return Ok(SimOut {
                stats,
                valid: false,
            });
        }
    }
    let got = s.words(buf_levels)?;
    let valid = s.check(Layer::KernelsRef, || {
        let expect = bfs::reference_bfs(&srcs, &dsts, nodes);
        got.iter().zip(&expect).all(|(&g, &e)| g as i32 == e) && got.len() == expect.len()
    });
    Ok(SimOut { stats, valid })
}

/// vecadd at the kernel crate's default size and inputs.
pub fn vecadd(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let n = vecadd::Vecadd::default().n;
    let (a, b) = rec.call(Layer::KernelsGen, || (random_floats(n), random_floats(n)));
    let prog = rec.call(Layer::AsmBuild, vecadd::program);
    let mut s = Session::open(rec, config);
    let buf_a = s.upload_new_floats(&a)?;
    let buf_b = s.upload_new_floats(&b)?;
    let buf_c = s.alloc(n * 4)?;
    let mut args = ArgWriter::new();
    args.word(buf_a.addr)
        .word(buf_b.addr)
        .word(buf_c.addr)
        .word(n as u32);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let c = s.floats(buf_c)?;
    let valid = s.check(Layer::KernelsRef, || {
        let expect: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        approx_eq_slices(&c, &expect, 1e-6)
    });
    Ok(SimOut { stats, valid })
}

/// saxpy at the kernel crate's default size, scalar and inputs.
pub fn saxpy(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let saxpy::Saxpy { n, alpha } = saxpy::Saxpy::default();
    let (x, y) = rec.call(Layer::KernelsGen, || (random_floats(n), random_floats(n)));
    let prog = rec.call(Layer::AsmBuild, saxpy::program);
    let mut s = Session::open(rec, config);
    let buf_x = s.upload_new_floats(&x)?;
    let buf_y = s.upload_new_floats(&y)?;
    let mut args = ArgWriter::new();
    args.word(buf_x.addr)
        .word(buf_y.addr)
        .word(n as u32)
        .float(alpha);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let got = s.floats(buf_y)?;
    let valid = s.check(Layer::KernelsRef, || {
        let expect: Vec<f32> = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| alpha.mul_add(*xi, *yi))
            .collect();
        approx_eq_slices(&got, &expect, 1e-6)
    });
    Ok(SimOut { stats, valid })
}

/// sfilter (3×3 box filter) at the kernel crate's default size and input.
pub fn sfilter(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let n = sfilter::Sfilter::default().n;
    let m = n - 2;
    let src = rec.call(Layer::KernelsGen, || random_floats(n * n));
    let prog = rec.call(Layer::AsmBuild, sfilter::program);
    let mut s = Session::open(rec, config);
    let buf_src = s.upload_new_floats(&src)?;
    let buf_dst = s.alloc(m * m * 4)?;
    let mut args = ArgWriter::new();
    args.word(buf_src.addr).word(buf_dst.addr).word(n as u32);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let got = s.floats(buf_dst)?;
    let valid = s.check(Layer::KernelsRef, || {
        approx_eq_slices(&got, &sfilter::reference(&src, n), 1e-5)
    });
    Ok(SimOut { stats, valid })
}

/// nearn (distance to a query point) at the kernel crate's defaults.
pub fn nearn(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let nearn::Nearn { n, lat, lng } = nearn::Nearn::default();
    let loc = rec.call(Layer::KernelsGen, || random_floats(n * 2));
    let prog = rec.call(Layer::AsmBuild, nearn::program);
    let mut s = Session::open(rec, config);
    let buf_loc = s.upload_new_floats(&loc)?;
    let buf_dist = s.alloc(n * 4)?;
    let mut args = ArgWriter::new();
    args.word(buf_loc.addr)
        .word(buf_dist.addr)
        .word(n as u32)
        .float(lat)
        .float(lng);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let got = s.floats(buf_dist)?;
    let valid = s.check(Layer::KernelsRef, || {
        let expect: Vec<f32> = loc
            .chunks_exact(2)
            .map(|p| {
                let (dlat, dlng) = (p[0] - lat, p[1] - lng);
                dlng.mul_add(dlng, dlat * dlat).sqrt()
            })
            .collect();
        approx_eq_slices(&got, &expect, 1e-6)
    });
    Ok(SimOut { stats, valid })
}

/// gaussian elimination at the kernel crate's default size: two launches
/// per pivot, back-substitution on the host.
pub fn gaussian(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let n = gaussian::Gaussian::default().n;
    // The crate's generator: a diagonally dominant system with a known
    // solution.
    let (a, b, x_true) = rec.call(Layer::KernelsGen, || {
        let mut a = random_floats(n * n);
        for i in 0..n {
            a[i * n + i] += n as f32;
        }
        let x_true: Vec<f32> = (0..n).map(|i| 1.0 + (i as f32) * 0.25).collect();
        let b: Vec<f32> = (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * x_true[c]).sum())
            .collect();
        (a, b, x_true)
    });
    let prog = rec.call(Layer::AsmBuild, gaussian::program);
    let mut s = Session::open(rec, config);
    let buf_a = s.upload_new_floats(&a)?;
    let buf_b = s.upload_new_floats(&b)?;
    let buf_m = s.alloc(n * 4)?;
    s.load(&prog);
    let mut stats = None;
    for k in 0..n - 1 {
        for phase in 0..2u32 {
            let mut args = ArgWriter::new();
            args.word(buf_a.addr)
                .word(buf_b.addr)
                .word(buf_m.addr)
                .word(n as u32)
                .word(k as u32)
                .word(phase);
            s.args(&args);
            stats = Some(s.run(prog.entry)?);
        }
    }
    let a_out = s.floats(buf_a)?;
    let b_out = s.floats(buf_b)?;
    let valid = s.check(Layer::KernelsRef, || {
        let mut x = vec![0.0f32; n];
        for r in (0..n).rev() {
            let mut acc = b_out[r];
            for c in r + 1..n {
                acc -= a_out[r * n + c] * x[c];
            }
            x[r] = acc / a_out[r * n + r];
        }
        approx_eq_slices(&x, &x_true, 2e-3)
    });
    let stats = stats.expect("gaussian sizes launch at least once");
    Ok(SimOut { stats, valid })
}

/// The texture benchmark the gates pin: hardware bilinear filtering of a
/// 64×64 texture into an equal-sized target.
pub fn texture(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    let bench = TexBench::new(FilterKind::Bilinear, true, 6);
    let size = 1usize << bench.log_size;
    let tex_bytes = rec.call(Layer::KernelsGen, || {
        build_texture_with_mips(bench.log_size)
    });
    let prog = rec.call(Layer::AsmBuild, || texture::program(&bench));
    let mut s = Session::open(rec, config);
    let buf_tex = s.alloc(tex_bytes.len())?;
    let buf_dst = s.alloc(size * size * 4)?;
    s.upload(buf_tex, &tex_bytes)?;
    let mip1_off = (size * size * 4) as u32;
    let mut args = ArgWriter::new();
    args.word(buf_tex.addr)
        .word(bench.log_size)
        .word(buf_dst.addr)
        .word(1) // bilinear
        .float(0.0)
        .word(0)
        .word(buf_tex.addr + mip1_off);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let got = s.words(buf_dst)?;
    let valid = s.check(Layer::KernelsRef, || {
        let state = TexState {
            addr: 0,
            mipoff: 1,
            log_width: bench.log_size,
            log_height: bench.log_size,
            format: TexFormat::Rgba8,
            ..TexState::default()
        };
        let mut ram = Ram::new();
        ram.write_bytes(0, &tex_bytes);
        let inv = 1.0 / size as f32;
        got.iter().enumerate().all(|(i, &px)| {
            let (x, y) = ((i % size) as f32, (i / size) as f32);
            let expect =
                vortex_tex::sample_bilinear(&ram, &state, (x + 0.5) * inv, (y + 0.5) * inv, 0);
            px == expect.to_u32()
        })
    });
    Ok(SimOut { stats, valid })
}

/// One small frame of the `RasterBench` scene: the first 12 triangles of
/// its seeded depth-tested, hardware-textured soup at 64×64. (The 128×128
/// gate frame costs as much host time as the rest of the sweep together,
/// so where it landed in the worker order would decide the sweep's wall
/// time.)
pub fn raster(rec: &mut Rec, config: &GpuConfig) -> SimResult {
    const W: usize = 64;
    const H: usize = 64;
    const TRIS: usize = 12;
    const TEX_LOG: u32 = 5;
    let state = RenderState {
        texturing: true,
        hw_texture: true,
        ..RenderState::default()
    };
    let (vertices, indices, texels) = rec.call(Layer::KernelsGen, || {
        let r = random_floats(TRIS * 9);
        let vertices: Vec<Vertex> = r
            .chunks_exact(3)
            .map(|p| {
                let x = p[0].mul_add(1.8, -0.9);
                let y = p[1].mul_add(1.8, -0.9);
                let z = p[2].mul_add(1.6, -0.8);
                Vertex::new(x, y, z, p[0], p[1])
            })
            .collect();
        let indices: Vec<u32> = (0..(TRIS * 3) as u32).collect();
        let tex = vortex_gfx::pipeline::Texture::checkerboard(
            TEX_LOG,
            Rgba8::WHITE,
            Rgba8::new(40, 90, 160, 255),
            4,
        );
        (vertices, indices, tex.data)
    });
    let setups = rec.call(Layer::GfxGeometry, || {
        process_geometry(&vertices, &indices, &Mat4::IDENTITY, W, H)
    });
    let (bins, tile_idx, tile_counts, records) = rec.call(Layer::GfxBinning, || {
        let bins = TileBins::build(&setups, W, H);
        let (idx, counts) = bins.to_device_arrays();
        (bins, idx, counts, records_to_bytes(&setups))
    });
    let prog = rec.call(Layer::AsmBuild, || raster::program(&state));
    let px = W * H;
    let mut s = Session::open(rec, config);
    let color_buf = s.alloc(px * 4)?;
    let depth_buf = s.alloc(px * 4)?;
    s.upload(color_buf, &words_to_bytes(&vec![Rgba8::BLACK.to_u32(); px]))?;
    s.upload(depth_buf, &floats_to_bytes(&vec![1.0; px]))?;
    let stencil_buf = s.alloc(px)?;
    s.upload(stencil_buf, &vec![0; px])?;
    let rec_buf = s.alloc(records.len().max(4))?;
    s.upload(rec_buf, &records)?;
    let idx_buf = s.alloc((tile_idx.len() * 4).max(4))?;
    s.upload(idx_buf, &words_to_bytes(&tile_idx))?;
    let cnt_buf = s.upload_new_words(&tile_counts)?;
    let tex_buf = s.alloc(texels.len())?;
    s.upload(tex_buf, &texels)?;
    let mut args = ArgWriter::new();
    args.word(color_buf.addr)
        .word(depth_buf.addr)
        .word(rec_buf.addr)
        .word(idx_buf.addr)
        .word(cnt_buf.addr)
        .word(bins.tiles_x as u32)
        .word(bins.max_tris().max(1) as u32)
        .word(W as u32)
        .word(tex_buf.addr)
        .word(TEX_LOG)
        .word((bins.num_tiles() * TILE_PIXELS) as u32)
        .word(stencil_buf.addr)
        .word(H as u32);
    s.args(&args);
    s.load(&prog);
    let stats = s.run(prog.entry)?;
    let color = s.words(color_buf)?;
    let depth = s.floats(depth_buf)?;
    s.bytes(stencil_buf)?;
    let valid = s.check(Layer::GfxHostRef, || {
        let mut fb = Framebuffer::new(W, H, Rgba8::BLACK);
        let mut ram = Ram::new();
        ram.write_bytes(0, &texels);
        let tex_state = TexState {
            addr: 0,
            mipoff: 0,
            log_width: TEX_LOG,
            log_height: TEX_LOG,
            format: TexFormat::Rgba8,
            wrap_u: WrapMode::Clamp,
            wrap_v: WrapMode::Clamp,
            filter: FilterMode::Bilinear,
        };
        // One host thread: the sweep already runs one simulation per
        // available CPU.
        rasterize_host_with_jobs(&mut fb, &setups, &bins, &state, Some((&ram, &tex_state)), 1);
        fb.color == color
            && fb.depth.len() == depth.len()
            && fb
                .depth
                .iter()
                .zip(&depth)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    Ok(SimOut { stats, valid })
}
