//! The full rendering pipeline: host geometry + device rasterization.

use crate::binning::{TileBins, TILE_PIXELS};
use crate::fb::Framebuffer;
use crate::geometry::{process_geometry, Vertex};
use crate::math::Mat4;
use crate::raster::{self, records_to_bytes};
use crate::state::RenderState;
use vortex_core::{GpuConfig, GpuStats};
use vortex_mem::Ram;
use vortex_runtime::{ArgWriter, Device};
use vortex_tex::{FilterMode, Rgba8, TexFormat, TexState, WrapMode};

/// A bound texture (square RGBA8, no mips — the renderer's level-0 path).
#[derive(Debug, Clone)]
pub struct Texture {
    /// log2 of the side length.
    pub log_size: u32,
    /// RGBA8 texels, row-major.
    pub data: Vec<u8>,
}

impl Texture {
    /// Builds a texture from packed RGBA8 pixels.
    ///
    /// # Panics
    /// Panics unless `data.len() == 4 << (2 * log_size)`.
    pub fn new(log_size: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            4usize << (2 * log_size),
            "texture data size mismatch"
        );
        Self { log_size, data }
    }

    /// A procedural checkerboard (handy for examples and tests).
    pub fn checkerboard(log_size: u32, a: Rgba8, b: Rgba8, cell: usize) -> Self {
        let size = 1usize << log_size;
        let mut data = Vec::with_capacity(size * size * 4);
        for y in 0..size {
            for x in 0..size {
                let c = if ((x / cell) + (y / cell)).is_multiple_of(2) { a } else { b };
                data.extend_from_slice(&c.to_u32().to_le_bytes());
            }
        }
        Self { log_size, data }
    }

    fn state(&self, addr: u32) -> TexState {
        TexState {
            addr,
            mipoff: 0,
            log_width: self.log_size,
            log_height: self.log_size,
            format: TexFormat::Rgba8,
            wrap_u: WrapMode::Clamp,
            wrap_v: WrapMode::Clamp,
            filter: FilterMode::Bilinear,
        }
    }
}

/// What a device render produced.
#[derive(Debug)]
pub struct RenderReport {
    /// The read-back framebuffer.
    pub framebuffer: Framebuffer,
    /// Device counters for the rasterization kernel.
    pub stats: GpuStats,
    /// Triangles that survived the geometry stage.
    pub triangles: usize,
}

/// The renderer: owns a device and renders indexed triangle lists.
#[derive(Debug)]
pub struct Renderer {
    device: Device,
    width: usize,
    height: usize,
    clear_color: Rgba8,
    /// Stencil contents carried across draws (multi-pass stencil effects).
    stencil_seed: Vec<u8>,
}

impl Renderer {
    /// Creates a renderer with a `width × height` target on a GPU of the
    /// given shape. Dimensions need not be tile-size multiples — the tile
    /// grid rounds up and out-of-frame pixels are guarded, so full-frame
    /// targets like 1920×1080 work.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(config: GpuConfig, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Self {
            device: Device::new(config),
            width,
            height,
            clear_color: Rgba8::BLACK,
            stencil_seed: vec![0; width * height],
        }
    }

    /// The device's sampled telemetry from the last draw, when the
    /// renderer's `GpuConfig` enabled sampling.
    pub fn time_series(&self) -> Option<&vortex_core::telemetry::TimeSeries> {
        self.device.time_series()
    }

    /// The device's merged PC-level profile, when the renderer's
    /// `GpuConfig` enabled the profiler. Accumulates across draws.
    pub fn profile(&self) -> Option<vortex_core::profile::GpuProfile> {
        self.device.profile()
    }

    /// Resets the persistent stencil plane to zero (a stencil clear).
    pub fn clear_stencil(&mut self) {
        self.stencil_seed.fill(0);
    }

    /// Sets the clear color.
    pub fn set_clear_color(&mut self, color: Rgba8) {
        self.clear_color = color;
    }

    /// Renders one indexed triangle list on the device and reads back the
    /// framebuffer.
    ///
    /// # Panics
    /// Panics if `state.texturing` is set without a `texture`, or on
    /// device errors (allocation, timeout) — this API is an experiment
    /// harness, not a resilient driver.
    pub fn draw(
        &mut self,
        vertices: &[Vertex],
        indices: &[u32],
        mvp: &Mat4,
        state: &RenderState,
        texture: Option<&Texture>,
    ) -> RenderReport {
        // --- Host geometry + binning (paper: geometry on the host). ----
        let setups = process_geometry(vertices, indices, mvp, self.width, self.height);
        let bins = TileBins::build(&setups, self.width, self.height);
        let (tile_idx, tile_counts) = bins.to_device_arrays();
        let max_tris = bins.max_tris().max(1);

        // --- Device buffers. -------------------------------------------
        let px = self.width * self.height;
        let dev = &mut self.device;
        let color_buf = dev.alloc((px * 4) as u32).expect("alloc color");
        let depth_buf = dev.alloc((px * 4) as u32).expect("alloc depth");
        let clear: Vec<u8> = std::iter::repeat_n(self.clear_color.to_u32().to_le_bytes(), px)
            .flatten()
            .collect();
        dev.upload(color_buf, &clear).expect("clear color");
        let far: Vec<u8> = std::iter::repeat_n(1.0f32.to_bits().to_le_bytes(), px)
            .flatten()
            .collect();
        dev.upload(depth_buf, &far).expect("clear depth");
        let stencil_buf = dev.alloc(px as u32).expect("alloc stencil");
        dev.upload(stencil_buf, &self.stencil_seed).expect("clear stencil");

        let rec_bytes = records_to_bytes(&setups);
        let rec_buf = dev
            .alloc(rec_bytes.len().max(4) as u32)
            .expect("alloc records");
        dev.upload(rec_buf, &rec_bytes).expect("upload records");
        let idx_bytes: Vec<u8> = tile_idx.iter().flat_map(|w| w.to_le_bytes()).collect();
        let idx_buf = dev.alloc(idx_bytes.len().max(4) as u32).expect("alloc idx");
        dev.upload(idx_buf, &idx_bytes).expect("upload idx");
        let cnt_bytes: Vec<u8> = tile_counts.iter().flat_map(|w| w.to_le_bytes()).collect();
        let cnt_buf = dev.alloc(cnt_bytes.len() as u32).expect("alloc counts");
        dev.upload(cnt_buf, &cnt_bytes).expect("upload counts");

        let (tex_addr, tex_log) = match texture {
            Some(t) => {
                let buf = dev.alloc(t.data.len() as u32).expect("alloc texture");
                dev.upload(buf, &t.data).expect("upload texture");
                (buf.addr, t.log_size)
            }
            None => {
                assert!(!state.texturing, "texturing enabled without a texture");
                (0, 0)
            }
        };

        // --- Launch. -----------------------------------------------------
        let total_pixels = bins.num_tiles() * TILE_PIXELS;
        let mut args = ArgWriter::new();
        args.word(color_buf.addr)
            .word(depth_buf.addr)
            .word(rec_buf.addr)
            .word(idx_buf.addr)
            .word(cnt_buf.addr)
            .word(bins.tiles_x as u32)
            .word(max_tris as u32)
            .word(self.width as u32)
            .word(tex_addr)
            .word(tex_log)
            .word(total_pixels as u32)
            .word(stencil_buf.addr)
            .word(self.height as u32);
        dev.write_args(&args);
        let prog = raster::program(state);
        dev.load_program(&prog);
        let report = dev.run_kernel(prog.entry).expect("raster kernel finishes");

        // --- Read back. ---------------------------------------------------
        let mut fb = Framebuffer::new(self.width, self.height, self.clear_color);
        fb.color = dev.download_words(color_buf).expect("download in range");
        fb.depth = dev.download_floats(depth_buf).expect("download in range");
        fb.stencil = dev.download(stencil_buf).expect("download in range");
        self.stencil_seed = fb.stencil.clone();
        RenderReport {
            framebuffer: fb,
            stats: report.stats,
            triangles: setups.len(),
        }
    }

    /// Pure host-side rendering of the same draw (the validation oracle
    /// and CPU fallback). Note: unlike [`Renderer::draw`], this does not
    /// mutate the persistent stencil plane — use [`Renderer::draw_host_mut`]
    /// for multi-pass stencil validation.
    pub fn draw_host(
        &self,
        vertices: &[Vertex],
        indices: &[u32],
        mvp: &Mat4,
        state: &RenderState,
        texture: Option<&Texture>,
    ) -> Framebuffer {
        self.draw_host_profiled(vertices, indices, mvp, state, texture).0
    }

    /// [`Renderer::draw_host`] that also returns the frame's per-tile
    /// [`RasterProfile`](raster::RasterProfile) (tris binned, fragments covered/shaded, texture
    /// samples) for observability exports.
    pub fn draw_host_profiled(
        &self,
        vertices: &[Vertex],
        indices: &[u32],
        mvp: &Mat4,
        state: &RenderState,
        texture: Option<&Texture>,
    ) -> (Framebuffer, raster::RasterProfile) {
        let setups = process_geometry(vertices, indices, mvp, self.width, self.height);
        let bins = TileBins::build(&setups, self.width, self.height);
        let mut fb = Framebuffer::new(self.width, self.height, self.clear_color);
        let storage;
        let tex_ref = match texture {
            Some(t) => {
                let mut ram = Ram::new();
                ram.write_bytes(0, &t.data);
                storage = (ram, t.state(0));
                Some((&storage.0, &storage.1))
            }
            None => None,
        };
        fb.stencil = self.stencil_seed.clone();
        let profile = raster::rasterize_host(&mut fb, &setups, &bins, state, tex_ref);
        (fb, profile)
    }

    /// Host-side rendering that also persists stencil changes on the
    /// renderer, mirroring the device path's multi-pass behaviour.
    pub fn draw_host_mut(
        &mut self,
        vertices: &[Vertex],
        indices: &[u32],
        mvp: &Mat4,
        state: &RenderState,
        texture: Option<&Texture>,
    ) -> Framebuffer {
        let fb = self.draw_host(vertices, indices, mvp, state, texture);
        self.stencil_seed = fb.stencil.clone();
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> (Vec<Vertex>, Vec<u32>) {
        (
            vec![
                Vertex::new(-0.8, -0.8, 0.0, 0.0, 0.0),
                Vertex::new(0.8, -0.8, 0.0, 1.0, 0.0),
                Vertex::new(0.8, 0.8, 0.0, 1.0, 1.0),
                Vertex::new(-0.8, 0.8, 0.0, 0.0, 1.0),
            ],
            vec![0, 1, 2, 0, 2, 3],
        )
    }

    #[test]
    fn flat_quad_renders_identically_on_device_and_host() {
        let (v, i) = quad();
        let v: Vec<Vertex> = v
            .into_iter()
            .map(|vx| vx.with_color(Rgba8::new(200, 40, 10, 255)))
            .collect();
        let mut r = Renderer::new(GpuConfig::with_cores(1), 32, 32);
        let state = RenderState::default();
        let report = r.draw(&v, &i, &Mat4::IDENTITY, &state, None);
        let host = r.draw_host(&v, &i, &Mat4::IDENTITY, &state, None);
        assert_eq!(report.triangles, 2);
        assert_eq!(report.framebuffer.color, host.color, "device == host");
        assert_eq!(
            report.framebuffer.pixel(16, 16),
            Rgba8::new(200, 40, 10, 255)
        );
        assert_eq!(report.framebuffer.pixel(0, 0), Rgba8::BLACK);
        assert!(report.framebuffer.coverage(Rgba8::BLACK) > 0.5);
    }

    #[test]
    fn depth_test_orders_overlapping_triangles() {
        // A near quad drawn *after* a far quad must win with depth testing.
        let (mut v, mut i) = quad();
        let far: Vec<Vertex> = quad()
            .0
            .into_iter()
            .map(|vx| {
                let mut m = vx.with_color(Rgba8::new(0, 255, 0, 255));
                m.pos.z = 0.5; // farther
                m
            })
            .collect();
        let near: Vec<Vertex> = v
            .drain(..)
            .map(|vx| {
                let mut m = vx.with_color(Rgba8::new(255, 0, 0, 255));
                m.pos.z = -0.5; // nearer
                m
            })
            .collect();
        // Draw far after near: depth test must keep the near color.
        let mut verts = near;
        let base = verts.len() as u32;
        verts.extend(far);
        i.extend([base, base + 1, base + 2, base, base + 2, base + 3]);
        let mut r = Renderer::new(GpuConfig::with_cores(1), 32, 32);
        let report = r.draw(&verts, &i, &Mat4::IDENTITY, &RenderState::default(), None);
        assert_eq!(
            report.framebuffer.pixel(16, 16),
            Rgba8::new(255, 0, 0, 255),
            "near triangle wins"
        );
    }

    #[test]
    fn textured_quad_matches_host_with_hw_sampling() {
        let (v, i) = quad();
        let tex = Texture::checkerboard(4, Rgba8::WHITE, Rgba8::new(30, 30, 30, 255), 4);
        let state = RenderState {
            texturing: true,
            hw_texture: true,
            ..RenderState::default()
        };
        let mut r = Renderer::new(GpuConfig::with_cores(1), 32, 32);
        let report = r.draw(&v, &i, &Mat4::IDENTITY, &state, Some(&tex));
        let host = r.draw_host(&v, &i, &Mat4::IDENTITY, &state, Some(&tex));
        assert_eq!(report.framebuffer.color, host.color);
        assert!(report.stats.cores[0].tex_ops > 0, "tex instruction used");
    }

    #[test]
    fn textured_quad_matches_host_with_sw_sampling() {
        let (v, i) = quad();
        let tex = Texture::checkerboard(4, Rgba8::WHITE, Rgba8::BLACK, 4);
        let state = RenderState {
            texturing: true,
            hw_texture: false,
            ..RenderState::default()
        };
        let mut r = Renderer::new(GpuConfig::with_cores(1), 32, 32);
        let report = r.draw(&v, &i, &Mat4::IDENTITY, &state, Some(&tex));
        let host = r.draw_host(&v, &i, &Mat4::IDENTITY, &state, Some(&tex));
        assert_eq!(report.framebuffer.color, host.color);
        assert_eq!(report.stats.cores[0].tex_ops, 0, "no tex instruction");
    }
}
