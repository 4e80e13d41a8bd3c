//! The GPGPU operators: streaming sum, saxpy, blocked sgemm and image
//! convolution.
//!
//! All operators share the [`OutputChain`]: a double-buffered pair of
//! result textures plus a framebuffer object, which realises the paper's
//! §III/§IV output scheme under every [`OptConfig`] point:
//!
//! * **texture rendering** — render into one chain texture while the other
//!   is readable (OpenGL ES 2 forbids sampling the render target);
//! * **framebuffer rendering** — render to the window surface and copy the
//!   result out with `copy_tex_image_2d` (fresh storage every pass) or
//!   `copy_tex_sub_image_2d` (reused storage, the Fig. 5b false-sharing
//!   case);
//! * **invalidation** — `EXT_discard_framebuffer` before each pass unless
//!   disabled.

mod conv;
mod dot;
mod jacobi;
mod reduce;
mod saxpy;
mod sgemm;
mod sum;
mod transpose;

pub use conv::Convolution3x3;
pub use dot::DotProduct;
pub use jacobi::{JacobiBuilder, JacobiSolver};
pub use reduce::Reduction;
pub use saxpy::Saxpy;
pub use sgemm::Sgemm;
pub use sum::{Sum, SumBuilder};
pub use transpose::Transpose;

use mgpu_gles::{DrawQuad, Gl, GlError, TextureFormat, TextureId};
use mgpu_tbdr::SimTime;

use crate::config::{OptConfig, RenderStrategy, SyncStrategy, VertexStrategy};
use crate::error::GpgpuError;

/// Estimated CPU throughput of the float↔byte conversions (encode/decode),
/// charged as application CPU time against the frame that uploads the data.
const CONVERT_BANDWIDTH_BYTES_PER_SEC: f64 = 500.0 * 1024.0 * 1024.0;

/// Simulated CPU time to convert `bytes` of encoded data.
pub(crate) fn convert_cost(bytes: u64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / CONVERT_BANDWIDTH_BYTES_PER_SEC)
}

/// Applies the configured swap interval and host-execution threading once
/// at operator setup.
pub(crate) fn apply_setup(gl: &mut Gl, cfg: &OptConfig) {
    match cfg.sync {
        SyncStrategy::SwapDefault => {
            let d = gl.platform().default_swap_interval;
            gl.swap_interval(d);
        }
        SyncStrategy::SwapInterval0 => gl.swap_interval(0),
        SyncStrategy::NoSwap => {}
    }
    if cfg.threads.is_some()
        || cfg.engine.is_some()
        || cfg.spec.is_some()
        || cfg.tile_skip.is_some()
    {
        // Compose onto the context's current configuration so pinning one
        // knob never clobbers the others.
        let mut exec = gl.exec_config();
        if let Some(threads) = cfg.threads {
            exec = exec.with_thread_count(threads);
        }
        if let Some(engine) = cfg.engine {
            exec = exec.with_engine(engine);
        }
        if let Some(spec) = cfg.spec {
            exec = exec.with_specialization(spec);
        }
        if let Some(tile_skip) = cfg.tile_skip {
            exec = exec.with_tile_skip(tile_skip);
        }
        gl.set_exec_config(exec);
    }
}

/// Ends one kernel invocation according to the sync strategy.
pub(crate) fn end_pass(gl: &mut Gl, cfg: &OptConfig) -> Result<(), GlError> {
    match cfg.sync {
        SyncStrategy::NoSwap => {
            gl.flush();
            Ok(())
        }
        _ => gl.swap_buffers(),
    }
}

/// Builds the draw call for the configured vertex strategy.
pub(crate) fn quad_for(cfg: &OptConfig, vbo: Option<mgpu_gles::BufferId>, label: &str) -> DrawQuad {
    let quad = DrawQuad::fullscreen().with_label(label);
    match (cfg.vertex, vbo) {
        (VertexStrategy::Vbo(_), Some(b)) => {
            quad.with_vertex_source(mgpu_gles::VertexSource::Vbo(b))
        }
        _ => quad,
    }
}

/// Issues `quad` as `bands` row-band sub-draws over a target of `height`
/// rows (one plain draw when `bands <= 1`) — the watchdog degradation rung.
/// Band sub-draws are bit-identical to the full draw because fragment
/// coordinates are derived from the global row index.
pub(crate) fn draw_banded(
    gl: &mut Gl,
    quad: &DrawQuad,
    bands: u32,
    height: u32,
) -> Result<(), GlError> {
    if bands <= 1 || height == 0 {
        return gl.draw_quad(quad);
    }
    let bands = bands.min(height);
    let rows = height.div_ceil(bands);
    let mut y0 = 0u32;
    while y0 < height {
        let y1 = (y0 + rows).min(height);
        gl.draw_quad(&quad.clone().with_row_band(y0, y1))?;
        y0 = y1;
    }
    Ok(())
}

/// Creates the VBO for the configured vertex strategy, if any.
pub(crate) fn vbo_for(
    gl: &mut Gl,
    cfg: &OptConfig,
    varyings: u64,
) -> Result<Option<mgpu_gles::BufferId>, GlError> {
    match cfg.vertex {
        VertexStrategy::ClientArrays => Ok(None),
        VertexStrategy::Vbo(usage) => {
            let vbo = gl.create_buffer();
            gl.buffer_data(vbo, 4 * (8 + varyings * 8), usage)?;
            Ok(Some(vbo))
        }
    }
}

/// Double-buffered result textures + FBO shared by all operators.
#[derive(Debug)]
pub(crate) struct OutputChain {
    textures: [TextureId; 2],
    fbo: mgpu_gles::FramebufferId,
    /// Index of the texture holding the latest result.
    idx: usize,
    size: u32,
    format: TextureFormat,
    allocated: [bool; 2],
}

impl OutputChain {
    pub(crate) fn new(gl: &mut Gl, size: u32, format: TextureFormat) -> Self {
        OutputChain {
            textures: [gl.create_texture(), gl.create_texture()],
            fbo: gl.create_framebuffer(),
            idx: 0,
            size,
            format,
            allocated: [false; 2],
        }
    }

    /// The texture holding the latest result.
    pub(crate) fn latest(&self) -> TextureId {
        self.textures[self.idx]
    }

    /// Uploads initial contents into the latest-result slot.
    pub(crate) fn seed(&mut self, gl: &mut Gl, data: &[u8]) -> Result<(), GlError> {
        gl.tex_image_2d(
            self.textures[self.idx],
            self.size,
            self.size,
            self.format,
            Some(data),
        )?;
        self.allocated[self.idx] = true;
        Ok(())
    }

    /// Runs one pass: sets up the render target per the configuration,
    /// invokes `draw`, performs the copy-out on the framebuffer path, and
    /// flips the chain. After this call, [`OutputChain::latest`] is the
    /// texture the pass produced.
    pub(crate) fn render_pass(
        &mut self,
        gl: &mut Gl,
        cfg: &OptConfig,
        draw: impl FnOnce(&mut Gl) -> Result<(), GlError>,
    ) -> Result<(), GpgpuError> {
        self.render_pass_with_copy(gl, cfg, None, draw)
    }

    /// [`OutputChain::render_pass`] that additionally copies the pass's
    /// freshly produced output into `copy_out` (when given) *before* the
    /// end-of-pass swap/flush — the retained-output hook deep pipelines
    /// use so a later pass can sample an intermediate result that the
    /// double-buffered chain would otherwise overwrite.
    pub(crate) fn render_pass_with_copy(
        &mut self,
        gl: &mut Gl,
        cfg: &OptConfig,
        copy_out: Option<TextureId>,
        draw: impl FnOnce(&mut Gl) -> Result<(), GlError>,
    ) -> Result<(), GpgpuError> {
        let next = 1 - self.idx;
        match cfg.target {
            RenderStrategy::Texture => {
                // Fresh storage unless reusing (renders into `next`).
                if !cfg.texture_reuse || !self.allocated[next] {
                    gl.tex_image_2d(self.textures[next], self.size, self.size, self.format, None)?;
                    self.allocated[next] = true;
                }
                gl.bind_framebuffer(Some(self.fbo))?;
                gl.framebuffer_texture_2d(self.textures[next])?;
                if cfg.invalidate {
                    gl.discard_framebuffer()?;
                }
                draw(gl)?;
                // The FBO still targets the just-written texture, so the
                // retained copy reads straight from the render target.
                if let Some(keep) = copy_out {
                    gl.copy_tex_image_2d(keep, self.format)?;
                }
            }
            RenderStrategy::Framebuffer => {
                gl.bind_framebuffer(None)?;
                if cfg.invalidate {
                    gl.discard_framebuffer()?;
                }
                draw(gl)?;
                if cfg.texture_reuse && self.allocated[next] {
                    gl.copy_tex_sub_image_2d(self.textures[next])?;
                } else {
                    gl.copy_tex_image_2d(self.textures[next], self.format)?;
                    self.allocated[next] = true;
                }
                // Copy before the swap rotates the surface away.
                if let Some(keep) = copy_out {
                    gl.copy_tex_image_2d(keep, self.format)?;
                }
            }
        }
        self.idx = next;
        end_pass(gl, cfg)?;
        Ok(())
    }

    /// Reads back and returns the latest result's bytes (synchronising,
    /// counted as a readback by the fault injector).
    pub(crate) fn read_latest(&self, gl: &mut Gl) -> Result<Vec<u8>, GlError> {
        gl.read_texture(self.latest())
    }
}

/// Validates that an operator's data size matches `n * n` and the window
/// surface (the framebuffer path renders full-surface).
pub(crate) fn check_size(gl: &Gl, n: u32, data_len: usize, what: &str) -> Result<(), GpgpuError> {
    if data_len != (n as usize) * (n as usize) {
        return Err(GpgpuError::Config(format!(
            "{what} has {data_len} elements, expected {n}x{n}"
        )));
    }
    let _ = gl;
    Ok(())
}
