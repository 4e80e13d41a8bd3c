//! The optimisation-configuration space of the paper's §II.
//!
//! An [`OptConfig`] selects one point in the space the paper explores
//! incrementally: windowing-system synchronisation, render target, texture
//! reuse, vertex sourcing, framebuffer invalidation, arithmetic precision
//! and compiler MAD fusion. [`OptConfig::baseline`] is the paper's
//! starting point — an implementation following OpenGL ES 2 best practices
//! [14][11] — and each builder method applies one optimisation.

use mgpu_gles::{BufferUsage, Engine};

use crate::encoding::Encoding;

/// Windowing-system synchronisation per kernel invocation (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncStrategy {
    /// `eglSwapBuffers` at the platform's default swap interval (vsync).
    #[default]
    SwapDefault,
    /// `eglSwapInterval(0)` then `eglSwapBuffers`: drain without the vsync
    /// wait.
    SwapInterval0,
    /// No `eglSwapBuffers` at all: maximum kernel-launch rate, for
    /// applications without visual output.
    NoSwap,
}

/// Where kernels render (paper Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RenderStrategy {
    /// Render to a texture through a framebuffer object (step 5 of Fig. 1);
    /// what the vendor guides recommend.
    #[default]
    Texture,
    /// Render to the window framebuffer, then `copy_tex_image_2d` the result
    /// out (steps 3–4 of Fig. 1). Benefits from the FB's double buffering.
    Framebuffer,
}

/// Vertex data sourcing (the paper's VBO optimisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VertexStrategy {
    /// Client-side arrays, copied by the driver on every draw.
    #[default]
    ClientArrays,
    /// A vertex buffer object with the given usage hint.
    Vbo(BufferUsage),
}

/// One point in the paper's optimisation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// Synchronisation strategy.
    pub sync: SyncStrategy,
    /// Render-target strategy.
    pub target: RenderStrategy,
    /// Reuse texture storage (`tex_sub_image_2d` / `copy_tex_sub_image_2d`)
    /// instead of allocating fresh storage every time (paper Fig. 5).
    pub texture_reuse: bool,
    /// Vertex sourcing.
    pub vertex: VertexStrategy,
    /// Invalidate the render target before each kernel (`glClear` /
    /// `EXT_discard_framebuffer`), skipping the tile reload of step 6.
    pub invalidate: bool,
    /// Data encoding / arithmetic precision (fp32 vs the paper's fp24).
    pub encoding: Encoding,
    /// Let the shader compiler fuse multiply-adds (kernel-code
    /// optimisation; off only for ablations).
    pub mad_fusion: bool,
    /// Host threads for functional fragment execution (`None` keeps the
    /// context's setting — `MGPU_THREADS` or the machine's parallelism).
    /// Purely a wall-clock knob: outputs and simulated timing are
    /// identical for every value.
    pub threads: Option<usize>,
    /// Fragment-engine tier for functional execution (`None` keeps the
    /// context's setting — `MGPU_ENGINE` or the compiled default). Like
    /// `threads`, purely a wall-clock knob: both engines are bit-exact.
    pub engine: Option<Engine>,
    /// Pooled dispatch with draw-plan caching vs the legacy per-draw
    /// `thread::scope` path (`None` keeps the context's setting —
    /// `MGPU_POOL` or pooled by default). Like `threads`, purely a
    /// wall-clock knob: both dispatchers are bit-exact.
    pub pool: Option<bool>,
    /// Bind-time uniform specialisation on the compiled tier (`None` keeps
    /// the context's setting — `MGPU_SPEC` or on by default). Like
    /// `threads`, purely a wall-clock knob: spec-on and spec-off are
    /// bit-exact.
    pub spec: Option<bool>,
    /// Tile-signature redundancy elimination (`None` keeps the context's
    /// setting — `MGPU_TILE_SKIP` or off by default). Bit-exact like the
    /// other execution knobs, but **not** timing-neutral: skipped tiles
    /// trade fragment shading for signature traffic in the simulated
    /// cost model, so steady-state multi-pass loops get faster.
    pub tile_skip: Option<bool>,
}

impl OptConfig {
    /// The paper's baseline: OpenGL ES 2 best practices — render to
    /// texture, fresh uploads, client arrays, cleared targets, vsync'd
    /// swaps, fp32.
    #[must_use]
    pub fn baseline() -> Self {
        OptConfig {
            sync: SyncStrategy::SwapDefault,
            target: RenderStrategy::Texture,
            texture_reuse: false,
            vertex: VertexStrategy::ClientArrays,
            invalidate: true,
            encoding: Encoding::Fp32,
            mad_fusion: true,
            threads: None,
            engine: None,
            pool: None,
            spec: None,
            tile_skip: None,
        }
    }

    /// Applies `eglSwapInterval(0)`.
    #[must_use]
    pub fn with_swap_interval_0(mut self) -> Self {
        self.sync = SyncStrategy::SwapInterval0;
        self
    }

    /// Removes `eglSwapBuffers` entirely.
    #[must_use]
    pub fn without_swap(mut self) -> Self {
        self.sync = SyncStrategy::NoSwap;
        self
    }

    /// Switches to framebuffer rendering + copy-out.
    #[must_use]
    pub fn with_framebuffer_rendering(mut self) -> Self {
        self.target = RenderStrategy::Framebuffer;
        self
    }

    /// Switches to render-to-texture.
    #[must_use]
    pub fn with_texture_rendering(mut self) -> Self {
        self.target = RenderStrategy::Texture;
        self
    }

    /// Enables texture storage reuse.
    #[must_use]
    pub fn with_texture_reuse(mut self) -> Self {
        self.texture_reuse = true;
        self
    }

    /// Uses a VBO with the given hint.
    #[must_use]
    pub fn with_vbo(mut self, usage: BufferUsage) -> Self {
        self.vertex = VertexStrategy::Vbo(usage);
        self
    }

    /// Switches to the fp24 encoding (3-byte I/O + `mul24` arithmetic).
    #[must_use]
    pub fn with_fp24(mut self) -> Self {
        self.encoding = Encoding::Fp24;
        self
    }

    /// Disables target invalidation (pays the step-6 tile reload).
    #[must_use]
    pub fn without_invalidate(mut self) -> Self {
        self.invalidate = false;
        self
    }

    /// Disables MAD fusion in the kernel compiler (ablation).
    #[must_use]
    pub fn without_mad_fusion(mut self) -> Self {
        self.mad_fusion = false;
        self
    }

    /// Pins functional execution to `threads` host threads (`1` forces
    /// the serial path).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Pins functional execution to the given fragment-engine tier.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Pins the dispatcher: pooled + plan-cached (`true`) or the legacy
    /// per-draw scope-spawn path (`false`).
    #[must_use]
    pub fn with_pool(mut self, pool: bool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Pins bind-time uniform specialisation on (`true`) or off (`false`)
    /// for the compiled tier.
    #[must_use]
    pub fn with_specialization(mut self, spec: bool) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Pins tile-signature redundancy elimination on (`true`) or off
    /// (`false`). Outputs stay byte-identical either way; simulated time
    /// improves when multi-pass loops re-shade unchanged tiles.
    #[must_use]
    pub fn with_tile_skip(mut self, tile_skip: bool) -> Self {
        self.tile_skip = Some(tile_skip);
        self
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_best_practices() {
        let b = OptConfig::baseline();
        assert_eq!(b.sync, SyncStrategy::SwapDefault);
        assert_eq!(b.target, RenderStrategy::Texture);
        assert!(!b.texture_reuse);
        assert!(b.invalidate);
        assert_eq!(b.encoding, Encoding::Fp32);
    }

    #[test]
    fn builders_compose_the_paper_chain() {
        // The paper's incremental order for sum: interval 0 -> no swap ->
        // fp24.
        let cfg = OptConfig::baseline()
            .with_swap_interval_0()
            .without_swap()
            .with_fp24();
        assert_eq!(cfg.sync, SyncStrategy::NoSwap);
        assert_eq!(cfg.encoding, Encoding::Fp24);
        // Untouched knobs keep baseline values.
        assert_eq!(cfg.target, RenderStrategy::Texture);
    }
}
