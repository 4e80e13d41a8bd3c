//! The fragment interpreter: executes compiled IR for one fragment at a
//! time, exactly as the simulated GPU's fragment unit would.

use std::collections::HashMap;

use crate::error::ExecError;
use crate::ir::{CmpOp, InputKind, Op, Reg, Shader};

/// Precomputed u8 → `[0, 1]` float table: entry `i` holds exactly
/// `f32::from(i) / 255.0`, so lookups are bit-identical to the inline
/// division they replace.
const U8_TO_UNORM: [f32; 256] = {
    let mut t = [0.0f32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = i as f32 / 255.0;
        i += 1;
    }
    t
};

/// Converts an 8-bit channel value to its normalised `[0, 1]` float,
/// via the precomputed table (bit-identical to `f32::from(x) / 255.0`).
#[must_use]
#[inline]
pub fn u8_to_unorm(x: u8) -> f32 {
    U8_TO_UNORM[x as usize]
}

/// Nearest-sampling texel index along one axis of `size` texels, with
/// clamp-to-edge: `coord` is the normalised coordinate already scaled by
/// the size (`u * width as f32`).
///
/// Truncation stands in for `floor` exactly: the two agree for
/// `coord >= 0`; on (-1, 0) floor gives -1 and truncation 0, and both
/// clamp to 0; NaN casts to 0 and ±inf saturates either way.
///
/// # Panics
///
/// Panics if `size` is 0.
#[must_use]
#[inline]
pub fn nearest_texel(coord: f32, size: u32) -> usize {
    (coord as i64).clamp(0, i64::from(size) - 1) as usize
}

/// Provides texel data for one bound texture unit.
///
/// Coordinates are normalised (`[0, 1]`); implementations choose their own
/// filtering (GPGPU kernels use nearest with texel-centre coordinates).
///
/// `Sync` is a supertrait so the parallel fragment engine can share one
/// sampler across its worker threads; samplers are read-only views by
/// construction.
pub trait Sampler: Sync {
    /// Samples the texture at `(u, v)`, returning RGBA in `[0, 1]`.
    fn fetch(&self, u: f32, v: f32) -> [f32; 4];

    /// Samples a batch of coordinates: lane `l` fetches `(us[l], vs[l])`
    /// into `out[l]`. Each lane must produce exactly what [`Sampler::fetch`]
    /// would; the default implementation guarantees that by delegating.
    /// Implementations override this to pay virtual dispatch once per batch
    /// instead of once per fragment and to hoist per-texture factors.
    fn fetch_batch(&self, us: &[f32], vs: &[f32], out: &mut [[f32; 4]]) {
        for ((o, u), v) in out.iter_mut().zip(us).zip(vs) {
            *o = self.fetch(*u, *v);
        }
    }

    /// Samples a batch that shares one `v` coordinate: lane `l` fetches
    /// `(us[l], v)` into `out[l]` — the shape of a row-major fragment
    /// batch reading along a texture row. Each lane must produce exactly
    /// what [`Sampler::fetch`] would; the default guarantees that by
    /// delegating. Implementations override it to resolve the row once
    /// per batch.
    fn fetch_row_batch(&self, us: &[f32], v: f32, out: &mut [[f32; 4]]) {
        for (o, u) in out.iter_mut().zip(us) {
            *o = self.fetch(*u, v);
        }
    }

    /// Exposes the raw RGBA8 texel data as `(bytes, width, height)` when
    /// this sampler is a plain nearest/clamp image whose [`Sampler::fetch`]
    /// is exactly `u8_to_unorm` over `bytes[(y*width + x)*4..][..4]` with
    /// `x = nearest_texel(u * width as f32, width)` and `y` likewise
    /// (clamp-to-edge of `floor(u*width)`). Fused
    /// execution tiers use this to gather texels without the AoS staging
    /// round trip; returning `None` (the default) keeps them on the
    /// virtual fetch path.
    fn raw_rgba8(&self) -> Option<(&[u8], u32, u32)> {
        None
    }
}

/// A sampler over an owned RGBA8 image, with nearest filtering and
/// clamp-to-edge addressing — the GLES2 GPGPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSampler {
    width: u32,
    height: u32,
    /// RGBA8 texels, row-major.
    data: Vec<u8>,
}

impl ImageSampler {
    /// Wraps RGBA8 data of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * 4`.
    #[must_use]
    pub fn new(width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            width as usize * height as usize * 4,
            "RGBA8 data size mismatch"
        );
        ImageSampler {
            width,
            height,
            data,
        }
    }

    /// Image width in texels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in texels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }
}

impl ImageSampler {
    /// Nearest-lookup with the texel-scale factors passed in, so batch
    /// fetches convert the dimensions once instead of once per lane.
    /// `wf`/`hf` must equal `self.width as f32`/`self.height as f32`.
    #[inline]
    fn fetch_scaled(&self, u: f32, v: f32, wf: f32, hf: f32) -> [f32; 4] {
        let x = nearest_texel(u * wf, self.width);
        let y = nearest_texel(v * hf, self.height);
        let idx = (y * self.width as usize + x) * 4;
        let t = &self.data[idx..idx + 4];
        [
            u8_to_unorm(t[0]),
            u8_to_unorm(t[1]),
            u8_to_unorm(t[2]),
            u8_to_unorm(t[3]),
        ]
    }
}

impl Sampler for ImageSampler {
    #[inline]
    fn fetch(&self, u: f32, v: f32) -> [f32; 4] {
        self.fetch_scaled(u, v, self.width as f32, self.height as f32)
    }

    fn fetch_batch(&self, us: &[f32], vs: &[f32], out: &mut [[f32; 4]]) {
        let (wf, hf) = (self.width as f32, self.height as f32);
        for ((o, u), v) in out.iter_mut().zip(us).zip(vs) {
            *o = self.fetch_scaled(*u, *v, wf, hf);
        }
    }

    fn raw_rgba8(&self) -> Option<(&[u8], u32, u32)> {
        Some((&self.data, self.width, self.height))
    }

    fn fetch_row_batch(&self, us: &[f32], v: f32, out: &mut [[f32; 4]]) {
        // Same texel/index arithmetic as `fetch_scaled`, with the row term
        // resolved once: `(y*w + x)*4 == (row + x)*4` exactly.
        let (wf, hf) = (self.width as f32, self.height as f32);
        let row = nearest_texel(v * hf, self.height) * self.width as usize;
        for (o, u) in out.iter_mut().zip(us) {
            let idx = (row + nearest_texel(*u * wf, self.width)) * 4;
            let t = &self.data[idx..idx + 4];
            *o = [
                u8_to_unorm(t[0]),
                u8_to_unorm(t[1]),
                u8_to_unorm(t[2]),
                u8_to_unorm(t[3]),
            ];
        }
    }
}

/// Truncates a float to ~24-bit total precision (15-bit mantissa), the
/// semantics of the `mul24` fast multiply.
#[must_use]
pub fn truncate_to_24bit(x: f32) -> f32 {
    f32::from_bits(x.to_bits() & !0xFF)
}

/// Evaluates a pure (non-texture) op. Sources are broadcast from width 1.
/// Returns `None` for ops that are not pure (texture fetches) or malformed.
// Index loops mirror the per-component ISA semantics more clearly than
// iterator chains here.
#[allow(clippy::needless_range_loop)]
pub(crate) fn eval_pure_op(
    op: &Op,
    srcs: &[[f32; 4]],
    src_widths: &[u8],
    width: u8,
) -> Option<[f32; 4]> {
    let read = |i: usize, c: usize| -> f32 {
        let v = srcs[i];
        if src_widths[i] == 1 {
            v[0]
        } else {
            v[c]
        }
    };
    let mut out = [0.0f32; 4];
    let w = width as usize;
    match op {
        Op::Const(v) => out = *v,
        Op::Mov => {
            for c in 0..w {
                out[c] = read(0, c);
            }
        }
        Op::Neg => {
            for c in 0..w {
                out[c] = -read(0, c);
            }
        }
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Min
        | Op::Max
        | Op::ModOp
        | Op::Pow
        | Op::Step => {
            for c in 0..w {
                let (a, b) = (read(0, c), read(1, c));
                out[c] = match op {
                    Op::Add => a + b,
                    Op::Sub => a - b,
                    Op::Mul => a * b,
                    Op::Div => a / b,
                    Op::Min => a.min(b),
                    Op::Max => a.max(b),
                    Op::ModOp => a - b * (a / b).floor(),
                    Op::Pow => a.powf(b),
                    Op::Step => {
                        if b < a {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    _ => unreachable!(),
                };
            }
        }
        Op::Mad => {
            for c in 0..w {
                out[c] = read(0, c) * read(1, c) + read(2, c);
            }
        }
        Op::Mul24 => {
            out[0] =
                truncate_to_24bit(truncate_to_24bit(read(0, 0)) * truncate_to_24bit(read(1, 0)));
        }
        Op::Dot => {
            let n = src_widths[0].max(src_widths[1]) as usize;
            let mut acc = 0.0;
            for c in 0..n {
                acc += read(0, c) * read(1, c);
            }
            out[0] = acc;
        }
        Op::Clamp => {
            for c in 0..w {
                out[c] = read(0, c).max(read(1, c)).min(read(2, c));
            }
        }
        Op::Floor => {
            for c in 0..w {
                out[c] = read(0, c).floor();
            }
        }
        Op::Fract => {
            for c in 0..w {
                let x = read(0, c);
                out[c] = x - x.floor();
            }
        }
        Op::Abs => {
            for c in 0..w {
                out[c] = read(0, c).abs();
            }
        }
        Op::Sqrt => {
            for c in 0..w {
                out[c] = read(0, c).sqrt();
            }
        }
        Op::Sin => {
            for c in 0..w {
                out[c] = read(0, c).sin();
            }
        }
        Op::Cos => {
            for c in 0..w {
                out[c] = read(0, c).cos();
            }
        }
        Op::Exp2 => {
            for c in 0..w {
                out[c] = read(0, c).exp2();
            }
        }
        Op::Log2 => {
            for c in 0..w {
                out[c] = read(0, c).log2();
            }
        }
        Op::InverseSqrt => {
            for c in 0..w {
                out[c] = 1.0 / read(0, c).sqrt();
            }
        }
        Op::Sign => {
            for c in 0..w {
                let x = read(0, c);
                out[c] = if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                };
            }
        }
        Op::Mix => {
            for c in 0..w {
                let (a, b, t) = (read(0, c), read(1, c), read(2, c));
                out[c] = a * (1.0 - t) + b * t;
            }
        }
        Op::Cmp(cmp) => {
            let (a, b) = (srcs[0][0], srcs[1][0]);
            let r = match cmp {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            };
            out[0] = if r { 1.0 } else { 0.0 };
        }
        Op::And => {
            out[0] = if srcs[0][0] != 0.0 && srcs[1][0] != 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Op::Or => {
            out[0] = if srcs[0][0] != 0.0 || srcs[1][0] != 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Op::Not => out[0] = if srcs[0][0] != 0.0 { 0.0 } else { 1.0 },
        Op::Select => {
            let take_then = srcs[0][0] != 0.0;
            for c in 0..w {
                out[c] = if take_then { read(1, c) } else { read(2, c) };
            }
        }
        Op::Swizzle(pattern) => {
            for c in 0..w {
                out[c] = srcs[0][pattern[c] as usize];
            }
        }
        Op::Merge { select } => {
            for c in 0..w {
                out[c] = if select[c] == 0xFF {
                    srcs[0][c]
                } else {
                    read(1, select[c] as usize)
                };
            }
        }
        Op::Construct => {
            let mut n = 0usize;
            for (i, &sw) in src_widths.iter().enumerate() {
                for c in 0..sw as usize {
                    if n < 4 {
                        out[n] = srcs[i][c];
                        n += 1;
                    }
                }
            }
        }
        Op::TexFetch { .. } => return None,
    }
    Some(out)
}

/// Computes the width (component count) of every register in a shader.
#[must_use]
pub(crate) fn register_widths(shader: &Shader) -> Vec<u8> {
    let mut widths = Vec::new();
    register_widths_into(shader, &mut widths);
    widths
}

/// [`register_widths`] into an existing buffer, reusing its allocation —
/// the rebind path of the reusable engine cores.
pub(crate) fn register_widths_into(shader: &Shader, widths: &mut Vec<u8>) {
    widths.clear();
    widths.resize(shader.reg_count as usize, 4u8);
    for slot in &shader.inputs {
        widths[slot.reg.0 as usize] = slot.width;
    }
    for i in &shader.instrs {
        widths[i.dst.0 as usize] = i.width;
    }
}

/// Uniform values bound by name before execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UniformValues {
    values: HashMap<String, [f32; 4]>,
}

impl UniformValues {
    /// An empty binding set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a uniform; extra components are ignored by narrower uniforms.
    pub fn set(&mut self, name: &str, value: [f32; 4]) -> &mut Self {
        self.values.insert(name.to_owned(), value);
        self
    }

    /// Sets a scalar uniform.
    pub fn set_scalar(&mut self, name: &str, value: f32) -> &mut Self {
        self.set(name, [value, 0.0, 0.0, 0.0])
    }

    /// Looks a uniform up.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<[f32; 4]> {
        self.values.get(name).copied()
    }

    /// Iterates the bound `(name, value)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, [f32; 4])> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// Executes a compiled shader fragment by fragment.
///
/// The executor resolves uniforms once; per-fragment varyings are passed to
/// [`Executor::run`] in the order of [`Shader::varying_slots`].
///
/// # Examples
///
/// ```
/// use mgpu_shader::{compile, Executor, UniformValues};
///
/// let shader = compile("
///     uniform float u_gain;
///     varying vec2 v_coord;
///     void main() { gl_FragColor = vec4(v_coord * u_gain, 0.0, 1.0); }
/// ").expect("compiles");
///
/// let mut uniforms = UniformValues::new();
/// uniforms.set_scalar("u_gain", 2.0);
/// let mut exec = Executor::new(&shader, &uniforms).expect("uniforms bound");
/// let rgba = exec.run(&[[0.25, 0.5, 0.0, 0.0]], &[]).expect("runs");
/// assert_eq!(&rgba[..2], &[0.5, 1.0]);
/// ```
#[derive(Debug)]
pub struct Executor<'s> {
    shader: &'s Shader,
    core: ExecCore,
}

impl<'s> Executor<'s> {
    /// Prepares an executor, resolving every uniform.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a uniform declared by the shader has no
    /// value in `uniforms`.
    pub fn new(shader: &'s Shader, uniforms: &UniformValues) -> Result<Self, ExecError> {
        Ok(Executor {
            shader,
            core: ExecCore::new(shader, uniforms)?,
        })
    }

    /// Runs the shader for one fragment.
    ///
    /// `varyings` supplies one value per varying slot (shader declaration
    /// order); `samplers` one implementation per texture unit.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the counts do not match the shader's
    /// declarations.
    pub fn run(
        &mut self,
        varyings: &[[f32; 4]],
        samplers: &[&dyn Sampler],
    ) -> Result<[f32; 4], ExecError> {
        self.core.run(self.shader, varyings, samplers)
    }
}

/// The shader-independent state of a scalar [`Executor`]: register file,
/// width table and varying bindings, with uniforms resolved in.
///
/// Unlike `Executor` it does not borrow the shader — the shader is passed
/// to every [`ExecCore::run`] call — so a core can be owned by long-lived
/// caches (the `mgpu-gles` draw-plan cache) alongside the shader it was
/// bound to, and re-bound to a new shader without reallocating via
/// [`ExecCore::rebind`]. A core must only ever run the shader (or a
/// structurally identical clone of the shader) it was last bound to;
/// `run` rejects a mismatched register count as a cheap guard.
#[derive(Debug)]
pub struct ExecCore {
    widths: Vec<u8>,
    regs: Vec<[f32; 4]>,
    varying_regs: Vec<Reg>,
}

impl ExecCore {
    /// Prepares a core for `shader`, resolving every uniform.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a uniform declared by the shader has no
    /// value in `uniforms`.
    pub fn new(shader: &Shader, uniforms: &UniformValues) -> Result<Self, ExecError> {
        let mut core = ExecCore {
            widths: Vec::new(),
            regs: Vec::new(),
            varying_regs: Vec::new(),
        };
        core.rebind(shader, uniforms)?;
        Ok(core)
    }

    /// Re-binds this core to a (possibly different) shader and uniform
    /// set, reusing the existing allocations where they fit. After a
    /// successful rebind the core behaves bit-identically to a freshly
    /// constructed [`ExecCore::new`] — every register is re-derived; no
    /// stale state can leak, because the IR is single-assignment and every
    /// instruction output is rewritten before it is read.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a uniform declared by the shader has no
    /// value in `uniforms`; the core is left safe to rebind again but must
    /// not be run.
    pub fn rebind(&mut self, shader: &Shader, uniforms: &UniformValues) -> Result<(), ExecError> {
        register_widths_into(shader, &mut self.widths);
        self.regs.clear();
        self.regs.resize(shader.reg_count as usize, [0.0f32; 4]);
        self.varying_regs.clear();
        for slot in &shader.inputs {
            match slot.kind {
                InputKind::Uniform => {
                    let v = uniforms.get(&slot.name).ok_or_else(|| {
                        ExecError::new(format!("uniform `{}` is not set", slot.name))
                    })?;
                    self.regs[slot.reg.0 as usize] = v;
                }
                InputKind::Varying => self.varying_regs.push(slot.reg),
            }
        }
        Ok(())
    }

    /// Runs `shader` for one fragment. `shader` must be the shader this
    /// core was last (re)bound to.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the varying count does not match the
    /// shader's declarations, a referenced texture unit has no sampler, or
    /// `shader` is not the bound shader (register-count mismatch).
    pub fn run(
        &mut self,
        shader: &Shader,
        varyings: &[[f32; 4]],
        samplers: &[&dyn Sampler],
    ) -> Result<[f32; 4], ExecError> {
        if shader.reg_count as usize != self.regs.len() {
            return Err(ExecError::new(
                "executor core run with a shader it was not bound to",
            ));
        }
        if varyings.len() != self.varying_regs.len() {
            return Err(ExecError::new(format!(
                "shader has {} varyings, {} provided",
                self.varying_regs.len(),
                varyings.len()
            )));
        }
        for (reg, value) in self.varying_regs.iter().zip(varyings) {
            self.regs[reg.0 as usize] = *value;
        }
        let mut srcs_buf = [[0.0f32; 4]; 4];
        let mut widths_buf = [0u8; 4];
        for instr in &shader.instrs {
            let n = instr.srcs.len().min(4);
            for (i, s) in instr.srcs.iter().take(4).enumerate() {
                srcs_buf[i] = self.regs[s.0 as usize];
                widths_buf[i] = self.widths[s.0 as usize];
            }
            let value = match instr.op {
                Op::TexFetch { sampler } => {
                    let s = samplers.get(sampler as usize).ok_or_else(|| {
                        ExecError::new(format!("texture unit {sampler} has no sampler bound"))
                    })?;
                    let coord = srcs_buf[0];
                    s.fetch(coord[0], coord[1])
                }
                ref op => eval_pure_op(op, &srcs_buf[..n], &widths_buf[..n], instr.width)
                    .ok_or_else(|| ExecError::new("malformed instruction"))?,
            };
            self.regs[instr.dst.0 as usize] = value;
        }
        Ok(self.regs[shader.output.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn runs_arithmetic_kernel() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x + v.y, v.x * v.y, v.x - v.y, 1.0); }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        let out = ex.run(&[[3.0, 4.0, 0.0, 0.0]], &[]).unwrap();
        assert_eq!(out, [7.0, 12.0, -1.0, 1.0]);
    }

    #[test]
    fn rebound_core_matches_fresh_core_bitwise() {
        let sh_a = compile(
            "uniform float g; varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x * g, v.y + g, sqrt(v.x), 1.0); }",
        )
        .unwrap();
        let sh_b = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(fract(v.y * 9.7), v.x, 0.0, 1.0); }",
        )
        .unwrap();
        let mut u = UniformValues::new();
        u.set_scalar("g", 3.25);
        let mut core = ExecCore::new(&sh_a, &u).unwrap();
        // Run A, rebind to B, then back to A: every output must equal a
        // fresh core's bit for bit.
        for (sh, uni) in [(&sh_a, &u), (&sh_b, &UniformValues::new()), (&sh_a, &u)] {
            core.rebind(sh, uni).unwrap();
            let mut fresh = ExecCore::new(sh, uni).unwrap();
            for xy in [[0.1f32, 0.9], [0.5, 0.5], [-1.0, 2.0]] {
                let varying = [[xy[0], xy[1], 0.0, 0.0]];
                let got = core.run(sh, &varying, &[]).unwrap();
                let want = fresh.run(sh, &varying, &[]).unwrap();
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn core_rejects_unbound_shader() {
        let sh_a = compile("void main() { gl_FragColor = vec4(1.0); }").unwrap();
        let sh_b = compile(
            "varying vec2 v;\n\
             void main() { vec4 a = vec4(v, 0.0, 1.0); gl_FragColor = a * a; }",
        )
        .unwrap();
        let mut core = ExecCore::new(&sh_a, &UniformValues::new()).unwrap();
        assert!(core
            .run(&sh_b, &[[0.0; 4]], &[])
            .unwrap_err()
            .to_string()
            .contains("not bound"));
    }

    #[test]
    fn missing_uniform_is_an_error() {
        let sh = compile("uniform float u; void main() { gl_FragColor = vec4(u); }").unwrap();
        assert!(Executor::new(&sh, &UniformValues::new()).is_err());
    }

    #[test]
    fn wrong_varying_count_is_an_error() {
        let sh =
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }").unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert!(ex.run(&[], &[]).is_err());
    }

    #[test]
    fn unorm_lut_matches_division() {
        for i in 0..=255u8 {
            assert_eq!(u8_to_unorm(i).to_bits(), (f32::from(i) / 255.0).to_bits());
        }
    }

    #[test]
    fn image_sampler_batch_matches_scalar_fetch() {
        let data: Vec<u8> = (0..3 * 2 * 4).map(|i| (i * 37 % 256) as u8).collect();
        let img = ImageSampler::new(3, 2, data);
        let us = [-0.5, 0.1, 0.5, 0.9, 1.5, f32::NAN];
        let vs = [0.2, 0.8, -1.0, 2.0, 0.5, 0.5];
        let mut out = [[0.0f32; 4]; 6];
        img.fetch_batch(&us, &vs, &mut out);
        for ((&u, &v), got) in us.iter().zip(&vs).zip(&out) {
            assert_eq!(got.map(f32::to_bits), img.fetch(u, v).map(f32::to_bits));
        }
    }

    #[test]
    fn image_sampler_nearest_lookup() {
        // 2x1 image: left texel red, right texel green.
        let img = ImageSampler::new(2, 1, vec![255, 0, 0, 255, 0, 255, 0, 255]);
        assert_eq!(img.fetch(0.25, 0.5), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(img.fetch(0.75, 0.5), [0.0, 1.0, 0.0, 1.0]);
        // Clamp-to-edge outside [0,1].
        assert_eq!(img.fetch(-1.0, 0.5), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(img.fetch(2.0, 0.5), [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn texture_kernel_samples_bound_unit() {
        let sh = compile(
            "uniform sampler2D t;\n\
             varying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        let img = ImageSampler::new(2, 1, vec![255, 0, 0, 255, 0, 255, 0, 255]);
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        let out = ex.run(&[[0.75, 0.5, 0.0, 0.0]], &[&img]).unwrap();
        assert_eq!(out, [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn unbound_sampler_is_an_error() {
        let sh = compile(
            "uniform sampler2D t; varying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert!(ex.run(&[[0.0, 0.0, 0.0, 0.0]], &[]).is_err());
    }

    #[test]
    fn predicated_if_selects_correct_branch() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() {\n\
               float x = 0.0;\n\
               if (v.x < 0.5) { x = 1.0; } else { x = 2.0; }\n\
               gl_FragColor = vec4(x);\n\
             }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert_eq!(ex.run(&[[0.2, 0.0, 0.0, 0.0]], &[]).unwrap()[0], 1.0);
        assert_eq!(ex.run(&[[0.9, 0.0, 0.0, 0.0]], &[]).unwrap()[0], 2.0);
    }

    #[test]
    fn unrolled_loop_accumulates() {
        let sh = compile(
            "void main() {\n\
               float acc = 0.0;\n\
               for (float i = 1.0; i <= 4.0; i += 1.0) { acc += i; }\n\
               gl_FragColor = vec4(acc);\n\
             }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert_eq!(ex.run(&[], &[]).unwrap()[0], 10.0);
    }

    #[test]
    fn user_function_inlines_and_computes() {
        let sh = compile(
            "float square(float x) { return x * x; }\n\
             varying vec2 v;\n\
             void main() { gl_FragColor = vec4(square(v.x) + square(v.y)); }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert_eq!(ex.run(&[[3.0, 4.0, 0.0, 0.0]], &[]).unwrap()[0], 25.0);
    }

    #[test]
    fn swizzle_write_merges_components() {
        let sh = compile(
            "void main() {\n\
               vec4 c = vec4(1.0, 2.0, 3.0, 4.0);\n\
               c.yw = vec2(20.0, 40.0);\n\
               gl_FragColor = c;\n\
             }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        assert_eq!(ex.run(&[], &[]).unwrap(), [1.0, 20.0, 3.0, 40.0]);
    }

    #[test]
    fn builtins_compute_expected_values() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() {\n\
               float a = clamp(v.x, 0.0, 1.0);\n\
               float b = mix(0.0, 10.0, v.y);\n\
               float c = dot(vec2(v.x, v.y), vec2(1.0, 1.0));\n\
               gl_FragColor = vec4(a, b, c, mod(v.x, 2.0));\n\
             }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        let out = ex.run(&[[3.0, 0.5, 0.0, 0.0]], &[]).unwrap();
        assert_eq!(out, [1.0, 5.0, 3.5, 1.0]);
    }

    #[test]
    fn mul24_loses_low_mantissa_bits() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(mul24(v.x, v.y)); }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        let exact = 1.000_001f32 * 1.000_001f32;
        let got = ex.run(&[[1.000_001, 1.000_001, 0.0, 0.0]], &[]).unwrap()[0];
        assert_ne!(got, exact);
        assert!((got - exact).abs() < 1e-4);
    }

    #[test]
    fn truncate_preserves_magnitude() {
        for x in [0.0f32, 1.0, -3.75, 1234.5, 1e-10] {
            let t = truncate_to_24bit(x);
            assert!((t - x).abs() <= x.abs() * 1e-4 + f32::EPSILON);
        }
    }

    #[test]
    fn scalar_broadcast_in_vector_ops() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v, 1.0, 1.0) * v.x; }",
        )
        .unwrap();
        let mut ex = Executor::new(&sh, &UniformValues::new()).unwrap();
        let out = ex.run(&[[2.0, 3.0, 0.0, 0.0]], &[]).unwrap();
        assert_eq!(out, [4.0, 6.0, 2.0, 2.0]);
    }

    /// The clamp-to-edge floor that `nearest_texel` replaces.
    fn floor_clamp(coord: f32, size: u32) -> usize {
        (coord.floor() as i64).clamp(0, i64::from(size) - 1) as usize
    }

    fn assert_nearest_exact(size: u32, coords: impl Iterator<Item = f32>) {
        for c in coords {
            assert_eq!(
                nearest_texel(c, size),
                floor_clamp(c, size),
                "nearest_texel({c:e} [{:#010x}], {size})",
                c.to_bits()
            );
        }
    }

    /// Texel edges of a `size`-texel axis, one ulp either side: just
    /// below 0, the first and last few edges, and at and above `size`.
    fn texel_edges(size: u32) -> impl Iterator<Item = f32> {
        let size = i64::from(size);
        (-2..=3)
            .chain(size - 2..=size + 2)
            .flat_map(|k| {
                let x = k as f32;
                [x.next_down(), x, x.next_up(), x + 0.5]
            })
            .chain([-0.5, -f32::MIN_POSITIVE])
    }

    #[test]
    fn nearest_texel_is_floor_clamp_on_rounding_edges() {
        assert_nearest_exact(1024, mgpu_prop::f32_rounding_edges());
        for size in [1, 2, 3, 7, 256, 1024, 4096, 1 << 24, u32::MAX] {
            assert_nearest_exact(size, texel_edges(size));
            assert_nearest_exact(size, mgpu_prop::f32_specials().into_iter());
            assert_nearest_exact(size, mgpu_prop::f32_bit_stride());
        }
    }

    /// The proof behind `nearest_texel`: every one of the 2^32 f32 bit
    /// patterns, on a one-texel, an even and an odd axis. About half a
    /// minute in release; CI runs it.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn exhaustive_nearest_texel_is_floor_clamp() {
        for bits in 0..=u32::MAX {
            let c = f32::from_bits(bits);
            for size in [1, 1024, 4095] {
                assert_eq!(
                    nearest_texel(c, size),
                    floor_clamp(c, size),
                    "{bits:#010x}, {size}"
                );
            }
        }
    }
}
