//! Executes a conformance case against one execution point.
//!
//! The runner interprets a [`ConfCase`] draw script on a fresh [`Gl`]
//! context and records a **transcript**: one [`StepOutcome`] per script
//! step. Readbacks record their bytes; state-changing steps record
//! success; steps that hit an invalid GL state record the *typed error
//! text* — so error paths are differentially tested exactly like pixel
//! paths (error classification must not depend on engine, plan caching or
//! thread count either).
//!
//! With a [`FaultPlan`] installed and `recover` set, the runner plays the
//! resilience strategy the fault-injection tests established: transient
//! failures (OOM, watchdog, compiler scratch exhaustion) are retried a
//! bounded number of times; context loss triggers [`Gl::recreate`]
//! followed by a replay of every state-changing step already executed,
//! then the interrupted step is retried. The oracle holds the resulting
//! transcript byte-identical to a fault-free run.

use mgpu_gles::raster::VaryingCorners;
use mgpu_gles::{
    DrawQuad, FaultPlan, FramebufferId, Gl, GlError, ProgramId, TextureFormat, TextureId,
};
use mgpu_prop::shadergen::{texels, ConfCase, ShaderSpec, Step, TexFormat};
use mgpu_shader::ast::{Qualifier, Type};
use mgpu_tbdr::{Platform, SimReport};

use crate::lattice::ExecPoint;

/// Bounded retries for transient faults, and bounded context-recovery
/// attempts per step. Exhausting either records the error in the
/// transcript instead of looping forever.
const MAX_RETRIES: usize = 8;

/// What one script step produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step succeeded without producing data.
    Ok,
    /// A readback succeeded with these bytes.
    Bytes(Vec<u8>),
    /// The step failed; the driver's error text (deterministic for a given
    /// script, whatever the execution point), with object handle numbers
    /// masked — see [`normalize_error`].
    Failed(String),
}

/// Masks object handle numbers (`texture#7` → `texture#?`) in an error
/// text. Handle numbers are execution-*history* dependent: a recovered
/// run re-creates every object after a context loss, so its handles
/// differ from a fault-free run's even though the error is the same. The
/// rest of the text still differentially tests the error path.
#[must_use]
pub fn normalize_error(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '#' {
            let mut masked = false;
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
                masked = true;
            }
            if masked {
                out.push('?');
            }
        }
    }
    out
}

/// The full result of running one case at one execution point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One outcome per script step, in order.
    pub transcript: Vec<StepOutcome>,
    /// The simulated timing report — itself required to be invariant
    /// across engines, plan caching and thread counts on fault-free runs.
    pub report: SimReport,
    /// Number of faults the injector fired during the run.
    pub faults_fired: usize,
}

/// Re-derives a [`ShaderSpec`]'s interface metadata by parsing its source,
/// so `.case` files (and shrunk kernels) only ever store the text.
///
/// Unparsable source yields empty interface lists — the runner then simply
/// records the compile error in the transcript.
#[must_use]
pub fn spec_from_source(source: &str) -> ShaderSpec {
    let mut spec = ShaderSpec {
        source: source.to_owned(),
        uniforms: Vec::new(),
        samplers: Vec::new(),
        varyings: Vec::new(),
    };
    if let Ok(program) = mgpu_shader::parse(source) {
        for global in &program.globals {
            match (global.qualifier, global.ty) {
                (Qualifier::Uniform, Type::Sampler2d) => {
                    spec.samplers.push(global.name.clone());
                }
                (Qualifier::Uniform, ty) => {
                    if let Some(n) = ty.components() {
                        spec.uniforms.push((global.name.clone(), n));
                    }
                }
                (Qualifier::Varying, ty) => {
                    if let Some(n) = ty.components() {
                        spec.varyings.push((global.name.clone(), n));
                    }
                }
                (Qualifier::Const, _) => {}
            }
        }
    }
    spec
}

fn gl_format(format: TexFormat) -> TextureFormat {
    match format {
        TexFormat::Rgba8 => TextureFormat::Rgba8,
        TexFormat::Rgb8 => TextureFormat::Rgb8,
    }
}

/// Mutable execution state: the context plus everything needed to rebuild
/// it after a context loss.
struct Exec<'c> {
    case: &'c ConfCase,
    gl: Gl,
    textures: Vec<TextureId>,
    fbo: FramebufferId,
    /// Lazily created program per shader (compile errors surface on the
    /// first step that needs the program).
    programs: Vec<Option<ProgramId>>,
    /// Shader index currently in use, if any.
    current: Option<u8>,
    /// Last successfully applied uniform values per shader, for relinks
    /// and context recovery.
    uniforms: Vec<Vec<(String, [f32; 4])>>,
    /// Last successfully applied sampler bindings per shader.
    samplers: Vec<Vec<(String, u8)>>,
}

impl<'c> Exec<'c> {
    fn new(case: &'c ConfCase, platform: &Platform, point: ExecPoint) -> Exec<'c> {
        let mut gl = Gl::new(platform.clone(), case.width, case.height);
        point.apply(&mut gl);
        let textures = (0..case.textures.len())
            .map(|_| gl.create_texture())
            .collect();
        let fbo = gl.create_framebuffer();
        Exec {
            case,
            gl,
            textures,
            fbo,
            programs: vec![None; case.shaders.len()],
            current: None,
            uniforms: vec![Vec::new(); case.shaders.len()],
            samplers: vec![Vec::new(); case.shaders.len()],
        }
    }

    /// Fresh context + handles after a context loss. Recorded bindings are
    /// cleared; replaying the executed prefix re-records them.
    fn rebuild(&mut self) {
        self.gl.recreate();
        self.textures = (0..self.case.textures.len())
            .map(|_| self.gl.create_texture())
            .collect();
        self.fbo = self.gl.create_framebuffer();
        self.programs = vec![None; self.case.shaders.len()];
        self.current = None;
        for list in &mut self.uniforms {
            list.clear();
        }
        for list in &mut self.samplers {
            list.clear();
        }
    }

    fn shader(&self, index: u8) -> Result<&ShaderSpec, GlError> {
        self.case
            .shaders
            .get(index as usize)
            .ok_or_else(|| GlError::InvalidValue(format!("script references shader {index}")))
    }

    fn texture(&self, slot: u8) -> Result<TextureId, GlError> {
        self.textures
            .get(slot as usize)
            .copied()
            .ok_or_else(|| GlError::InvalidValue(format!("script references texture slot {slot}")))
    }

    /// The program for shader `index`, compiling it on first use.
    fn program(&mut self, index: u8) -> Result<ProgramId, GlError> {
        let source = self.shader(index)?.source.clone();
        if let Some(prog) = self.programs[index as usize] {
            return Ok(prog);
        }
        let prog = self.gl.create_program(&source)?;
        self.programs[index as usize] = Some(prog);
        Ok(prog)
    }

    fn record_uniform(&mut self, shader: u8, name: &str, value: [f32; 4]) {
        let list = &mut self.uniforms[shader as usize];
        if let Some(entry) = list.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            list.push((name.to_owned(), value));
        }
    }

    fn record_sampler(&mut self, shader: u8, name: &str, unit: u8) {
        let list = &mut self.samplers[shader as usize];
        if let Some(entry) = list.iter_mut().find(|(n, _)| n == name) {
            entry.1 = unit;
        } else {
            list.push((name.to_owned(), unit));
        }
    }

    /// Executes step `index` once. `Ok(Some(bytes))` for readbacks,
    /// `Ok(None)` for state changes.
    fn apply_step(&mut self, index: usize) -> Result<Option<Vec<u8>>, GlError> {
        match self.case.steps[index].clone() {
            Step::UseProgram { shader } => {
                let prog = self.program(shader)?;
                self.gl.use_program(Some(prog))?;
                self.current = Some(shader);
                Ok(None)
            }
            Step::Relink { shader } => {
                let source = self.shader(shader)?.source.clone();
                let prog = self.gl.create_program(&source)?;
                // Re-apply recorded bindings; failures here are
                // deterministic (interface mismatches) and swallowed.
                for (name, value) in self.uniforms[shader as usize].clone() {
                    let _ = self.gl.set_uniform_vec(prog, &name, value);
                }
                for (name, unit) in self.samplers[shader as usize].clone() {
                    let _ = self.gl.set_sampler(prog, &name, u32::from(unit));
                }
                self.programs[shader as usize] = Some(prog);
                if self.current == Some(shader) {
                    self.gl.use_program(Some(prog))?;
                }
                Ok(None)
            }
            Step::SetUniform {
                shader,
                name,
                value,
            } => {
                let prog = self.program(shader)?;
                self.gl.set_uniform_vec(prog, &name, value)?;
                self.record_uniform(shader, &name, value);
                Ok(None)
            }
            Step::SetSampler { shader, name, unit } => {
                let prog = self.program(shader)?;
                self.gl.set_sampler(prog, &name, u32::from(unit))?;
                self.record_sampler(shader, &name, unit);
                Ok(None)
            }
            Step::BindTexture { unit, slot } => {
                let tex = self.texture(slot)?;
                self.gl.bind_texture(u32::from(unit), Some(tex))?;
                Ok(None)
            }
            Step::Upload { slot, seed, sub } => {
                let tex = self.texture(slot)?;
                let format = self.case.textures[slot as usize].format;
                let len = self.case.width as usize * self.case.height as usize * format.channels();
                let data = texels(seed, len);
                if sub {
                    self.gl.tex_sub_image_2d(tex, &data)?;
                } else {
                    self.gl.tex_image_2d(
                        tex,
                        self.case.width,
                        self.case.height,
                        gl_format(format),
                        Some(&data),
                    )?;
                }
                Ok(None)
            }
            Step::Target { slot } => {
                match slot {
                    None => self.gl.bind_framebuffer(None)?,
                    Some(slot) => {
                        let tex = self.texture(slot)?;
                        self.gl.bind_framebuffer(Some(self.fbo))?;
                        self.gl.framebuffer_texture_2d(tex)?;
                    }
                }
                Ok(None)
            }
            Step::Clear { rgba } => {
                self.gl.clear(rgba)?;
                Ok(None)
            }
            Step::Draw { band } => {
                let mut quad = DrawQuad::fullscreen();
                if let Some(shader) = self.current {
                    let declared: Vec<(String, VaryingCorners)> = self
                        .case
                        .overrides
                        .iter()
                        .filter(|(name, _)| {
                            self.case.shaders[shader as usize]
                                .varyings
                                .iter()
                                .any(|(n, _)| n == name)
                        })
                        .cloned()
                        .collect();
                    for (name, corners) in declared {
                        quad = quad.with_varying(&name, corners);
                    }
                }
                if let Some((y0, y1)) = band {
                    quad = quad.with_row_band(y0, y1);
                }
                self.gl.draw_quad(&quad)?;
                Ok(None)
            }
            Step::CopyOut { slot, sub } => {
                let tex = self.texture(slot)?;
                if sub {
                    self.gl.copy_tex_sub_image_2d(tex)?;
                } else {
                    let format = self.case.textures[slot as usize].format;
                    self.gl.copy_tex_image_2d(tex, gl_format(format))?;
                }
                Ok(None)
            }
            Step::ReadPixels => Ok(Some(self.gl.read_pixels()?)),
            Step::ReadTexture { slot } => {
                let tex = self.texture(slot)?;
                Ok(Some(self.gl.read_texture(tex)?))
            }
        }
    }

    /// Recovers from a context loss that interrupted step `upto`: rebuilds
    /// the context and replays every state-changing step before it.
    /// Readbacks are skipped (they mutate nothing); transient errors
    /// during replay are retried; a nested context loss restarts the
    /// replay. Deterministic errors are left alone — the original pass
    /// already recorded them.
    fn recover_context(&mut self, upto: usize) {
        'attempt: for _ in 0..MAX_RETRIES {
            self.rebuild();
            for step in 0..upto {
                if matches!(
                    self.case.steps[step],
                    Step::ReadPixels | Step::ReadTexture { .. }
                ) {
                    continue;
                }
                let mut retries = 0;
                loop {
                    match self.apply_step(step) {
                        Ok(_) => break,
                        Err(e) if e.is_context_loss() => continue 'attempt,
                        Err(e) if e.is_transient() && retries < MAX_RETRIES => retries += 1,
                        Err(_) => break,
                    }
                }
            }
            return;
        }
    }
}

/// Runs `case` on `platform` at `point`, optionally with `faults`
/// installed; with `recover` set the runner retries transients and
/// replays across context losses, otherwise every fault surfaces in the
/// transcript.
#[must_use]
pub fn run_case(
    case: &ConfCase,
    platform: &Platform,
    point: ExecPoint,
    faults: Option<&FaultPlan>,
    recover: bool,
) -> RunOutcome {
    let mut exec = Exec::new(case, platform, point);
    if let Some(plan) = faults {
        exec.gl.install_faults(plan.clone());
    }
    let mut transcript = Vec::with_capacity(case.steps.len());
    for index in 0..case.steps.len() {
        let mut retries = 0;
        let outcome = loop {
            match exec.apply_step(index) {
                Ok(None) => break StepOutcome::Ok,
                Ok(Some(bytes)) => break StepOutcome::Bytes(bytes),
                Err(e) if recover && e.is_context_loss() && retries < MAX_RETRIES => {
                    retries += 1;
                    exec.recover_context(index);
                }
                Err(e) if recover && e.is_transient() && retries < MAX_RETRIES => {
                    retries += 1;
                }
                Err(e) => break StepOutcome::Failed(normalize_error(&e.to_string())),
            }
        };
        transcript.push(outcome);
    }
    RunOutcome {
        transcript,
        report: exec.gl.report(),
        faults_fired: exec.gl.fault_trail().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_prop::shadergen::gen_shader;
    use mgpu_prop::{case_rng, run_cases};

    #[test]
    fn spec_round_trips_generated_interfaces() {
        // The generator's interface metadata and the parser-derived
        // metadata must agree — `.case` files only store source text.
        run_cases(64, |rng| {
            let spec = gen_shader(rng);
            assert_eq!(spec_from_source(&spec.source), spec);
        });
    }

    #[test]
    fn normalize_masks_handle_numbers_only() {
        assert_eq!(
            normalize_error("texture#12 is bound both as render target and for sampling"),
            "texture#? is bound both as render target and for sampling"
        );
        assert_eq!(
            normalize_error("program#3 / texture#4"),
            "program#? / texture#?"
        );
        assert_eq!(normalize_error("no handles here 42"), "no handles here 42");
        assert_eq!(normalize_error("dangling #"), "dangling #");
    }

    #[test]
    fn spec_from_unparsable_source_is_empty() {
        let spec = spec_from_source("not a shader");
        assert!(spec.uniforms.is_empty() && spec.samplers.is_empty() && spec.varyings.is_empty());
    }

    #[test]
    fn runner_produces_one_outcome_per_step() {
        let mut rng = case_rng(7);
        let case = mgpu_prop::shadergen::gen_case(&mut rng);
        let outcome = run_case(
            &case,
            &Platform::videocore_iv(),
            ExecPoint::baseline(),
            None,
            false,
        );
        assert_eq!(outcome.transcript.len(), case.steps.len());
        assert_eq!(outcome.faults_fired, 0);
        // The generator's epilogue guarantees a final readback.
        assert!(matches!(
            outcome.transcript.last(),
            Some(StepOutcome::Bytes(_))
        ));
    }
}
