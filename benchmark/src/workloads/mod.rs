//! The four workloads, and what they share: the pinned execution
//! configuration, the measured-run record and a few probe helpers.

use std::time::{Duration, Instant};

use mgpu_benchmark::outcome::{FailTally, Observed};
use mgpu_benchmark::result::Check;
use mgpu_benchmark::stats::tail_percentile;
use mgpu_benchmark::trace::Tracer;
use mgpu_gles::{Engine, ExecConfig, Gl};
use mgpu_gpgpu::{GpgpuError, OptConfig};
use mgpu_prop::Rng;
use mgpu_shader::{
    cost, ir::Shader, specialize, CompileOptions, CompiledProgram, Limits, OptOptions,
    UniformValues,
};
use mgpu_tbdr::{PipelineSim, Platform, SimReport};

pub mod fleet;
pub mod paper_figs;
pub mod sgemm_shade;
pub mod sum_stream;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["sgemm_shade", "sum_stream", "paper_figs", "fleet"];

/// What a workload is asked to do.
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
}

/// What a workload measured. Times are host wall-clock unless named
/// `sim_*`.
#[derive(Default)]
pub struct Measured {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Host time of each timed op, ns.
    pub op_ns: Vec<u64>,
    /// Simulated time per op, ns (the workload defines which quantity).
    pub sim_op_ns: Vec<u64>,
    /// Wall time of the timed phase, probes excluded, ns.
    pub timed_ns: u64,
    /// How `op_ms_tail` is taken.
    pub tail: Tail,
    /// Ops attempted/failed, failed checks included.
    pub tally: FailTally,
    /// Largest |GPU − CPU reference| over the checked output.
    pub max_abs_err: Option<f64>,
    pub checks: Vec<Check>,
    pub config: Vec<(String, String)>,
    pub notes: Vec<(String, String)>,
    /// `output` and `sim` digests: functions of the workload and seed
    /// only, so a traced and an untraced run must agree on them.
    pub digests: Vec<(String, String)>,
    /// Per-layer metrics (traced runs), by catalogue name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            self.tally.record_failed_check();
        }
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail,
        });
    }

    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_owned(), value.to_string()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// How a workload's `op_ms_tail` (and `sim_op_ms_tail`) is taken. Its
/// percentile is the tail rule applied to the op count the workload
/// guarantees, so it is the same in every run of the workload, however
/// many ops the host's speed lets a run make.
#[derive(Clone, Copy)]
pub enum Tail {
    /// Over every op of the run, which makes at least `min_ops`.
    Run { min_ops: usize },
    /// The median over rounds (fleet epochs) of `ops` ops each of the
    /// round's tail, which one slow stretch of the host moves less.
    PerRound { ops: usize },
}

impl Default for Tail {
    fn default() -> Self {
        Tail::Run { min_ops: 0 }
    }
}

impl Tail {
    pub fn percentile(self) -> u32 {
        match self {
            Tail::Run { min_ops: n } | Tail::PerRound { ops: n } => tail_percentile(n),
        }
    }
}

/// The wall clock of a timed phase that can set probe work aside.
pub struct PhaseClock {
    start: Instant,
    excluded: Duration,
}

impl PhaseClock {
    pub fn start() -> Self {
        PhaseClock {
            start: Instant::now(),
            excluded: Duration::ZERO,
        }
    }

    /// Runs `f` (probe or twin work of a traced run) off the clock.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    /// Time on the clock so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.excluded)
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Whether a timed phase made of whole rounds (sweeps, epochs) should
/// run another: always until `min` rounds are done, then only while one
/// more round, judged by the last one's length, would end nearer to
/// `seconds` than stopping now. Round counts then stay put across runs
/// unless the program's speed changes by half a round.
pub fn another_round(
    clock: &PhaseClock,
    last: Duration,
    seconds: u64,
    done: usize,
    min: usize,
) -> bool {
    done < min || (clock.elapsed() + last / 2).as_secs_f64() < seconds as f64
}

/// Nanoseconds of a duration.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The execution configuration every functional context is pinned to:
/// the compiled engine on `nproc` threads, pooled dispatch with the
/// plan cache, specialisation on, tile-skip off.
pub fn pinned_exec(nproc: usize) -> ExecConfig {
    ExecConfig::serial()
        .with_thread_count(nproc)
        .with_engine(Engine::Compiled)
        .with_pool(true)
        .with_specialization(true)
        .with_tile_skip(false)
}

/// `cfg` with every execution knob copied from [`pinned_exec`].
pub fn pin(cfg: OptConfig, nproc: usize) -> OptConfig {
    let exec = pinned_exec(nproc);
    cfg.with_threads(exec.threads())
        .with_engine(exec.engine())
        .with_pool(exec.pool_enabled())
        .with_specialization(exec.specialization())
        .with_tile_skip(exec.tile_skip())
}

/// A functional context pinned to [`pinned_exec`] with the plan cache on.
pub fn pinned_gl(platform: Platform, size: u32, nproc: usize) -> Gl {
    let mut gl = Gl::new(platform, size, size);
    gl.set_exec_config(pinned_exec(nproc));
    gl.set_plan_cache_enabled(true);
    gl
}

/// Records an execution configuration (the plan cache is always on).
fn record_config(m: &mut Measured, exec: ExecConfig) {
    m.config("exec.engine", format!("{:?}", exec.engine()));
    m.config("exec.threads", exec.threads());
    m.config("exec.pool", exec.pool_enabled());
    m.config("exec.plan_cache", true);
    m.config("exec.spec", exec.specialization());
    m.config("exec.tile_skip", exec.tile_skip());
}

/// Records the pinned configuration, for workloads whose contexts the
/// benchmark cannot reach (timing-only points, fleet devices) but whose
/// `OptConfig`s carry it.
pub fn record_pinned(m: &mut Measured, nproc: usize) {
    record_config(m, pinned_exec(nproc));
}

/// Records the resolved execution configuration of `gl` and checks that
/// it is the pinned one.
pub fn record_exec(m: &mut Measured, gl: &Gl, nproc: usize) {
    let exec = gl.exec_config();
    record_config(m, exec);
    m.check(
        "execution configuration pinned",
        exec == pinned_exec(nproc),
        format!("resolved {exec:?}"),
    );
}

/// Two independent sub-seeds for a workload's input pair.
pub fn input_seeds(seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed);
    (rng.next_u64(), rng.next_u64())
}

/// Classifies an operator result for [`FailTally`].
pub fn observe<T>(r: &Result<T, GpgpuError>) -> Observed {
    match r {
        Ok(_) => Observed::Success,
        Err(e) if e.is_shader_limit() => Observed::ShaderLimit,
        Err(_) => Observed::OtherError,
    }
}

/// The compile options a context of `platform` uses (its shader limits,
/// full optimisation), for compile probes.
pub fn compile_options(platform: &Platform) -> CompileOptions {
    let sl = &platform.shader_limits;
    CompileOptions {
        opt: OptOptions::full(),
        limits: Limits {
            max_instructions: sl.max_instructions,
            max_texture_fetches: sl.max_texture_fetches,
            max_uniform_vectors: sl.max_uniform_vectors,
            max_varying_vectors: sl.max_varying_vectors,
        },
    }
}

/// Tolerance of a GPU result against its CPU reference: the per-pass
/// re-quantisation bound the repository's property tests use
/// (3e-6 of the output span per pass, plus one pass, plus 1e-4).
pub fn tolerance(span: f32, passes: u32) -> f64 {
    f64::from(span) * 3e-6 * f64::from(passes + 1) + 1e-4
}

/// Hex rendering of a digest.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Digest of a float slice's bit patterns.
pub fn digest_f32(values: &[f32]) -> u64 {
    let mut h = mgpu_benchmark::FNV_OFFSET;
    for v in values {
        h = mgpu_benchmark::fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Digest of a `u64` sequence.
pub fn digest_u64(values: &[u64]) -> u64 {
    let mut h = mgpu_benchmark::FNV_OFFSET;
    for v in values {
        h = mgpu_benchmark::fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// Mean of a slice (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Times `reps` calls of `f`, returning the mean seconds per call.
pub fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// The uniform sets an `n`×`n` block-`block` sgemm binds: one `blk_n`
/// per pass.
pub fn sgemm_uniform_sets(n: u32, block: u32) -> Vec<UniformValues> {
    (0..n / block)
        .map(|pass| {
            let mut u = UniformValues::new();
            u.set_scalar("blk_n", (pass * block) as f32 / n as f32);
            u
        })
        .collect()
}

/// Times the plan build a draw pays on a plan-cache miss — `specialize`
/// then `CompiledProgram::build` — once per uniform set, and
/// `cost::analyze`, which every draw runs; records the means.
pub fn shader_probes(m: &mut Measured, tr: &mut Tracer, shader: &Shader, sets: &[UniformValues]) {
    let (mut spec_s, mut build_s) = (0.0, 0.0);
    for u in sets {
        let t = Instant::now();
        let spec = tr.span("shader.specialize", || specialize(shader, u));
        spec_s += t.elapsed().as_secs_f64();
        if let Ok(spec) = spec {
            let t = Instant::now();
            let _ = tr.span("shader.compiled_build", || CompiledProgram::build(&spec, u));
            build_s += t.elapsed().as_secs_f64();
        }
    }
    let n = sets.len().max(1) as f64;
    m.layer("shader.specialize_ms", spec_s / n * 1e3);
    m.layer("shader.compiled_build_ms", build_s / n * 1e3);
    let analyze_s = time_mean(16, || {
        let _ = tr.span("shader.cost_analyze", || cost::analyze(shader));
    });
    m.layer("shader.cost_analyze_us", analyze_s * 1e6);
}

/// Simulated busy time and traffic accumulated between two reports.
#[derive(Default, Clone, Copy)]
pub struct SimDelta {
    pub frames: f64,
    pub busy_ms: [f64; 4],
    pub bytes: [f64; 4],
}

impl SimDelta {
    pub fn between(before: &SimReport, after: &SimReport) -> SimDelta {
        let ms = |a: mgpu_tbdr::SimTime, b: mgpu_tbdr::SimTime| (b - a).as_millis_f64();
        let (bb, ab) = (&before.busy, &after.busy);
        let (bt, at) = (&before.traffic, &after.traffic);
        SimDelta {
            frames: (after.frames.len() - before.frames.len()) as f64,
            busy_ms: [
                ms(bb.cpu, ab.cpu),
                ms(bb.vertex, ab.vertex),
                ms(bb.fragment, ab.fragment),
                ms(bb.copy, ab.copy),
            ],
            bytes: [
                (at.upload_bytes - bt.upload_bytes) as f64,
                (at.writeback_bytes - bt.writeback_bytes) as f64,
                (at.reload_bytes - bt.reload_bytes) as f64,
                (at.copy_bytes - bt.copy_bytes) as f64,
            ],
        }
    }

    /// Everything `report` accumulated since its context was created.
    pub fn of(report: &SimReport) -> SimDelta {
        let empty = SimReport {
            platform_name: String::new(),
            frames: Vec::new(),
            traffic: Default::default(),
            busy: Default::default(),
            total_time: mgpu_tbdr::SimTime::ZERO,
        };
        SimDelta::between(&empty, report)
    }

    pub fn add(&mut self, o: &SimDelta) {
        self.frames += o.frames;
        for i in 0..4 {
            self.busy_ms[i] += o.busy_ms[i];
            self.bytes[i] += o.bytes[i];
        }
    }

    /// Reports `tbdr.frames` and the `sim.*` metrics, per op.
    pub fn report_per_op(&self, m: &mut Measured, ops: f64) {
        let per = |x: f64| if ops > 0.0 { x / ops } else { 0.0 };
        m.layer("tbdr.frames", per(self.frames));
        m.layer("sim.busy_cpu_ms", per(self.busy_ms[0]));
        m.layer("sim.busy_vertex_ms", per(self.busy_ms[1]));
        m.layer("sim.busy_fragment_ms", per(self.busy_ms[2]));
        m.layer("sim.busy_copy_ms", per(self.busy_ms[3]));
        m.layer("sim.upload_bytes", per(self.bytes[0]));
        m.layer("sim.writeback_bytes", per(self.bytes[1]));
        m.layer("sim.reload_bytes", per(self.bytes[2]));
        m.layer("sim.copy_bytes", per(self.bytes[3]));
    }
}

/// Replays `gl`'s recorded frames through a fresh cost model
/// (`PipelineSim::run`) and returns (µs per frame, whether the replayed
/// timings equal the recorded ones).
pub fn replay_cost_model(gl: &Gl, tr: &mut Tracer) -> (f64, bool) {
    let frames = gl.recorded_frames();
    if frames.is_empty() {
        return (0.0, true);
    }
    let mut sim = PipelineSim::new(gl.platform().clone());
    let t = Instant::now();
    tr.span("tbdr.cost_model", || sim.run(frames.iter().map(|(w, _)| w)));
    let us = t.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
    let replayed = sim.finish();
    let same = replayed.frames.len() == frames.len()
        && replayed.frames.iter().zip(frames).all(|(r, (_, t))| r == t);
    (us, same)
}

/// Reports the plan-cache counters accumulated between two snapshots,
/// per op.
pub fn report_plan_cache(
    m: &mut Measured,
    before: mgpu_gles::PlanCacheStats,
    after: mgpu_gles::PlanCacheStats,
    ops: f64,
) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let evictions = (after.evictions - before.evictions) as f64;
    let per = |x: f64| if ops > 0.0 { x / ops } else { 0.0 };
    m.layer("gles.plan_cache.hits", per(hits));
    m.layer("gles.plan_cache.misses", per(misses));
    m.layer("gles.plan_cache.evictions", per(evictions));
    m.layer(
        "gles.plan_cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
}
