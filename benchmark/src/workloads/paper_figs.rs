//! `paper_figs`: timing-only regeneration of the paper's evaluation —
//! every configuration point the `fig3`/`fig4a`/`fig4b`/`fig5`/`vbo`
//! experiments sweep, on both platforms, at n=1024 under the harness's
//! `Protocol`. No fragment is shaded. Op: one point (context, operator
//! build, steady-state protocol).

use std::time::Instant;

use mgpu_bench::setup::{best_config, sgemm_period, sum_period, Protocol, SumMode, PAPER_N};
use mgpu_benchmark::outcome::{matches, Expect, Observed};
use mgpu_benchmark::trace::{totals, Tracer};
use mgpu_gles::{BufferUsage, Gl};
use mgpu_gpgpu::kernels::{sgemm_kernel, sum_kernel_ranges};
use mgpu_gpgpu::{steady_period, GpgpuError, OptConfig, Range, RenderStrategy, Sgemm, Sum};
use mgpu_shader::{compile_with, cost, OptOptions};
use mgpu_tbdr::{Platform, SimTime};
use mgpu_workloads::{random_matrix, Matrix};

use super::{
    another_round, compile_options, hex, input_seeds, ns, observe, pin, record_pinned,
    replay_cost_model, Measured, Params, PhaseClock, SimDelta, Tail,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Whole sweeps a run makes at least (the repetition check needs two).
const MIN_SWEEPS: usize = 2;

#[derive(Clone, Copy)]
enum Kernel {
    Sum(SumMode),
    Sgemm(u32),
}

/// One configuration point.
#[derive(Clone)]
struct Point {
    fig: &'static str,
    platform: Platform,
    /// The configuration as the experiment passes it to `mgpu_bench::setup`.
    cfg: OptConfig,
    kernel: Kernel,
    expect: Expect,
}

fn sum(mode: (bool, bool)) -> Kernel {
    Kernel::Sum(SumMode {
        dependent: mode.0,
        reupload: mode.1,
    })
}

/// Every point, in the order the experiment modules visit them.
fn points() -> Vec<Point> {
    let tex = best_config(RenderStrategy::Texture);
    let fb = best_config(RenderStrategy::Framebuffer);
    let base = OptConfig::baseline();
    let plain = sum((false, false));
    let mut out = Vec::new();
    for platform in Platform::paper_pair() {
        let mut add = |fig: &'static str, cfg: OptConfig, kernel: Kernel, expect: Expect| {
            out.push(Point {
                fig,
                platform: platform.clone(),
                cfg,
                kernel,
                expect,
            });
        };
        let ok = Expect::Success;
        // fig3: vsync configurations, sum then sgemm block 16.
        let fig3 = [
            base,
            base.with_swap_interval_0(),
            base.without_swap(),
            base.without_swap().with_fp24(),
        ];
        for cfg in fig3 {
            add("fig3", cfg, plain, ok);
        }
        for cfg in fig3 {
            add("fig3", cfg, Kernel::Sgemm(16), ok);
        }
        // fig4a: both targets for sum, dependent sum and sgemm.
        for kernel in [plain, sum((true, false)), Kernel::Sgemm(16)] {
            add("fig4a", tex, kernel, ok);
            add("fig4a", fb, kernel, ok);
        }
        // fig4b: the block sweep, then block 32's shader-limit rejection.
        for block in [1, 2, 4, 8, 16] {
            add("fig4b", tex, Kernel::Sgemm(block), ok);
            add("fig4b", fb, Kernel::Sgemm(block), ok);
        }
        add("fig4b", tex, Kernel::Sgemm(32), Expect::ShaderLimit);
        // fig5: fresh vs reused storage under both targets.
        let stream = sum((false, true));
        for (target, sum_kernel) in [(tex, stream), (fb, plain)] {
            add("fig5", target, sum_kernel, ok);
            add("fig5", target.with_texture_reuse(), sum_kernel, ok);
            add("fig5", target, Kernel::Sgemm(16), ok);
            add("fig5", target.with_texture_reuse(), Kernel::Sgemm(16), ok);
        }
        // vbo: client arrays vs the three buffer hints.
        let v = base.with_swap_interval_0();
        add("vbo", v, plain, ok);
        for usage in [
            BufferUsage::StaticDraw,
            BufferUsage::DynamicDraw,
            BufferUsage::StreamDraw,
        ] {
            add("vbo", v.with_vbo(usage), plain, ok);
        }
    }
    out
}

fn protocol(kernel: Kernel) -> Protocol {
    match kernel {
        Kernel::Sum(_) => Protocol::default(),
        Kernel::Sgemm(_) => Protocol::sgemm(),
    }
}

/// Draws one point issues (for per-draw layer times).
fn draws(kernel: Kernel) -> u64 {
    let p = protocol(kernel);
    let per_iter = match kernel {
        Kernel::Sum(_) => 1,
        Kernel::Sgemm(block) => u64::from(PAPER_N / block),
    };
    (p.warmup + p.iters) as u64 * per_iter
}

/// Runs one point: the steady-state simulated period, or the typed error.
/// Mirrors `mgpu_bench::setup::{sum_period, sgemm_period}` with the
/// run's generated inputs and pinned execution knobs.
fn run_point(
    point: &Point,
    a: &Matrix,
    b: &Matrix,
    nproc: usize,
    tr: &mut Tracer,
    record_frames: bool,
) -> (Result<SimTime, GpgpuError>, Gl) {
    let n = PAPER_N;
    let proto = protocol(point.kernel);
    let cfg = pin(point.cfg, nproc);
    let mut gl = tr.span("gles.context_new", || Gl::new(point.platform.clone(), n, n));
    gl.set_functional(false);
    gl.set_frame_recording(record_frames);
    let r = match point.kernel {
        Kernel::Sum(mode) => tr
            .span("gpgpu.op_build", || {
                Sum::builder(n)
                    .dependent(mode.dependent)
                    .reupload(mode.reupload)
                    .range_out(Range::new(0.0, 2.0))
                    .build(&mut gl, &cfg, a.data(), b.data())
            })
            .and_then(|mut op| {
                tr.span("gles.draw_timing_only", || {
                    steady_period(&mut gl, proto.warmup, proto.iters, |gl| op.step(gl))
                })
            }),
        Kernel::Sgemm(block) => tr
            .span("gpgpu.op_build", || {
                Sgemm::new(&mut gl, &cfg, n, block, a.data(), b.data())
            })
            .and_then(|mut op| {
                tr.span("gles.draw_timing_only", || {
                    steady_period(&mut gl, proto.warmup, proto.iters, |gl| op.multiply(gl))
                })
            }),
    };
    (r, gl)
}

/// The point's outcome as digest input: the period, or the error text.
fn outcome_bytes(r: &Result<SimTime, GpgpuError>) -> Vec<u8> {
    match r {
        Ok(t) => t.as_nanos().to_le_bytes().to_vec(),
        Err(e) => e.to_string().into_bytes(),
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Result<Measured, GpgpuError> {
    let mut m = Measured::default();
    let process_start = crate::process_start();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (sa, sb) = input_seeds(p.seed);
        let a = tr.span("workloads.gen", || {
            random_matrix(PAPER_N as usize, sa, 0.0, 1.0)
        });
        let b = tr.span("workloads.gen", || {
            random_matrix(PAPER_N as usize, sb, 0.0, 1.0)
        });
        let pts = points();
        let id = tr.enter("warmup");
        let (warm, _) = run_point(&pts[0], &a, &b, p.nproc, tr, false);
        tr.exit(id);
        warm?;
        let from = if rep == 0 { process_start } else { t };
        m.setup_s.push(from.elapsed().as_secs_f64());
        inputs = Some((a, b, pts));
    }
    let Some((a, b, pts)) = inputs else {
        unreachable!("SETUP_REPS >= 1");
    };
    m.config("n", PAPER_N);
    m.config("points_per_sweep", pts.len());
    m.config("figures", "fig3 fig4a fig4b fig5 vbo");
    m.config("platforms", "PowerVR SGX 545, VideoCore IV");
    m.config("mode", "timing-only");
    record_pinned(&mut m, p.nproc);
    m.tail = Tail::Run {
        min_ops: MIN_SWEEPS * pts.len(),
    };

    // Whole sweeps until the time is up. Probes run on the first sweep.
    let mut sweep_digests = Vec::new();
    let mut first_sweep: Vec<Result<SimTime, GpgpuError>> = Vec::new();
    let mut probe = Probe::default();
    let mut limit_ok = true;
    let mut clock = PhaseClock::start();
    let mut op = 0u64;
    let mut sweep = 0usize;
    let mut last = std::time::Duration::ZERO;
    while another_round(&clock, last, p.seconds, sweep, MIN_SWEEPS) {
        let round_start = clock.elapsed();
        let mut digest = mgpu_benchmark::FNV_OFFSET;
        for point in &pts {
            op += 1;
            tr.set_op(op);
            let t = Instant::now();
            let id = tr.enter("op");
            let (r, mut gl) = run_point(point, &a, &b, p.nproc, tr, tr.enabled() && sweep == 0);
            tr.exit(id);
            let dt = ns(t.elapsed());
            let observed = observe(&r);
            m.tally.record(point.expect, observed);
            if point.expect == Expect::ShaderLimit {
                limit_ok &= matches(point.expect, observed);
            }
            m.op_ns.push(dt);
            if let Ok(period) = &r {
                m.sim_op_ns.push(period.as_nanos());
            }
            digest = mgpu_benchmark::fnv1a(digest, &outcome_bytes(&r));
            if tr.enabled() && sweep == 0 {
                clock.exclude(|| probe.point(point, &a, &b, &mut gl, observed, tr));
            }
            if sweep == 0 {
                first_sweep.push(r);
            }
        }
        sweep_digests.push(digest);
        sweep += 1;
        last = clock.elapsed() - round_start;
    }
    m.timed_ns = clock.elapsed_ns();
    tr.set_op(0);
    m.notes.push(("sweeps".to_owned(), sweep.to_string()));

    m.check(
        "fig4b block 32 fails with the typed shader-limit error",
        limit_ok,
        "both platforms".to_owned(),
    );
    let repeat_ok = sweep_digests.iter().all(|d| *d == sweep_digests[0]);
    m.check(
        "simulated results identical across sweeps",
        repeat_ok,
        format!("{} sweeps", sweep_digests.len()),
    );
    // The points are the harness's: spot-check one sum and one sgemm point
    // against `mgpu_bench::setup` itself (its fixed inputs, unpinned
    // knobs) — simulated time depends on neither.
    for i in [0, 4] {
        let point = &pts[i];
        let harness = match point.kernel {
            Kernel::Sum(mode) => {
                sum_period(&point.platform, &point.cfg, mode, &protocol(point.kernel))
            }
            Kernel::Sgemm(block) => {
                sgemm_period(&point.platform, &point.cfg, block, &protocol(point.kernel))
            }
        };
        let same = match (&harness, &first_sweep[i]) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        };
        m.check(
            "point matches mgpu_bench::setup",
            same,
            format!("{} point {i} on {}", point.fig, point.platform.name),
        );
    }
    let digest = hex(sweep_digests[0]);
    m.digests.push(("output".to_owned(), digest.clone()));
    m.digests.push(("sim".to_owned(), digest));

    if tr.enabled() {
        probe.report(&mut m, tr, pts.len() as f64);
    }
    Ok(m)
}

/// Per-layer probes of the first sweep.
#[derive(Default)]
struct Probe {
    compiles: u64,
    compile_s: f64,
    create_s: f64,
    analyzes: u64,
    analyze_s: f64,
    encoded: f64,
    encode_s: f64,
    frames: f64,
    cost_model_s: f64,
    replay_mismatches: u64,
    replays: u64,
    sim: SimDelta,
    draws: u64,
}

impl Probe {
    fn point(
        &mut self,
        point: &Point,
        a: &Matrix,
        b: &Matrix,
        gl: &mut Gl,
        observed: Observed,
        tr: &mut Tracer,
    ) {
        let id = tr.enter("probe");
        let cfg = point.cfg;
        let n = PAPER_N;
        let unit = Range::unit();
        let (src, ranges) = match point.kernel {
            Kernel::Sum(mode) => {
                let out = Range::new(0.0, 2.0);
                let a_range = if mode.dependent { out } else { unit };
                (
                    sum_kernel_ranges(cfg.encoding, &a_range, &unit, &out),
                    [a_range, unit],
                )
            }
            Kernel::Sgemm(block) => (
                sgemm_kernel(cfg.encoding, n, block, &unit, &Range::new(0.0, n as f32)),
                [unit, unit],
            ),
        };
        // Encode, hidden inside the operator build.
        let t = Instant::now();
        tr.span("gpgpu.encode", || {
            let _ = cfg.encoding.encode(a.data(), &ranges[0]);
            let _ = cfg.encoding.encode(b.data(), &ranges[1]);
        });
        self.encode_s += t.elapsed().as_secs_f64();
        self.encoded += (a.data().len() + b.data().len()) as f64;
        // Compile (the block-32 point's rejection included).
        let t = Instant::now();
        let shader = tr.span("shader.compile", || {
            compile_with(&src, &compile_options(&point.platform))
        });
        self.compile_s += t.elapsed().as_secs_f64();
        self.compiles += 1;
        if let Ok(shader) = shader {
            let t = Instant::now();
            tr.span("shader.cost_analyze", || cost::analyze(&shader));
            self.analyze_s += t.elapsed().as_secs_f64();
            self.analyzes += 1;
        }
        if observed == Observed::Success {
            self.draws += draws(point.kernel);
            let (us, same) = replay_cost_model(gl, tr);
            let frames = gl.recorded_frames().len() as f64;
            self.frames += frames;
            self.cost_model_s += us * frames / 1e6;
            self.replay_mismatches += u64::from(!same);
            self.replays += 1;
            self.sim.add(&SimDelta::of(&gl.report()));
        }
        // Program creation, also inside the operator build.
        let t = Instant::now();
        let _ = tr.span("gles.create_program", || {
            gl.create_program_with(&src, &OptOptions::full())
        });
        self.create_s += t.elapsed().as_secs_f64();
        tr.exit(id);
    }

    fn report(&self, m: &mut Measured, tr: &Tracer, ops: f64) {
        let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        m.layer(
            "shader.compile_ms",
            per(self.compile_s * 1e3, self.compiles as f64),
        );
        m.layer("shader.compiles", per(self.compiles as f64, ops));
        m.layer(
            "gles.create_program_ms",
            per(self.create_s * 1e3, self.compiles as f64),
        );
        m.layer(
            "shader.cost_analyze_us",
            per(self.analyze_s * 1e6, self.analyzes as f64),
        );
        m.layer(
            "gpgpu.encode_ns_per_value",
            per(self.encode_s * 1e9, self.encoded),
        );
        m.layer(
            "tbdr.cost_model_us_per_frame",
            per(self.cost_model_s * 1e6, self.frames),
        );
        m.check(
            "cost-model replay reproduces recorded frame timings",
            self.replay_mismatches == 0,
            format!("{} points, {} frames", self.replays, self.frames),
        );
        self.sim.report_per_op(m, self.replays as f64);
        let t = totals(tr.spans());
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        // Steady-state spans of timed ops only (set-up warm-ups excluded);
        // every sweep repeats the first sweep's draws.
        let (mut steady_ns, mut steady_calls) = (0u64, 0u64);
        for span in tr.spans() {
            if span.op > 0 && span.name == "gles.draw_timing_only" {
                steady_ns += span.duration_ns();
                steady_calls += 1;
            }
        }
        let sweeps = per(steady_calls as f64, self.replays as f64);
        m.layer(
            "gles.draw_timing_only_ms",
            per(steady_ns as f64 / 1e6, self.draws as f64 * sweeps),
        );
        m.layer("workloads.gen_ms", get("workloads.gen").mean_ms());
        m.layer("gles.context_new_ms", get("gles.context_new").mean_ms());
        m.layer("gpgpu.op_build_ms", get("gpgpu.op_build").mean_ms());
    }
}
