//! `sgemm_shade`: functional blocked sgemm on warm cached plans — nearly
//! all host time is fragment shading. Op: one `Sgemm::multiply`.

use std::time::Instant;

use mgpu_bench::setup::best_config;
use mgpu_benchmark::outcome::Expect;
use mgpu_benchmark::trace::Tracer;
use mgpu_gles::Gl;
use mgpu_gpgpu::kernels::sgemm_kernel;
use mgpu_gpgpu::{Encoding, GpgpuError, OptConfig, Range, RenderStrategy, Sgemm};
use mgpu_shader::compile_with;
use mgpu_tbdr::Platform;
use mgpu_workloads::{max_abs_error, random_matrix, sgemm_blocked_ref, Matrix};

use super::{
    compile_options, digest_f32, digest_u64, hex, input_seeds, ns, observe, pin, pinned_gl,
    record_exec, replay_cost_model, report_plan_cache, time_mean, tolerance, Measured, Params,
    PhaseClock, SimDelta, Tail,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const N: u32 = 256;
const BLOCK: u32 = 16;
/// Timed ops whose simulated times form the `sim` digest.
const SIM_DIGEST_OPS: usize = 2;
/// Timed ops a run makes at least, however slow the host: at ~0.2 s an
/// op, 40 fit in a 10-second run, and 40 give the tail rule p75.
const MIN_OPS: usize = 40;

fn config(nproc: usize) -> OptConfig {
    pin(best_config(RenderStrategy::Framebuffer), nproc)
}

struct State {
    gl: Gl,
    sgemm: Sgemm,
    a: Matrix,
    b: Matrix,
}

fn setup(p: &Params, tr: &mut Tracer, functional: bool) -> Result<State, GpgpuError> {
    let (sa, sb) = input_seeds(p.seed);
    let a = tr.span("workloads.gen", || random_matrix(N as usize, sa, 0.0, 1.0));
    let b = tr.span("workloads.gen", || random_matrix(N as usize, sb, 0.0, 1.0));
    let mut gl = tr.span("gles.context_new", || {
        pinned_gl(Platform::videocore_iv(), N, p.nproc)
    });
    gl.set_functional(functional);
    gl.set_frame_recording(tr.enabled() && functional);
    let cfg = config(p.nproc);
    let mut sgemm = tr.span("gpgpu.op_build", || {
        Sgemm::new(&mut gl, &cfg, N, BLOCK, a.data(), b.data())
    })?;
    tr.span("warmup", || sgemm.multiply(&mut gl))?;
    Ok(State { gl, sgemm, a, b })
}

/// One multiply as its public parts (`Sgemm::multiply` is exactly
/// `begin_multiply` then every `run_pass`), each in its layer's span.
fn traced_multiply(
    s: &mut Sgemm,
    gl: &mut Gl,
    tr: &mut Tracer,
    [upload, draw]: [&'static str; 2],
) -> Result<(), GpgpuError> {
    tr.span(upload, || s.begin_multiply(gl))?;
    for pass in 0..s.passes() {
        tr.span(draw, || s.run_pass(gl, pass, 1))?;
    }
    Ok(())
}

pub fn run(p: &Params, tr: &mut Tracer) -> Result<Measured, GpgpuError> {
    let mut m = Measured::default();
    let process_start = crate::process_start();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(p, tr, true)?;
        let from = if rep == 0 { process_start } else { t };
        m.setup_s.push(from.elapsed().as_secs_f64());
        state = Some(s);
    }
    let Some(State {
        mut gl,
        mut sgemm,
        a,
        b,
    }) = state
    else {
        unreachable!("SETUP_REPS >= 1");
    };
    record_exec(&mut m, &gl, p.nproc);
    m.tail = Tail::Run { min_ops: MIN_OPS };
    m.config("platform", gl.platform().name.clone());
    m.config("n", N);
    m.config("block", BLOCK);
    m.config("passes_per_op", sgemm.passes());
    m.config("target", "framebuffer, swap interval 0");
    let cfg = config(p.nproc);

    // Traced runs replay every op on a timing-only twin.
    let mut twin = if tr.enabled() {
        Some(setup(p, tr, false)?)
    } else {
        None
    };

    let cache0 = gl.plan_cache_stats();
    let report0 = tr.enabled().then(|| gl.report());
    let mut clock = PhaseClock::start();
    let mut op = 0u64;
    while clock.elapsed().as_secs() < p.seconds || m.op_ns.len() < MIN_OPS {
        op += 1;
        tr.set_op(op);
        let sim0 = gl.elapsed();
        let t = Instant::now();
        let r = if tr.enabled() {
            let id = tr.enter("op");
            let r = traced_multiply(&mut sgemm, &mut gl, tr, ["gles.upload", "gles.draw"]);
            tr.exit(id);
            r
        } else {
            sgemm.multiply(&mut gl)
        };
        let dt = ns(t.elapsed());
        m.tally.record(Expect::Success, observe(&r));
        if let Err(e) = r {
            m.check("op ran", false, e.to_string());
            break;
        }
        m.op_ns.push(dt);
        m.sim_op_ns.push((gl.elapsed() - sim0).as_nanos());
        if let Some(tw) = twin.as_mut() {
            clock.exclude(|| {
                traced_multiply(
                    &mut tw.sgemm,
                    &mut tw.gl,
                    tr,
                    ["twin.upload", "gles.draw_timing_only"],
                )
            })?;
        }
    }
    m.timed_ns = clock.elapsed_ns();
    tr.set_op(0);
    let ops = m.op_ns.len() as f64;

    if let Some(report0) = report0 {
        report_plan_cache(&mut m, cache0, gl.plan_cache_stats(), ops);
        SimDelta::between(&report0, &gl.report()).report_per_op(&mut m, ops);
    }

    // Output check, outside the timed phase.
    let got = sgemm.result(&mut gl)?;
    let want = sgemm_blocked_ref(&a, &b, BLOCK as usize);
    let err = f64::from(max_abs_error(&got, want.data()));
    let tol = tolerance(N as f32, sgemm.passes());
    m.max_abs_err = Some(err);
    m.check(
        "sgemm matches sgemm_blocked_ref",
        err <= tol,
        format!("max |gpu - cpu| {err:e} <= {tol:e}"),
    );
    m.digests.push(("output".to_owned(), hex(digest_f32(&got))));
    m.digests.push((
        "sim".to_owned(),
        hex(digest_u64(
            &m.sim_op_ns[..SIM_DIGEST_OPS.min(m.sim_op_ns.len())],
        )),
    ));

    if tr.enabled() {
        let mut st = State { gl, sgemm, a, b };
        probes(p, &mut m, tr, &mut st, &cfg);
    }
    Ok(m)
}

fn probes(p: &Params, m: &mut Measured, tr: &mut Tracer, st: &mut State, cfg: &OptConfig) {
    let State { gl, sgemm, a, b } = st;
    let platform = gl.platform().clone();
    let range_out = Range::new(0.0, N as f32);
    let src = sgemm_kernel(cfg.encoding, N, BLOCK, &Range::unit(), &range_out);
    let opts = compile_options(&platform);

    let id = tr.enter("probe");
    // Compile, once per op build.
    let compile_s = time_mean(3, || {
        let _ = tr.span("shader.compile", || compile_with(&src, &opts));
    });
    m.layer("shader.compile_ms", compile_s * 1e3);
    m.layer("shader.compiles", 0.0);
    let mut probe_gl = pinned_gl(platform.clone(), N, p.nproc);
    let create_s = time_mean(3, || {
        let _ = tr.span("gles.create_program", || {
            probe_gl.create_program_with(&src, &mgpu_shader::OptOptions::full())
        });
    });
    m.layer("gles.create_program_ms", create_s * 1e3);
    // Plan-build work per distinct uniform set (one per pass).
    if let Ok(shader) = compile_with(&src, &opts) {
        super::shader_probes(m, tr, &shader, &super::sgemm_uniform_sets(N, BLOCK));
    }
    // Encode (inside Sgemm::new) and decode (inside Sgemm::result).
    let values = (a.data().len() + b.data().len()) as f64;
    let enc_s = time_mean(1, || {
        tr.span("gpgpu.encode", || {
            let _ = Encoding::Fp32.encode(a.data(), &Range::unit());
            let _ = Encoding::Fp32.encode(b.data(), &Range::unit());
        });
    });
    m.layer("gpgpu.encode_ns_per_value", enc_s * 1e9 / values);
    let t = Instant::now();
    let bytes = tr.span("gles.readback", || sgemm.snapshot_bytes(gl));
    let readback_s = t.elapsed().as_secs_f64();
    if let Ok(bytes) = bytes {
        m.layer("gles.readback_ms", readback_s * 1e3);
        m.layer(
            "gles.readback_mb_per_s",
            bytes.len() as f64 / readback_s / (1 << 20) as f64,
        );
        let dec_s = time_mean(3, || {
            let _ = tr.span("gpgpu.decode", || cfg.encoding.decode(&bytes, &range_out));
        });
        m.layer(
            "gpgpu.decode_ns_per_value",
            dec_s * 1e9 / (bytes.len() / cfg.encoding.bytes_per_value()) as f64,
        );
    }
    let (us_per_frame, same) = replay_cost_model(gl, tr);
    m.layer("tbdr.cost_model_us_per_frame", us_per_frame);
    tr.exit(id);
    m.check(
        "cost-model replay reproduces recorded frame timings",
        same,
        format!("{} frames", gl.recorded_frames().len()),
    );

    // Layer times from the spans of the timed ops.
    let totals = mgpu_benchmark::trace::totals(tr.spans());
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let (draw, twin, upload) = (
        get("gles.draw"),
        get("gles.draw_timing_only"),
        get("gles.upload"),
    );
    m.layer("gles.draw_ms", draw.mean_ms());
    m.layer("gles.draw_timing_only_ms", twin.mean_ms());
    let fragments = draw.calls as f64 * f64::from(N * N);
    m.layer(
        "gles.shade_ns_per_fragment",
        (draw.total_ns as f64 - twin.total_ns as f64).max(0.0) / fragments.max(1.0),
    );
    m.layer("gles.upload_ms", upload.mean_ms());
    let seed_bytes = f64::from(N * N) * cfg.encoding.bytes_per_value() as f64;
    m.layer(
        "gles.upload_mb_per_s",
        if upload.total_ns > 0 {
            seed_bytes * upload.calls as f64 / (upload.total_ns as f64 / 1e9) / (1 << 20) as f64
        } else {
            0.0
        },
    );
    let gen = get("workloads.gen");
    m.layer("workloads.gen_ms", gen.mean_ms());
    m.layer("gles.context_new_ms", get("gles.context_new").mean_ms());
    m.layer("gpgpu.op_build_ms", get("gpgpu.op_build").mean_ms());
}
