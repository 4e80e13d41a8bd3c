//! `sum_stream`: functional `sum` at the paper size in the Fig. 5
//! streaming mode — the cheapest kernel on the largest target, with
//! uploads and readbacks beside it. Op: re-upload both inputs and one
//! `Sum::step` (the operator's re-upload mode), then `Sum::result`.

use std::time::Instant;

use mgpu_bench::setup::{best_config, PAPER_N};
use mgpu_benchmark::outcome::Expect;
use mgpu_benchmark::trace::{totals, Tracer};
use mgpu_gles::Gl;
use mgpu_gpgpu::kernels::sum_kernel_ranges;
use mgpu_gpgpu::{GpgpuError, OptConfig, Range, RenderStrategy, Sum};
use mgpu_shader::{compile_with, UniformValues};
use mgpu_tbdr::Platform;
use mgpu_workloads::{max_abs_error, random_matrix, sum_ref, Matrix};

use super::{
    compile_options, digest_f32, digest_u64, hex, input_seeds, ns, observe, pin, pinned_gl,
    record_exec, replay_cost_model, report_plan_cache, time_mean, tolerance, Measured, Params,
    PhaseClock, SimDelta, Tail,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const N: u32 = PAPER_N;
const SIM_DIGEST_OPS: usize = 2;
/// Timed ops a run makes at least, however slow the host: at ~76 ms an
/// op, 100 fit in a 10-second run, and 100 give the tail rule p90.
const MIN_OPS: usize = 100;
/// Repetitions of each transfer probe.
const PROBE_REPS: usize = 4;

fn config(nproc: usize) -> OptConfig {
    pin(
        best_config(RenderStrategy::Texture).with_texture_reuse(),
        nproc,
    )
}

fn range_out() -> Range {
    Range::new(0.0, 2.0)
}

struct State {
    gl: Gl,
    sum: Sum,
    a: Matrix,
    b: Matrix,
}

fn setup(p: &Params, tr: &mut Tracer, functional: bool) -> Result<State, GpgpuError> {
    let (sa, sb) = input_seeds(p.seed);
    let a = tr.span("workloads.gen", || random_matrix(N as usize, sa, 0.0, 1.0));
    let b = tr.span("workloads.gen", || random_matrix(N as usize, sb, 0.0, 1.0));
    let mut gl = tr.span("gles.context_new", || {
        pinned_gl(Platform::sgx_545(), N, p.nproc)
    });
    gl.set_functional(functional);
    gl.set_frame_recording(tr.enabled() && functional);
    let cfg = config(p.nproc);
    let mut sum = tr.span("gpgpu.op_build", || {
        Sum::builder(N).reupload(true).range_out(range_out()).build(
            &mut gl,
            &cfg,
            a.data(),
            b.data(),
        )
    })?;
    tr.span("warmup", || {
        sum.step(&mut gl)?;
        sum.result(&mut gl)
    })?;
    Ok(State { gl, sum, a, b })
}

/// One op: `Sum::step` (re-upload + draw) then `Sum::result` (readback +
/// decode).
fn op(
    sum: &mut Sum,
    gl: &mut Gl,
    tr: &mut Tracer,
    [draw, result]: [&'static str; 2],
) -> Result<Vec<f32>, GpgpuError> {
    tr.span(draw, || sum.step(gl))?;
    tr.span(result, || sum.result(gl))
}

pub fn run(p: &Params, tr: &mut Tracer) -> Result<Measured, GpgpuError> {
    let mut m = Measured::default();
    let process_start = crate::process_start();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first: each holds ~50 MiB of surfaces.
        drop(state.take());
        let t = Instant::now();
        let s = setup(p, tr, true)?;
        let from = if rep == 0 { process_start } else { t };
        m.setup_s.push(from.elapsed().as_secs_f64());
        state = Some(s);
    }
    let Some(State {
        mut gl,
        mut sum,
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
    m.config(
        "mode",
        "reupload + texture reuse, texture rendering, no swap",
    );
    let cfg = config(p.nproc);

    let mut twin = if tr.enabled() {
        Some(setup(p, tr, false)?)
    } else {
        None
    };

    let cache0 = gl.plan_cache_stats();
    let report0 = tr.enabled().then(|| gl.report());
    let mut last = Vec::new();
    let mut clock = PhaseClock::start();
    let mut n_op = 0u64;
    while clock.elapsed().as_secs() < p.seconds || m.op_ns.len() < MIN_OPS {
        n_op += 1;
        tr.set_op(n_op);
        let sim0 = gl.elapsed();
        let t = Instant::now();
        let id = tr.enter("op");
        let r = if tr.enabled() {
            op(&mut sum, &mut gl, tr, ["gles.draw", "gpgpu.result"])
        } else {
            sum.step(&mut gl).and_then(|()| sum.result(&mut gl))
        };
        tr.exit(id);
        let dt = ns(t.elapsed());
        m.tally.record(Expect::Success, observe(&r));
        match r {
            Ok(c) => last = c,
            Err(e) => {
                m.check("op ran", false, e.to_string());
                break;
            }
        }
        m.op_ns.push(dt);
        m.sim_op_ns.push((gl.elapsed() - sim0).as_nanos());
        if let Some(tw) = twin.as_mut() {
            clock.exclude(|| {
                op(
                    &mut tw.sum,
                    &mut tw.gl,
                    tr,
                    ["gles.draw_timing_only", "twin.result"],
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

    // Output check of the last op's result, outside the timed phase.
    let want = sum_ref(&a, &b);
    let err = f64::from(max_abs_error(&last, want.data()));
    let tol = tolerance(range_out().span(), 1);
    m.max_abs_err = Some(err);
    m.check(
        "sum matches sum_ref",
        !last.is_empty() && err <= tol,
        format!("max |gpu - cpu| {err:e} <= {tol:e}"),
    );
    m.digests
        .push(("output".to_owned(), hex(digest_f32(&last))));
    m.digests.push((
        "sim".to_owned(),
        hex(digest_u64(
            &m.sim_op_ns[..SIM_DIGEST_OPS.min(m.sim_op_ns.len())],
        )),
    ));

    if tr.enabled() {
        probes(p, &mut m, tr, &gl, &a, &b, &cfg);
    }
    Ok(m)
}

fn probes(
    p: &Params,
    m: &mut Measured,
    tr: &mut Tracer,
    gl: &Gl,
    a: &Matrix,
    b: &Matrix,
    cfg: &OptConfig,
) {
    let platform = gl.platform().clone();
    let enc = cfg.encoding;
    let src = sum_kernel_ranges(enc, &Range::unit(), &Range::unit(), &range_out());
    let opts = compile_options(&platform);
    let id = tr.enter("probe");

    let compile_s = time_mean(3, || {
        let _ = tr.span("shader.compile", || compile_with(&src, &opts));
    });
    m.layer("shader.compile_ms", compile_s * 1e3);
    m.layer("shader.compiles", 0.0);
    let mut probe_gl = pinned_gl(platform, N, p.nproc);
    let create_s = time_mean(3, || {
        let _ = tr.span("gles.create_program", || {
            probe_gl.create_program_with(&src, &mgpu_shader::OptOptions::full())
        });
    });
    m.layer("gles.create_program_ms", create_s * 1e3);
    if let Ok(shader) = compile_with(&src, &opts) {
        // `sum` has no uniforms: one plan per program.
        super::shader_probes(m, tr, &shader, &[UniformValues::new()]);
    }

    // Transfers hidden inside `Sum::step` (upload) and `Sum::result`
    // (readback + decode), timed with the same public calls on the same
    // bytes on a probe context.
    let values = (a.data().len() + b.data().len()) as f64;
    let mut encoded = Vec::new();
    let enc_s = time_mean(1, || {
        encoded = tr.span("gpgpu.encode", || {
            vec![
                enc.encode(a.data(), &Range::unit()),
                enc.encode(b.data(), &Range::unit()),
            ]
        });
    });
    m.layer("gpgpu.encode_ns_per_value", enc_s * 1e9 / values);
    let tex = probe_gl.create_texture();
    let fmt = enc.texture_format();
    if probe_gl
        .tex_image_2d(tex, N, N, fmt, Some(&encoded[0]))
        .is_ok()
    {
        let up_s = time_mean(PROBE_REPS, || {
            for bytes in &encoded {
                let _ = tr.span("gles.upload", || probe_gl.tex_sub_image_2d(tex, bytes));
            }
        }) / encoded.len() as f64;
        m.layer("gles.upload_ms", up_s * 1e3);
        m.layer(
            "gles.upload_mb_per_s",
            encoded[0].len() as f64 / up_s / (1 << 20) as f64,
        );
        let mut read = Vec::new();
        let rb_s = time_mean(PROBE_REPS, || {
            read = tr
                .span("gles.readback", || probe_gl.read_texture(tex))
                .unwrap_or_default();
        });
        m.layer("gles.readback_ms", rb_s * 1e3);
        m.layer(
            "gles.readback_mb_per_s",
            read.len() as f64 / rb_s / (1 << 20) as f64,
        );
        let dec_s = time_mean(PROBE_REPS, || {
            let _ = tr.span("gpgpu.decode", || enc.decode(&read, &range_out()));
        });
        m.layer(
            "gpgpu.decode_ns_per_value",
            dec_s * 1e9 / (read.len() / enc.bytes_per_value()).max(1) as f64,
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

    let t = totals(tr.spans());
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let (draw, twin) = (get("gles.draw"), get("gles.draw_timing_only"));
    m.layer("gles.draw_ms", draw.mean_ms());
    m.layer("gles.draw_timing_only_ms", twin.mean_ms());
    m.layer(
        "gles.shade_ns_per_fragment",
        (draw.total_ns as f64 - twin.total_ns as f64).max(0.0)
            / (draw.calls as f64 * f64::from(N) * f64::from(N)).max(1.0),
    );
    m.layer("workloads.gen_ms", get("workloads.gen").mean_ms());
    m.layer("gles.context_new_ms", get("gles.context_new").mean_ms());
    m.layer("gpgpu.op_build_ms", get("gpgpu.op_build").mean_ms());
}
