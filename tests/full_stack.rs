//! Cross-crate integration: functional results through the whole stack
//! (encoding → kernel compiler → GL driver → rasteriser → decode), and
//! consistency between the functional and timing engines.

use mgpu::gpgpu::{
    DotProduct, JacobiSolver, Pipeline, Reduction, Saxpy, Sgemm, Source, Sum, Transpose,
};
use mgpu::workloads::{max_abs_error, random_matrix, sgemm_blocked_ref};
use mgpu::{Gl, OptConfig, Platform, Range};

/// Functional results must be identical across platforms: the timing model
/// differs wildly, the pixels must not.
#[test]
fn results_are_platform_independent() {
    let n = 24usize;
    let a = random_matrix(n, 7, 0.0, 1.0);
    let b = random_matrix(n, 8, 0.0, 1.0);

    let mut results = Vec::new();
    for platform in Platform::paper_pair() {
        let mut gl = Gl::new(platform, n as u32, n as u32);
        let mut sum = Sum::builder(n as u32)
            .build(&mut gl, &OptConfig::baseline(), a.data(), b.data())
            .expect("sum builds");
        sum.step(&mut gl).expect("step");
        results.push(sum.result(&mut gl).expect("result"));
    }
    assert_eq!(
        results[0], results[1],
        "pixel results must match bit-for-bit"
    );
}

/// The render-target strategy must not change functional results either.
#[test]
fn results_are_target_independent() {
    let n = 16usize;
    let a = random_matrix(n, 9, 0.0, 1.0);
    let b = random_matrix(n, 10, 0.0, 1.0);
    let want = sgemm_blocked_ref(&a, &b, 4);

    for cfg in [
        OptConfig::baseline(),
        OptConfig::baseline()
            .with_swap_interval_0()
            .with_framebuffer_rendering(),
    ] {
        let mut gl = Gl::new(Platform::videocore_iv(), n as u32, n as u32);
        let mut sgemm = Sgemm::new(&mut gl, &cfg, n as u32, 4, a.data(), b.data()).expect("builds");
        sgemm.multiply(&mut gl).expect("multiply");
        let got = sgemm.result(&mut gl).expect("result");
        let err = max_abs_error(&got, want.data());
        assert!(err < 0.01, "target {:?}: error {err}", cfg.target);
    }
}

/// Timing is deterministic: the same program produces the same simulated
/// schedule, run after run.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let n = 32u32;
        let a = random_matrix(n as usize, 1, 0.0, 1.0);
        let b = random_matrix(n as usize, 2, 0.0, 1.0);
        let mut gl = Gl::new(Platform::sgx_545(), n, n);
        let mut sum = Sum::builder(n)
            .build(
                &mut gl,
                &OptConfig::baseline().without_swap(),
                a.data(),
                b.data(),
            )
            .expect("builds");
        sum.run(&mut gl, 10).expect("runs");
        gl.finish();
        let report = gl.report();
        (report.total_time, report.traffic, report.frames.len())
    };
    assert_eq!(run(), run());
}

/// Timing-only mode (`set_functional(false)`) is how every paper figure
/// is regenerated, so it must leave the simulation untouched: for every
/// operator, in each of its upload modes, with a readback and decode
/// between runs, the full `SimReport` (frames with their labels, traffic,
/// unit busy time, total time) equals a functional run's, on both
/// platforms.
#[test]
fn functional_mode_does_not_change_timing() {
    let n = 16u32;
    let a = random_matrix(n as usize, 3, 0.0, 1.0);
    let b = random_matrix(n as usize, 4, 0.0, 1.0);
    let (a, b) = (a.data(), b.data());
    let check = |what: &str, body: &dyn Fn(&mut Gl)| {
        for platform in Platform::paper_pair() {
            let run = |functional: bool| {
                let mut gl = Gl::new(platform.clone(), n, n);
                gl.set_functional(functional);
                body(&mut gl);
                gl.finish();
                gl.report()
            };
            let (on, off) = (run(true), run(false));
            assert!(!on.frames.is_empty(), "{what}: no frames");
            assert_eq!(on, off, "{what} on {}", platform.name);
        }
    };

    for (dependent, reupload) in [(false, false), (true, false), (false, true)] {
        for cfg in [
            OptConfig::baseline().without_swap(),
            OptConfig::baseline().without_swap().with_texture_reuse(),
        ] {
            check(
                &format!("sum dependent={dependent} reupload={reupload} {cfg:?}"),
                &|gl| {
                    let mut sum = Sum::builder(n)
                        .dependent(dependent)
                        .reupload(reupload)
                        .build(gl, &cfg, a, b)
                        .expect("builds");
                    sum.run(gl, 2).expect("runs");
                    sum.result(gl).expect("result");
                    sum.step(gl).expect("step");
                },
            );
        }
    }
    for cfg in [
        OptConfig::baseline().with_texture_rendering(),
        OptConfig::baseline().with_framebuffer_rendering(),
    ] {
        check(&format!("sgemm {cfg:?}"), &|gl| {
            let mut sgemm = Sgemm::new(gl, &cfg, n, 8, a, b).expect("builds");
            sgemm.multiply(gl).expect("multiply");
            sgemm.result(gl).expect("result");
            sgemm.multiply(gl).expect("multiply");
        });
    }
    let cfg = OptConfig::baseline().without_swap();
    check("saxpy", &|gl| {
        let mut saxpy = Saxpy::new(gl, &cfg, n, 0.5, a, b, Range::unit(), Range::new(0.0, 2.0))
            .expect("builds");
        saxpy.step(gl).expect("step");
        saxpy.result(gl).expect("result");
        saxpy.step(gl).expect("step");
    });
    check("jacobi", &|gl| {
        let mut jacobi = JacobiSolver::builder(n)
            .build(gl, &cfg, a, b)
            .expect("builds");
        jacobi.iterate(gl, 2).expect("iterates");
        jacobi.solution(gl).expect("solution");
        jacobi.step(gl).expect("step");
    });
    check("reduce", &|gl| {
        let mut reduce = Reduction::new(gl, &cfg, n, a).expect("builds");
        reduce.run(gl).expect("runs");
        reduce.run(gl).expect("runs");
    });
    check("transpose", &|gl| {
        let mut transpose = Transpose::new(gl, &cfg, n, a).expect("builds");
        transpose.apply(gl).expect("applies");
        transpose.result(gl, &Range::unit()).expect("result");
        transpose.apply(gl).expect("applies");
    });
    check("dot", &|gl| {
        let mut dot = DotProduct::new(gl, &cfg, n, a, b).expect("builds");
        dot.run(gl).expect("runs");
        dot.run(gl).expect("runs");
    });
    check("pipeline", &|gl| {
        let enc = cfg.encoding;
        let add = format!(
            "uniform sampler2D u_x;\nuniform sampler2D u_y;\nvarying vec2 v_coord;\n{}{}\
             void main() {{\n  gl_FragColor = pack(0.5 * (unpack(texture2D(u_x, v_coord)) \
             + unpack(texture2D(u_y, v_coord))));\n}}\n",
            enc.decode_fn_source(),
            enc.encode_fn_source()
        );
        let mut pipeline = Pipeline::builder(n)
            .input("b", b, Range::unit())
            .seed(a, Range::unit())
            .pass(
                &add,
                &[
                    ("u_x", Source::Previous),
                    ("u_y", Source::Input("b".into())),
                ],
                &[],
            )
            .pass(
                &add,
                &[
                    ("u_x", Source::Previous),
                    ("u_y", Source::Input("b".into())),
                ],
                &[],
            )
            .build(gl, &cfg)
            .expect("builds");
        pipeline.run_once(gl).expect("runs");
        pipeline.output(gl, &Range::unit()).expect("output");
        pipeline.run_once(gl).expect("runs");
    });
}

/// Traffic accounting matches first principles for a known pipeline.
#[test]
fn traffic_accounting_is_exact() {
    let n = 16u32;
    let bytes = u64::from(n) * u64::from(n) * 4;
    let a = random_matrix(n as usize, 5, 0.0, 1.0);
    let b = random_matrix(n as usize, 6, 0.0, 1.0);
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    let mut sum = Sum::builder(n)
        .build(
            &mut gl,
            &OptConfig::baseline().without_swap(),
            a.data(),
            b.data(),
        )
        .expect("builds");
    sum.step(&mut gl).expect("step");
    gl.finish();
    let t = gl.report().traffic;
    // Two input uploads.
    assert_eq!(t.upload_bytes, 2 * bytes);
    // One full-target writeback.
    assert_eq!(t.writeback_bytes, bytes);
    // Invalidated target: no reload; texture rendering: no copy.
    assert_eq!(t.reload_bytes, 0);
    assert_eq!(t.copy_bytes, 0);
}

/// sum's dependent mode really chains through the double-buffered output:
/// N steps accumulate N times B.
#[test]
fn dependent_chain_accumulates_across_both_targets() {
    let n = 8usize;
    let a = random_matrix(n, 1, 0.0, 0.5);
    let b = random_matrix(n, 2, 0.0, 0.05);
    for cfg in [
        OptConfig::baseline().without_swap(),
        OptConfig::baseline()
            .with_swap_interval_0()
            .with_framebuffer_rendering(),
    ] {
        let mut gl = Gl::new(Platform::sgx_545(), n as u32, n as u32);
        let mut sum = Sum::builder(n as u32)
            .dependent(true)
            .build(&mut gl, &cfg, a.data(), b.data())
            .expect("builds");
        sum.run(&mut gl, 6).expect("runs");
        let got = sum.result(&mut gl).expect("result");
        let want: Vec<f32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| x + 6.0 * y)
            .collect();
        let err = max_abs_error(&got, &want);
        assert!(err < 1e-3, "target {:?}: err {err}", cfg.target);
    }
}

/// The paper's 10 000-iteration protocol: steady state is reached and the
/// period converges (doubling the iterations barely moves it).
#[test]
fn steady_state_converges() {
    let n = 64u32;
    let a = random_matrix(n as usize, 1, 0.0, 1.0);
    let b = random_matrix(n as usize, 2, 0.0, 1.0);
    let measure = |iters: usize| {
        let mut gl = Gl::new(Platform::videocore_iv(), n, n);
        gl.set_functional(false);
        let mut sum = Sum::builder(n)
            .build(
                &mut gl,
                &OptConfig::baseline().without_swap(),
                a.data(),
                b.data(),
            )
            .expect("builds");
        mgpu::gpgpu::steady_period(&mut gl, 10, iters, |gl| sum.step(gl)).expect("period")
    };
    let p50 = measure(50).as_secs_f64();
    let p200 = measure(200).as_secs_f64();
    assert!(
        ((p50 - p200) / p200).abs() < 0.02,
        "steady period should converge: {p50} vs {p200}"
    );
}

/// Fig. 1 trace reconstruction spans the right memory operations for both
/// pipeline shapes.
#[test]
fn fig1_memory_operations_match_pipeline_shape() {
    use mgpu::tbdr::{
        annotate_frame, AllocKind, CopyOut, FragmentProfile, FrameWork, MemOp, PipelineSim,
        RenderTarget, ResourceId,
    };

    // Framebuffer pipeline: upload (2), writeback (3), copy (4).
    let mut c = 0;
    let mut fb_frame = FrameWork::simple(
        64,
        64,
        FragmentProfile {
            alu_cycles: 8.0,
            output_bytes: 4.0,
            ..FragmentProfile::default()
        },
    );
    fb_frame
        .uploads
        .push(mgpu::tbdr::Upload::fresh(ResourceId::next(&mut c), 1024));
    fb_frame.copy_out = Some(CopyOut {
        dest: ResourceId::next(&mut c),
        bytes: 64 * 64 * 4,
        alloc: AllocKind::Fresh,
    });
    let mut sim = PipelineSim::new(Platform::videocore_iv());
    let t = sim.submit(&fb_frame);
    let steps: Vec<u8> = annotate_frame(&fb_frame, &t)
        .iter()
        .map(|e| e.op.paper_step())
        .collect();
    assert_eq!(steps, vec![2, 3, 4]);

    // Texture pipeline: upload (2), tiles straight to texture (5).
    let mut tex_frame = fb_frame.clone();
    tex_frame.copy_out = None;
    tex_frame.target = RenderTarget::Texture {
        storage: ResourceId::next(&mut c),
        fresh: true,
    };
    let t = sim.submit(&tex_frame);
    let events = annotate_frame(&tex_frame, &t);
    assert!(events.iter().any(|e| e.op == MemOp::TileToTexture));
    assert!(!events
        .iter()
        .any(|e| e.op == MemOp::CopyFramebufferToTexture));
}
