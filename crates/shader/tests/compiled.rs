//! Property tests: the compiled tier (`CompiledProgram` + `CompiledCore`)
//! is bit-identical to the scalar reference interpreter, and bind-time
//! specialisation preserves kernel semantics exactly.
//!
//! Cases are generated with the deterministic `mgpu-prop` runner, so every
//! run explores the same inputs. Varyings deliberately include NaN and
//! ±infinity, and batch sizes sweep partially-filled final batches.
//!
//! Comparisons are bitwise except for NaN payloads: when two *different*
//! NaN bit patterns meet in one operation, IEEE 754 leaves the propagated
//! payload unspecified and codegen may commute the operands, so scalar and
//! compiled evaluation can surface different (equally valid) NaN payloads.
//! NaN-*ness* itself is deterministic, every non-NaN value must match to
//! the bit, and the quantised pipeline output is byte-identical regardless
//! (all NaNs quantise to the same byte).

use mgpu_prop::{run_cases, Rng};
use mgpu_shader::ir::Shader;
use mgpu_shader::{
    compile, specialize, u8_to_unorm, CompiledCore, CompiledProgram, Executor, ImageSampler,
    Sampler, UniformValues, LANES,
};

/// A random expression over the varyings `v.x`/`v.y`, the uniforms
/// `k`/`q`, and literals, covering the arithmetic, comparison and
/// selection operators the compiled tier lowers to lane loops.
#[derive(Debug, Clone)]
enum Node {
    X,
    Y,
    K,
    Q(usize),
    Lit(f32),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Div(Box<Node>, Box<Node>),
    Min(Box<Node>, Box<Node>),
    Max(Box<Node>, Box<Node>),
    Mod(Box<Node>, Box<Node>),
    Step(Box<Node>, Box<Node>),
    Mix(Box<Node>, Box<Node>, Box<Node>),
    Clamp(Box<Node>),
    Floor(Box<Node>),
    Fract(Box<Node>),
    Abs(Box<Node>),
    Neg(Box<Node>),
    Select(Box<Node>, Box<Node>, Box<Node>, Box<Node>),
}

impl Node {
    fn render(&self) -> String {
        match self {
            Node::X => "v.x".into(),
            Node::Y => "v.y".into(),
            Node::K => "k".into(),
            Node::Q(c) => format!("q.{}", ["x", "y", "z", "w"][*c]),
            Node::Lit(v) => format!("{v:.4}"),
            Node::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            Node::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            Node::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            Node::Div(a, b) => format!("({} / {})", a.render(), b.render()),
            Node::Min(a, b) => format!("min({}, {})", a.render(), b.render()),
            Node::Max(a, b) => format!("max({}, {})", a.render(), b.render()),
            Node::Mod(a, b) => format!("mod({}, {})", a.render(), b.render()),
            Node::Step(a, b) => format!("step({}, {})", a.render(), b.render()),
            Node::Mix(a, b, t) => {
                format!("mix({}, {}, {})", a.render(), b.render(), t.render())
            }
            Node::Clamp(a) => format!("clamp({}, 0.0, 1.0)", a.render()),
            Node::Floor(a) => format!("floor({})", a.render()),
            Node::Fract(a) => format!("fract({})", a.render()),
            Node::Abs(a) => format!("abs({})", a.render()),
            Node::Neg(a) => format!("(-{})", a.render()),
            Node::Select(c, t, a, b) => format!(
                "(({} < {}) ? {} : {})",
                c.render(),
                t.render(),
                a.render(),
                b.render()
            ),
        }
    }
}

/// Generates a random expression tree of at most `depth` levels.
fn gen_node(rng: &mut Rng, depth: u32) -> Node {
    let choice = if depth == 0 {
        rng.u32_in(0, 5)
    } else {
        rng.u32_in(0, 20)
    };
    let sub = |rng: &mut Rng| Box::new(gen_node(rng, depth - 1));
    match choice {
        0 => Node::X,
        1 => Node::Y,
        2 => Node::K,
        3 => Node::Q(rng.usize_in(0, 4)),
        4 => Node::Lit(rng.f32(-4.0, 4.0)),
        5 => Node::Add(sub(rng), sub(rng)),
        6 => Node::Sub(sub(rng), sub(rng)),
        7 => Node::Mul(sub(rng), sub(rng)),
        8 => Node::Div(sub(rng), sub(rng)),
        9 => Node::Min(sub(rng), sub(rng)),
        10 => Node::Max(sub(rng), sub(rng)),
        11 => Node::Mod(sub(rng), sub(rng)),
        12 => Node::Step(sub(rng), sub(rng)),
        13 => Node::Mix(sub(rng), sub(rng), sub(rng)),
        14 => Node::Clamp(sub(rng)),
        15 => Node::Floor(sub(rng)),
        16 => Node::Fract(sub(rng)),
        17 => Node::Abs(sub(rng)),
        18 => Node::Neg(sub(rng)),
        _ => Node::Select(sub(rng), sub(rng), sub(rng), sub(rng)),
    }
}

fn kernel_source(expr: &Node) -> String {
    format!(
        "uniform float k;\nuniform vec4 q;\nvarying vec2 v;\nvoid main() {{ gl_FragColor = vec4({}); }}",
        expr.render()
    )
}

/// A varying component: usually finite, occasionally NaN or ±infinity so
/// the engines are compared on the full f32 value space.
fn awkward_f32(rng: &mut Rng) -> f32 {
    match rng.u32_in(0, 16) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        _ => rng.f32(-8.0, 8.0),
    }
}

/// Bitwise equality, except any NaN equals any NaN (payloads are the one
/// part of the result IEEE 754 leaves codegen-dependent).
fn bits_match(a: [f32; 4], b: [f32; 4]) -> bool {
    a.iter()
        .zip(&b)
        .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn random_uniforms(rng: &mut Rng) -> UniformValues {
    let mut uniforms = UniformValues::new();
    uniforms.set_scalar("k", rng.f32(-4.0, 4.0));
    uniforms.set(
        "q",
        [
            rng.f32(-4.0, 4.0),
            rng.f32(-4.0, 4.0),
            rng.f32(-4.0, 4.0),
            rng.f32(-4.0, 4.0),
        ],
    );
    uniforms
}

/// `n` random fragments of one vec2 varying, each component drawn by
/// `component`.
fn random_varyings(rng: &mut Rng, n: usize, component: impl Fn(&mut Rng) -> f32) -> Vec<[f32; 4]> {
    (0..n)
        .map(|_| [component(rng), component(rng), 0.0, 0.0])
        .collect()
}

/// Runs `shader` over one batch of fragments (one vec2 varying each, at
/// most `LANES`) on both the scalar and compiled engines and asserts
/// bitwise-identical colours.
fn assert_engines_agree(
    shader: &Shader,
    uniforms: &UniformValues,
    frag_varyings: &[[f32; 4]],
    samplers: &[&dyn Sampler],
    src: &str,
) {
    let n = frag_varyings.len();
    // Slot-major layout with stride LANES, as CompiledProgram::run
    // expects (these kernels use a single varying slot).
    let mut batch_varyings = vec![[0.0f32; 4]; LANES];
    batch_varyings[..n].copy_from_slice(frag_varyings);

    let mut scalar = Executor::new(shader, uniforms).expect("scalar binds");
    let program = CompiledProgram::build(shader, uniforms).expect("compiled builds");
    let mut core = CompiledCore::new(&program);

    let mut out = vec![[0.0f32; 4]; n];
    program
        .run(&mut core, &batch_varyings, n, samplers, &mut out)
        .expect("compiled runs");

    for (l, v) in frag_varyings.iter().enumerate() {
        let want = scalar.run(&[*v], samplers).expect("scalar runs");
        assert!(
            bits_match(out[l], want),
            "lane {l} of {n} diverged for varying {v:?}: {:?} vs {:?}\nsource:\n{src}",
            out[l].map(f32::to_bits),
            want.map(f32::to_bits),
        );
    }
}

/// The compiled tier computes bit-identical colours to the scalar
/// reference across random kernels, random (sometimes non-finite)
/// varyings, and partially-filled batches of every size from 1 to LANES.
#[test]
fn compiled_engine_matches_scalar_reference() {
    run_cases(192, |rng| {
        let expr = gen_node(rng, 4);
        let src = kernel_source(&expr);
        let shader = compile(&src).expect("generated kernel compiles");
        let uniforms = random_uniforms(rng);
        // Mostly ragged sizes, with the boundary cases pinned.
        let n = match rng.u32_in(0, 8) {
            0 => 1,
            1 => LANES,
            2 => LANES - 1,
            _ => rng.usize_in(1, LANES + 1),
        };
        let varyings = random_varyings(rng, n, awkward_f32);
        assert_engines_agree(&shader, &uniforms, &varyings, &[], &src);
    });
}

/// Same property through the texture path: the compiled tier's
/// `fetch_batch`/`fetch_row_batch` sampling (with its hoisted texel-scale
/// factors) matches scalar `fetch` bitwise, including NaN and
/// out-of-range coordinates.
#[test]
fn compiled_texture_sampling_matches_scalar() {
    run_cases(96, |rng| {
        let src = "
            uniform sampler2D tex;
            uniform float k;
            uniform vec4 q;
            varying vec2 v;
            void main() {
                vec4 t = texture2D(tex, v.xy * q.xy + q.zw);
                gl_FragColor = t * k + texture2D(tex, vec2(v.y, v.x));
            }
        ";
        let shader = compile(src).expect("texture kernel compiles");
        let w = rng.usize_in(1, 9) as u32;
        let h = rng.usize_in(1, 9) as u32;
        let data: Vec<u8> = (0..(w * h * 4) as usize).map(|_| rng.u8()).collect();
        let sampler = ImageSampler::new(w, h, data);
        let uniforms = random_uniforms(rng);
        let n = rng.usize_in(1, LANES + 1);
        let varyings = random_varyings(rng, n, awkward_f32);
        assert_engines_agree(&shader, &uniforms, &varyings, &[&sampler], src);
    });
}

/// Bind-time specialisation folds uniforms without changing a single bit
/// of output: the specialised kernel agrees with the original on both
/// engines, for arbitrary expressions and non-finite varyings.
#[test]
fn specialisation_preserves_bits_on_random_kernels() {
    run_cases(192, |rng| {
        let expr = gen_node(rng, 4);
        let src = kernel_source(&expr);
        let shader = compile(&src).expect("generated kernel compiles");
        let uniforms = random_uniforms(rng);
        let special = specialize(&shader, &uniforms).expect("specialises");
        // Specialisation prepends one Const per uniform; those survive when
        // the uniform feeds a varying-dependent op, so the kernel may grow
        // by at most that much (and usually shrinks).
        assert!(
            special.instruction_count() <= shader.instruction_count() + 2,
            "specialisation grew the kernel by more than the uniform prelude\nsource:\n{src}"
        );

        let mut reference = Executor::new(&shader, &uniforms).expect("binds");
        let mut folded = Executor::new(&special, &uniforms).expect("specialised binds");
        for _ in 0..8 {
            let v = [awkward_f32(rng), awkward_f32(rng), 0.0, 0.0];
            let a = reference.run(&[v], &[]).expect("runs");
            let b = folded.run(&[v], &[]).expect("specialised runs");
            assert!(
                bits_match(a, b),
                "specialisation changed output for varying {v:?}: {:?} vs {:?}\nsource:\n{src}",
                a.map(f32::to_bits),
                b.map(f32::to_bits),
            );
        }
        // The compiled tier lowers the specialised kernel to the same bits.
        let varyings = random_varyings(rng, 8, awkward_f32);
        assert_engines_agree(&special, &uniforms, &varyings, &[], &src);
    });
}

/// A random tree of the rounding operators (`floor`, `fract`, `mod`) over
/// the varyings, `k` and literals up to 2^23, with products to carry
/// values across integer and exponent boundaries.
fn gen_rounding(rng: &mut Rng, depth: u32) -> Node {
    let choice = if depth == 0 {
        rng.u32_in(0, 4)
    } else {
        rng.u32_in(0, 11)
    };
    let sub = |rng: &mut Rng| Box::new(gen_rounding(rng, depth - 1));
    match choice {
        0 => Node::X,
        1 => Node::Y,
        2 => Node::K,
        3 => Node::Lit(*rng.pick(&[0.5, 1.0, 3.0, 255.0, 256.0, 8_388_608.0])),
        4 | 5 => Node::Fract(sub(rng)),
        6 | 7 => Node::Floor(sub(rng)),
        8 => Node::Mod(sub(rng), sub(rng)),
        9 => Node::Mul(sub(rng), sub(rng)),
        _ => Node::Neg(sub(rng)),
    }
}

/// The compiled tier's libm-free `floor`/`fract`/`mod` agree with the
/// scalar tier's `f32::floor` on the inputs where rounding goes wrong:
/// negatives, `-0.0`, integers and halves ± 1 ulp, the 2^23 and 2^24
/// neighbourhoods, ±inf and NaNs.
#[test]
fn rounding_kernels_match_scalar_on_adversarial_varyings() {
    let specials = mgpu_prop::f32_specials();
    let component = |rng: &mut Rng| match rng.u32_in(0, 4) {
        0 => rng.f32(-16_777_216.0, 16_777_216.0),
        1 => rng.f32(-4.0, 4.0),
        _ => *rng.pick(&specials),
    };
    run_cases(192, |rng| {
        let exprs: Vec<String> = (0..4).map(|_| gen_rounding(rng, 3).render()).collect();
        let src = format!(
            "uniform float k;\nvarying vec2 v;\nvoid main() {{ gl_FragColor = vec4({}); }}",
            exprs.join(", ")
        );
        let shader = compile(&src).expect("generated kernel compiles");
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("k", component(rng));
        let n = rng.usize_in(1, LANES + 1);
        let varyings = random_varyings(rng, n, component);
        assert_engines_agree(&shader, &uniforms, &varyings, &[], &src);
    });
}

/// Coordinates along a `size`-texel axis at the clamp edges: just below
/// 0, on and one ulp either side of every texel edge, at and above 1, far
/// out of range, and non-finite.
fn clamp_edge_coords(size: u32) -> Vec<f32> {
    let mut out = vec![
        -0.0,
        -1e30,
        1e30,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for k in -1..=i64::from(size) + 1 {
        let u = k as f32 / size as f32;
        out.extend([u.next_down(), u, u.next_up()]);
    }
    out
}

/// Nearest sampling at the clamp edges. `ImageSampler::fetch` picks the
/// texel at `clamp(floor(u * w))`, and the compiled tier matches the
/// scalar tier through both the plain fetch and the fused dot gather, on
/// row-uniform batches and on mixed ones.
#[test]
fn nearest_sampling_at_clamp_edges_matches_floor_clamp() {
    let floor_clamp = |c: f32, size: u32| (c.floor() as i64).clamp(0, i64::from(size) - 1) as usize;
    let kernels = [
        "uniform sampler2D tex;\nvarying vec2 v;\nvoid main() { gl_FragColor = texture2D(tex, v); }",
        "uniform sampler2D tex;\nvarying vec2 v;\nvoid main() {\n\
             float d = dot(texture2D(tex, vec2(v.x, v.y)), vec4(1.0, 0.5, 0.25, 0.125));\n\
             gl_FragColor = vec4(d * 2.0 + 1.0);\n}",
    ];
    for (w, h) in [(1u32, 1u32), (3, 2), (4, 4), (7, 5)] {
        let data: Vec<u8> = (0..w * h * 4).map(|i| (i * 37 % 251) as u8).collect();
        let sampler = ImageSampler::new(w, h, data.clone());
        let (us, vs) = (clamp_edge_coords(w), clamp_edge_coords(h));
        for &v in &vs {
            for &u in &us {
                let (x, y) = (floor_clamp(u * w as f32, w), floor_clamp(v * h as f32, h));
                let idx = (y * w as usize + x) * 4;
                let want: Vec<f32> = data[idx..idx + 4].iter().map(|&b| u8_to_unorm(b)).collect();
                assert_eq!(
                    sampler.fetch(u, v)[..],
                    want[..],
                    "{w}x{h} at ({u:e}, {v:e})"
                );
            }
        }
        let rows = vs
            .iter()
            .map(|&v| us.iter().map(|&u| [u, v, 0.0, 0.0]).collect::<Vec<_>>());
        let mixed: Vec<[f32; 4]> = us
            .iter()
            .zip(vs.iter().cycle().skip(1))
            .map(|(&u, &v)| [u, v, 0.0, 0.0])
            .collect();
        for src in kernels {
            let shader = compile(src).expect("sampling kernel compiles");
            for batch in rows.clone().chain([mixed.clone()]) {
                for chunk in batch.chunks(LANES) {
                    assert_engines_agree(&shader, &UniformValues::new(), chunk, &[&sampler], src);
                }
            }
        }
    }
}
