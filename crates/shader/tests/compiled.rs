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
    compile, specialize, CompiledCore, CompiledProgram, Executor, ImageSampler, Sampler,
    UniformValues, LANES,
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

/// Runs `shader` over `n` random fragments (one vec2 varying) on both the
/// scalar and compiled engines and asserts bitwise-identical colours.
fn assert_engines_agree(
    shader: &Shader,
    uniforms: &UniformValues,
    rng: &mut Rng,
    n: usize,
    samplers: &[&dyn Sampler],
    src: &str,
) {
    let frag_varyings: Vec<[f32; 4]> = (0..n)
        .map(|_| [awkward_f32(rng), awkward_f32(rng), 0.0, 0.0])
        .collect();
    // Slot-major layout with stride LANES, as CompiledProgram::run
    // expects (these kernels use a single varying slot).
    let mut batch_varyings = vec![[0.0f32; 4]; LANES];
    batch_varyings[..n].copy_from_slice(&frag_varyings);

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
        assert_engines_agree(&shader, &uniforms, rng, n, &[], &src);
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
        assert_engines_agree(&shader, &uniforms, rng, n, &[&sampler], src);
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
        assert_engines_agree(&special, &uniforms, rng, 8, &[], &src);
    });
}
