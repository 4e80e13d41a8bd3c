//! Property suite for tile-signature redundancy elimination
//! (`MGPU_TILE_SKIP`).
//!
//! The signature cache invalidates two ways: *by keying* (anything a
//! draw-plan captures — program, uniforms, engine, target geometry,
//! corners — plus the tile rectangle itself re-keys the tile), and *by
//! signature* (texture contents are digested, so a content change makes
//! the stored signature mismatch and the entry is invalidated in place).
//! Render-target identity is deliberately **not** part of the key: the
//! paper's double-buffered multi-pass loops ping-pong between two chain
//! textures while re-shading identical tiles, and those replays are the
//! whole point. This suite regression-pins the exact counter arithmetic
//! of every one of those paths on the SGX's 16×16 tile grid, where a
//! 32×32 surface is exactly four tiles.

use mgpu_gles::{DrawQuad, Engine, ExecConfig, Gl, TextureFormat};
use mgpu_tbdr::Platform;

const SCALE_PROG: &str = "
    uniform float u_k;
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord.x * u_k, v_coord.y, u_k, 1.0); }
";

const SAMPLE_PROG: &str = "
    uniform sampler2D u_t;
    varying vec2 v_coord;
    void main() { gl_FragColor = texture2D(u_t, v_coord); }
";

/// Bytes one replayed 16×16 RGBA tile contributes to `bytes_replayed`.
const TILE_BYTES: u64 = 16 * 16 * 4;

/// A serial 32×32 context on the SGX's 16×16 tile grid (four tiles per
/// fullscreen draw) with tile skipping on.
fn skipping_gl() -> Gl {
    let mut gl = Gl::new(Platform::sgx_545(), 32, 32);
    gl.set_exec_config(ExecConfig::serial().with_tile_skip(true));
    gl
}

fn draw(gl: &mut Gl) -> Vec<u8> {
    gl.clear([0.0; 4]).expect("clear");
    gl.draw_quad(&DrawQuad::fullscreen()).expect("draw");
    gl.read_pixels().expect("read")
}

fn counters(gl: &Gl) -> (u64, u64, u64, u64, usize) {
    let s = gl.tile_skip_stats();
    (
        s.hits,
        s.misses,
        s.invalidations,
        s.bytes_replayed,
        s.entries,
    )
}

#[test]
fn repeat_draws_replay_whole_tiles_with_exact_counters() {
    let mut gl = skipping_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");

    let first = draw(&mut gl);
    assert_eq!(counters(&gl), (0, 4, 0, 0, 4), "cold draw misses all tiles");

    let second = draw(&mut gl);
    assert_eq!(second, first);
    assert_eq!(counters(&gl), (4, 4, 0, 4 * TILE_BYTES, 4));

    let third = draw(&mut gl);
    assert_eq!(third, first);
    assert_eq!(counters(&gl), (8, 4, 0, 8 * TILE_BYTES, 4));

    // A uniform change re-keys every tile: four fresh misses, the old
    // entries stay warm alongside.
    gl.set_uniform_scalar(prog, "u_k", 0.5).expect("sets");
    let halved = draw(&mut gl);
    assert_ne!(halved, first);
    assert_eq!(counters(&gl), (8, 8, 0, 8 * TILE_BYTES, 8));

    // Restoring the uniform replays the original tiles byte-for-byte.
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), first);
    assert_eq!(counters(&gl), (12, 8, 0, 12 * TILE_BYTES, 8));
}

#[test]
fn ping_pong_targets_share_tiles() {
    // The steady-state multi-pass shape: identical draws into alternating
    // render targets. Target identity is excluded from the tile key (no
    // blending, full overwrite), so the second target's draw replays the
    // first target's tiles.
    let mut gl = skipping_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");

    let make_target = |gl: &mut Gl| {
        let tex = gl.create_texture();
        gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, None)
            .expect("allocates");
        tex
    };
    let tex_a = make_target(&mut gl);
    let tex_b = make_target(&mut gl);
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).expect("binds");

    gl.framebuffer_texture_2d(tex_a).expect("attaches");
    draw(&mut gl);
    assert_eq!(counters(&gl), (0, 4, 0, 0, 4));

    gl.framebuffer_texture_2d(tex_b).expect("attaches");
    draw(&mut gl);
    assert_eq!(
        counters(&gl),
        (4, 4, 0, 4 * TILE_BYTES, 4),
        "second target must replay the first target's tiles"
    );
    assert_eq!(
        gl.read_texture(tex_a).expect("reads"),
        gl.read_texture(tex_b).expect("reads"),
        "replayed tiles must be byte-identical to shaded ones"
    );

    gl.framebuffer_texture_2d(tex_a).expect("attaches");
    draw(&mut gl);
    assert_eq!(counters(&gl), (8, 4, 0, 8 * TILE_BYTES, 4));
}

#[test]
fn band_draws_replay_the_fullscreen_draws_tiles() {
    let mut gl = skipping_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let full = draw(&mut gl);
    assert_eq!(counters(&gl), (0, 4, 0, 0, 4));

    // Tile rectangles are clipped to the band, and a tile-aligned band's
    // rectangles coincide exactly with the fullscreen draw's — so both
    // half-surface bands replay two warm tiles each.
    gl.clear([0.0; 4]).expect("clears");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(0, 16))
        .expect("bands");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(16, 32))
        .expect("bands");
    assert_eq!(gl.read_pixels().expect("reads"), full);
    assert_eq!(counters(&gl), (4, 4, 0, 4 * TILE_BYTES, 4));

    // A tile-misaligned band clips its rectangles mid-tile: distinct tile
    // keys, so it shades fresh entries instead of corrupting warm ones.
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(8, 16))
        .expect("bands");
    assert_eq!(gl.read_pixels().expect("reads"), full);
    let s = gl.tile_skip_stats();
    assert_eq!((s.hits, s.misses, s.entries), (4, 6, 6));
}

#[test]
fn texture_writes_invalidate_by_signature_not_by_key() {
    let mut gl = skipping_gl();
    let prog = gl.create_program(SAMPLE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_sampler(prog, "u_t", 0).expect("samplers");
    let tex = gl.create_texture();
    let ramp: Vec<u8> = (0..32 * 32 * 4).map(|i| (i % 251) as u8).collect();
    gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, Some(&ramp))
        .expect("uploads");
    gl.bind_texture(0, Some(tex)).expect("binds");

    let dim = draw(&mut gl);
    draw(&mut gl);
    assert_eq!(counters(&gl), (4, 4, 0, 4 * TILE_BYTES, 4));

    // Re-uploading the *same* texels bumps the content version, but the
    // digest revalidates: the tiles still hit.
    gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, Some(&ramp))
        .expect("respecs");
    assert_eq!(draw(&mut gl), dim);
    assert_eq!(counters(&gl), (8, 4, 0, 8 * TILE_BYTES, 4));

    // New contents: every tile's stored signature mismatches — counted as
    // an invalidation *and* a miss — and the fresh bytes are served.
    let inv: Vec<u8> = ramp.iter().map(|&b| 255 - b).collect();
    gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, Some(&inv))
        .expect("respecs");
    let bright = draw(&mut gl);
    assert_ne!(bright, dim);
    assert_eq!(counters(&gl), (8, 8, 4, 8 * TILE_BYTES, 4));

    // And the replacement entries are immediately warm.
    assert_eq!(draw(&mut gl), bright);
    assert_eq!(counters(&gl), (12, 8, 4, 12 * TILE_BYTES, 4));
}

#[test]
fn engine_switch_and_recreate_flush_the_cache() {
    let mut gl = skipping_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let golden = draw(&mut gl);
    draw(&mut gl);
    assert_eq!(counters(&gl), (4, 4, 0, 4 * TILE_BYTES, 4));

    // Switching the fragment engine (serial() pins Scalar, so Compiled is
    // a real switch) flushes: engine is part of the plan key anyway, but
    // stale entries must not pin memory. The switch must not change
    // pixels.
    gl.set_exec_config(
        ExecConfig::serial()
            .with_engine(Engine::Compiled)
            .with_tile_skip(true),
    );
    assert_eq!(gl.tile_skip_stats().entries, 0, "engine switch flushes");
    assert_eq!(gl.tile_skip_stats().invalidations, 4);
    assert_eq!(draw(&mut gl), golden);

    // Context recreation drops every entry: replays from a pre-loss cache
    // would resurrect destroyed-context state.
    let filled = gl.tile_skip_stats().entries;
    assert!(filled > 0);
    gl.recreate();
    assert_eq!(gl.tile_skip_stats().entries, 0, "recreate flushes");

    let prog = gl.create_program(SCALE_PROG).expect("recompiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    assert_eq!(draw(&mut gl), golden);
}

#[test]
fn disabling_skip_flushes_and_leaves_no_trace() {
    let mut gl = skipping_gl();
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    let golden = draw(&mut gl);
    assert_eq!(gl.tile_skip_stats().entries, 4);

    // Turning the knob off flushes and stops all signature work.
    gl.set_exec_config(ExecConfig::serial());
    assert_eq!(gl.tile_skip_stats().entries, 0);
    let after_off = gl.tile_skip_stats();
    assert_eq!(draw(&mut gl), golden);
    assert_eq!(
        gl.tile_skip_stats(),
        after_off,
        "skip-off draws must not touch the counters"
    );

    // Turning it back on starts cold.
    gl.set_exec_config(ExecConfig::serial().with_tile_skip(true));
    assert_eq!(draw(&mut gl), golden);
    assert_eq!(gl.tile_skip_stats().hits, after_off.hits);
}

#[test]
fn skip_off_contexts_never_record_stats() {
    let mut gl = Gl::new(Platform::sgx_545(), 32, 32);
    gl.set_exec_config(ExecConfig::serial());
    let prog = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(prog)).expect("uses");
    gl.set_uniform_scalar(prog, "u_k", 1.0).expect("sets");
    for _ in 0..3 {
        draw(&mut gl);
    }
    assert_eq!(counters(&gl), (0, 0, 0, 0, 0));
}

/// Replays a mutation script and snapshots every draw, at one skip
/// setting and dispatcher.
fn run_script(platform: &Platform, engine: Engine, pool: bool, skip: bool) -> Vec<Vec<u8>> {
    let mut gl = Gl::new(platform.clone(), 32, 32);
    gl.set_exec_config(
        ExecConfig::with_threads(3)
            .with_engine(engine)
            .with_pool(pool)
            .with_tile_skip(skip),
    );
    let mut shots = Vec::new();

    let scale = gl.create_program(SCALE_PROG).expect("compiles");
    gl.use_program(Some(scale)).expect("uses");
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl));
    shots.push(draw(&mut gl)); // warm repeat
    gl.set_uniform_scalar(scale, "u_k", 0.25).expect("sets");
    shots.push(draw(&mut gl)); // re-keyed
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl)); // warm again

    let sample = gl.create_program(SAMPLE_PROG).expect("compiles");
    gl.use_program(Some(sample)).expect("uses");
    gl.set_sampler(sample, "u_t", 0).expect("samplers");
    let tex = gl.create_texture();
    let ramp: Vec<u8> = (0..32 * 32 * 4).map(|i| (i % 251) as u8).collect();
    gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, Some(&ramp))
        .expect("uploads");
    gl.bind_texture(0, Some(tex)).expect("binds");
    shots.push(draw(&mut gl));
    shots.push(draw(&mut gl)); // warm sampled repeat
    let inv: Vec<u8> = ramp.iter().map(|&b| 255 - b).collect();
    gl.tex_image_2d(tex, 32, 32, TextureFormat::Rgba8, Some(&inv))
        .expect("respecs");
    shots.push(draw(&mut gl)); // signature-invalidated

    gl.use_program(Some(scale)).expect("uses");
    gl.clear([0.0; 4]).expect("clears");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(0, 20))
        .expect("bands");
    gl.draw_quad(&DrawQuad::fullscreen().with_row_band(20, 32))
        .expect("bands");
    shots.push(gl.read_pixels().expect("reads"));

    gl.recreate();
    let scale = gl.create_program(SCALE_PROG).expect("recompiles");
    gl.use_program(Some(scale)).expect("uses");
    gl.set_uniform_scalar(scale, "u_k", 1.0).expect("sets");
    shots.push(draw(&mut gl));

    gl.finish();
    shots
}

/// The headline property: for every platform × engine × dispatcher, the
/// skipping run replays the whole mutation script byte-for-byte like the
/// skip-off run. (Simulated reports legitimately differ — that is the
/// optimisation — so only pixels are compared here; report grouping is
/// the conformance oracle's job.)
#[test]
fn skip_is_pixel_invisible_across_the_mutation_script() {
    for platform in [Platform::videocore_iv(), Platform::sgx_545()] {
        for engine in [Engine::Scalar, Engine::Compiled] {
            for pool in [false, true] {
                let plain = run_script(&platform, engine, pool, false);
                let skipping = run_script(&platform, engine, pool, true);
                assert_eq!(
                    skipping, plain,
                    "tile skip changed pixels ({engine:?}, pool={pool} on {})",
                    platform.name
                );
            }
        }
    }
}
