//! Error-path audit of the (parallel) draw path: every failure mode of
//! `draw_quad` must surface as a `GlError` and leave the context fully
//! usable — no lost texture data, no poisoned state, no unwinds.

use mgpu_gles::{DrawQuad, ExecConfig, Gl, GlError, TextureFormat};
use mgpu_tbdr::Platform;

const COPY_PROG: &str = "
    uniform sampler2D u_src;
    varying vec2 v_coord;
    void main() { gl_FragColor = texture2D(u_src, v_coord); }
";

const COORD_PROG: &str = "
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord, 0.0, 1.0); }
";

/// A kernel whose uniform is never set: compilation succeeds, execution
/// fails on the very first fragment.
const NEEDS_UNIFORM_PROG: &str = "
    uniform float u_k;
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord.x * u_k); }
";

fn gl_with_threads(threads: usize) -> Gl {
    let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
    gl.set_exec_config(ExecConfig::with_threads(threads));
    gl
}

/// After any failed draw, the context must complete a valid draw and
/// read back correct pixels.
fn assert_still_usable(gl: &mut Gl) {
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.bind_framebuffer(None).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let px = gl.read_pixels().unwrap();
    // Fragment (0,0) of an 8x8 grid has coords (0.0625, 0.0625) -> 16/255.
    assert_eq!(px[0], 16);
    assert_eq!(px[3], 255);
}

#[test]
fn feedback_loop_failure_preserves_texture_contents() {
    for threads in [1, 4] {
        let mut gl = gl_with_threads(threads);
        let prog = gl.create_program(COPY_PROG).unwrap();
        let tex = gl.create_texture();
        let data: Vec<u8> = (0..8 * 8 * 4).map(|i| (i % 251) as u8).collect();
        gl.tex_image_2d(tex, 8, 8, TextureFormat::Rgba8, Some(&data))
            .unwrap();
        gl.bind_texture(0, Some(tex)).unwrap();
        let fbo = gl.create_framebuffer();
        gl.bind_framebuffer(Some(fbo)).unwrap();
        gl.framebuffer_texture_2d(tex).unwrap();
        gl.use_program(Some(prog)).unwrap();
        let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)), "{err}");
        // The rejected draw must not have touched the texture.
        assert_eq!(gl.texture_data(tex).unwrap(), &data[..]);
        assert_still_usable(&mut gl);
    }
}

#[test]
fn incomplete_framebuffer_is_a_framebuffer_error() {
    for threads in [1, 4] {
        let mut gl = gl_with_threads(threads);
        let prog = gl.create_program(COORD_PROG).unwrap();
        let fbo = gl.create_framebuffer();
        gl.bind_framebuffer(Some(fbo)).unwrap();
        gl.use_program(Some(prog)).unwrap();
        let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
        assert!(
            matches!(err, GlError::InvalidFramebufferOperation(_)),
            "{err}"
        );
        assert_still_usable(&mut gl);
    }
}

#[test]
fn kernel_execution_failure_restores_render_target_data() {
    for threads in [1, 4] {
        let mut gl = gl_with_threads(threads);
        let prog = gl.create_program(NEEDS_UNIFORM_PROG).unwrap();

        // Render into a texture that already has recognisable contents.
        let target = gl.create_texture();
        let data: Vec<u8> = (0..8 * 8 * 4).map(|i| (i % 97) as u8).collect();
        gl.tex_image_2d(target, 8, 8, TextureFormat::Rgba8, Some(&data))
            .unwrap();
        let fbo = gl.create_framebuffer();
        gl.bind_framebuffer(Some(fbo)).unwrap();
        gl.framebuffer_texture_2d(target).unwrap();
        gl.use_program(Some(prog)).unwrap();

        let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
        assert!(matches!(err, GlError::InvalidOperation(_)), "{err}");
        assert!(err.to_string().contains("kernel execution"), "{err}");
        // The taken-out target data must have been put back even though
        // execution failed partway — the texture is not lost or emptied.
        assert_eq!(gl.texture_data(target).unwrap().len(), data.len());
        assert_still_usable(&mut gl);
    }
}

#[test]
fn serial_and_parallel_report_the_same_execution_error() {
    let errs: Vec<String> = [1, 4]
        .iter()
        .map(|&threads| {
            let mut gl = gl_with_threads(threads);
            let prog = gl.create_program(NEEDS_UNIFORM_PROG).unwrap();
            gl.use_program(Some(prog)).unwrap();
            gl.draw_quad(&DrawQuad::fullscreen())
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert_eq!(errs[0], errs[1]);
}

#[test]
fn oversized_texture_storage_is_invalid_value_and_leaves_the_texture_intact() {
    let mut gl = gl_with_threads(1);
    let tex = gl.create_texture();
    let data: Vec<u8> = (0..2 * 2 * 4).map(|i| i as u8).collect();
    gl.tex_image_2d(tex, 2, 2, TextureFormat::Rgba8, Some(&data))
        .unwrap();
    // `1<<31` squared times four channels wraps to exactly zero bytes;
    // `u32::MAX` squared overflows to a size no allocator can satisfy;
    // `1<<31` by `1<<30` fits `usize` at `2^63` bytes, past `isize::MAX`.
    for (w, h) in [
        (1u32 << 31, 1u32 << 31),
        (u32::MAX, u32::MAX),
        (1 << 31, 1 << 30),
    ] {
        for upload in [None, Some(&data[..])] {
            let err = gl
                .tex_image_2d(tex, w, h, TextureFormat::Rgba8, upload)
                .unwrap_err();
            assert!(matches!(err, GlError::InvalidValue(_)), "{w}x{h}: {err}");
            assert_eq!(gl.texture_info(tex).unwrap(), (2, 2, TextureFormat::Rgba8));
            assert_eq!(gl.texture_data(tex).unwrap(), &data[..]);
        }
    }
    assert_still_usable(&mut gl);
}

#[test]
fn oversized_surface_is_a_typed_error_not_a_panic() {
    // `u32::MAX` squared times four overflows `usize`; `1<<31` by `1<<30`
    // fits at `2^63` bytes, past `isize::MAX`.
    for (w, h) in [(u32::MAX, u32::MAX), (1u32 << 31, 1u32 << 30)] {
        let err = Gl::try_new(Platform::videocore_iv(), w, h).err().unwrap();
        assert!(matches!(err, GlError::InvalidValue(_)), "{w}x{h}: {err}");
    }
    // `2^62` bytes is a valid size no address space can map.
    let err = Gl::try_new(Platform::videocore_iv(), 1 << 31, 1 << 29)
        .err()
        .unwrap();
    assert!(matches!(err, GlError::OutOfMemory(_)), "{err}");
    // 4 TiB: refused by the allocator under Linux's default heuristic
    // overcommit; a host that overcommits always maps it lazily instead.
    match Gl::try_new(Platform::videocore_iv(), 1 << 20, 1 << 20) {
        Ok(_) | Err(GlError::OutOfMemory(_)) => {}
        Err(e) => panic!("1<<20 x 1<<20: {e}"),
    }
    assert_still_usable(&mut gl_with_threads(1));
}

#[test]
fn storage_uploaded_timing_only_is_a_typed_error_in_functional_work() {
    let mut gl = gl_with_threads(1);
    let prog = gl.create_program(COPY_PROG).unwrap();
    gl.set_functional(false);
    let src = gl.create_texture();
    let dst = gl.create_texture();
    let data = vec![7u8; 8 * 8 * 4];
    gl.tex_image_2d(src, 8, 8, TextureFormat::Rgba8, Some(&data))
        .unwrap();
    gl.tex_image_2d(dst, 8, 8, TextureFormat::Rgba8, None)
        .unwrap();
    gl.set_functional(true);
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.bind_texture(0, Some(src)).unwrap();
    let expect_named = |err: GlError, tex: &str| match err {
        GlError::InvalidOperation(msg) => {
            assert!(msg.contains(tex), "{msg}");
            assert!(msg.contains("timing-only"), "{msg}");
            assert!(!msg.contains("panicked"), "{msg}");
        }
        e => panic!("expected InvalidOperation, got {e}"),
    };

    // Sampling the empty texture.
    gl.framebuffer_texture_2d(dst).unwrap();
    let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
    expect_named(err, &src.to_string());
    // Rendering into one, once the sampled texture has its contents.
    gl.tex_image_2d(src, 8, 8, TextureFormat::Rgba8, Some(&data))
        .unwrap();
    let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
    expect_named(err, &dst.to_string());
    // Copying out of one.
    let copy = gl.create_texture();
    let err = gl
        .copy_tex_image_2d(copy, TextureFormat::Rgba8)
        .unwrap_err();
    expect_named(err, &dst.to_string());

    // Functional storage for the target makes the same draw work.
    gl.tex_image_2d(dst, 8, 8, TextureFormat::Rgba8, None)
        .unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    assert_eq!(gl.read_texture(dst).unwrap(), data);
    assert_still_usable(&mut gl);
}
