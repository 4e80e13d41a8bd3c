//! GLES2 semantics and error-path coverage beyond the happy path.

use mgpu_gles::{
    BufferUsage, DrawQuad, Engine, ExecConfig, Gl, GlError, TextureFormat, VertexSource,
};
use mgpu_tbdr::{Platform, SimTime, SyncOp};

const COORD_PROG: &str = "
    varying vec2 v_coord;
    void main() { gl_FragColor = vec4(v_coord, 0.0, 1.0); }
";

fn gl() -> Gl {
    Gl::new(Platform::sgx_545(), 8, 8)
}

#[test]
fn texture_unit_out_of_range() {
    let mut gl = gl();
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 2, 2, TextureFormat::Rgba8, None)
        .unwrap();
    assert!(matches!(
        gl.bind_texture(99, Some(tex)).unwrap_err(),
        GlError::InvalidValue(_)
    ));
}

#[test]
fn binding_unknown_objects_fails() {
    let mut gl = gl();
    let tex = gl.create_texture();
    gl.delete_texture(tex).unwrap();
    assert!(gl.bind_texture(0, Some(tex)).is_err());

    // A second context's handles are not valid in the first (handles are
    // plain numbers, but deletion invalidates them).
    assert!(gl.texture_info(tex).is_err());
}

#[test]
fn wrong_size_upload_is_invalid_value() {
    let mut gl = gl();
    let tex = gl.create_texture();
    let err = gl
        .tex_image_2d(tex, 4, 4, TextureFormat::Rgba8, Some(&[0u8; 3]))
        .unwrap_err();
    assert!(matches!(err, GlError::InvalidValue(_)));

    // Rgb8 expects 3 bytes per texel.
    gl.tex_image_2d(tex, 2, 2, TextureFormat::Rgb8, Some(&[0u8; 12]))
        .unwrap();
    let err = gl.tex_sub_image_2d(tex, &[0u8; 16]).unwrap_err();
    assert!(matches!(err, GlError::InvalidValue(_)));
}

#[test]
fn sub_image_before_allocation_is_invalid_operation() {
    let mut gl = gl();
    let tex = gl.create_texture();
    assert!(matches!(
        gl.tex_sub_image_2d(tex, &[0u8; 4]).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
}

#[test]
fn drawing_to_an_incomplete_framebuffer_fails() {
    let mut gl = gl();
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).unwrap();
    // No colour attachment yet.
    let err = gl.draw_quad(&DrawQuad::fullscreen()).unwrap_err();
    assert!(matches!(err, GlError::InvalidFramebufferOperation(_)));
}

#[test]
fn attaching_an_unallocated_texture_fails() {
    let mut gl = gl();
    let fbo = gl.create_framebuffer();
    gl.bind_framebuffer(Some(fbo)).unwrap();
    let tex = gl.create_texture();
    assert!(matches!(
        gl.framebuffer_texture_2d(tex).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
}

#[test]
fn attaching_without_a_bound_fbo_fails() {
    let mut gl = gl();
    let tex = gl.create_texture();
    gl.tex_image_2d(tex, 4, 4, TextureFormat::Rgba8, None)
        .unwrap();
    assert!(matches!(
        gl.framebuffer_texture_2d(tex).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
}

#[test]
fn vbo_draw_requires_buffer_data() {
    let mut gl = gl();
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    let vbo = gl.create_buffer();
    let quad = DrawQuad::fullscreen().with_vertex_source(VertexSource::Vbo(vbo));
    assert!(matches!(
        gl.draw_quad(&quad).unwrap_err(),
        GlError::InvalidOperation(_)
    ));
    gl.buffer_data(vbo, 96, BufferUsage::StaticDraw).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&quad).unwrap();
}

#[test]
fn read_pixels_reflects_clear_color() {
    let mut gl = gl();
    gl.clear([1.0, 0.5, 0.0, 1.0]).unwrap();
    let px = gl.read_pixels().unwrap();
    assert_eq!(&px[..4], &[255, 128, 0, 255]);
}

#[test]
fn swap_cycles_back_buffers() {
    // Draw red, swap, draw green, swap: the two surfaces hold different
    // content, and rendering alternates between them.
    let mut gl = gl();
    let prog = gl
        .create_program(
            "uniform float u_r;\nvoid main() { gl_FragColor = vec4(u_r, 0.0, 0.0, 1.0); }",
        )
        .unwrap();
    gl.use_program(Some(prog)).unwrap();

    gl.set_uniform_scalar(prog, "u_r", 1.0).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let red = gl.read_pixels().unwrap();
    gl.swap_buffers().unwrap();

    gl.set_uniform_scalar(prog, "u_r", 0.0).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let black = gl.read_pixels().unwrap();

    assert_eq!(red[0], 255);
    assert_eq!(black[0], 0);
}

#[test]
fn discard_keeps_pixels_but_clear_overwrites_them() {
    let mut gl = gl();
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let drawn = gl.read_pixels().unwrap();

    // Discard invalidates for timing purposes but leaves bytes in place
    // (contents are undefined in real GL; the simulator keeps them).
    gl.discard_framebuffer().unwrap();
    assert_eq!(gl.read_pixels().unwrap(), drawn);

    gl.clear([0.0, 0.0, 0.0, 0.0]).unwrap();
    assert!(gl.read_pixels().unwrap().iter().all(|&b| b == 0));
}

#[test]
fn frame_recording_captures_work_descriptions() {
    let mut gl = gl();
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.set_frame_recording(true);
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen().with_label("recorded"))
        .unwrap();
    gl.finish();
    let frames = gl.recorded_frames();
    assert_eq!(frames.len(), 1);
    let (work, timing) = &frames[0];
    assert_eq!(work.label, "recorded");
    assert_eq!(work.fragment.fragments, 64);
    assert!(work.fragment.cleared);
    assert_eq!(work.sync, SyncOp::Finish);
    assert!(timing.frag_end > timing.frag_start);
}

#[test]
fn cpu_work_accounting_delays_the_next_frame() {
    let mut a = gl();
    let mut b = gl();
    for g in [&mut a, &mut b] {
        let prog = g.create_program(COORD_PROG).unwrap();
        g.use_program(Some(prog)).unwrap();
    }
    b.add_cpu_work(SimTime::from_millis(5));
    a.clear([0.0; 4]).unwrap();
    b.clear([0.0; 4]).unwrap();
    a.draw_quad(&DrawQuad::fullscreen()).unwrap();
    b.draw_quad(&DrawQuad::fullscreen()).unwrap();
    a.finish();
    b.finish();
    assert!(b.elapsed() >= a.elapsed() + SimTime::from_millis(5));
}

#[test]
fn program_validation_errors() {
    let mut gl = gl();
    // Syntax error surfaces with a line number in the info log.
    let err = gl
        .create_program("void main() { gl_FragColor = ; }")
        .unwrap_err();
    assert!(matches!(err, GlError::CompileFailed(_)));
    assert!(err.to_string().contains("line"));

    // Unknown uniform / sampler names are invalid values.
    let prog = gl.create_program(COORD_PROG).unwrap();
    assert!(matches!(
        gl.set_uniform_scalar(prog, "ghost", 1.0).unwrap_err(),
        GlError::InvalidValue(_)
    ));
    assert!(matches!(
        gl.set_sampler(prog, "ghost", 0).unwrap_err(),
        GlError::InvalidValue(_)
    ));
}

#[test]
fn use_program_none_then_draw_fails() {
    let mut gl = gl();
    let prog = gl.create_program(COORD_PROG).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.use_program(None).unwrap();
    assert!(gl.draw_quad(&DrawQuad::fullscreen()).is_err());
}

#[test]
fn linear_filtering_interpolates_between_texels() {
    use mgpu_gles::TextureFilter;
    let mut gl = Gl::new(Platform::videocore_iv(), 2, 1);
    // A program that samples the centre of the surface.
    let prog = gl
        .create_program(
            "uniform sampler2D u_t;\nvarying vec2 v_coord;\n\
             void main() { gl_FragColor = texture2D(u_t, vec2(0.5, 0.5)); }",
        )
        .unwrap();
    // 2x1 texture: black then white.
    let tex = gl.create_texture();
    gl.tex_image_2d(
        tex,
        2,
        1,
        TextureFormat::Rgba8,
        Some(&[0, 0, 0, 255, 255, 255, 255, 255]),
    )
    .unwrap();
    gl.bind_texture(0, Some(tex)).unwrap();
    gl.use_program(Some(prog)).unwrap();

    // Nearest at u=0.5 lands on the second texel.
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    assert_eq!(gl.read_pixels().unwrap()[0], 255);

    // Linear at u=0.5 sits exactly between the texel centres: 50% grey.
    gl.tex_parameter_filter(tex, TextureFilter::Linear).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    let px = gl.read_pixels().unwrap();
    assert!((i16::from(px[0]) - 128).abs() <= 1, "got {}", px[0]);

    // Stale handles still error.
    gl.delete_texture(tex).unwrap();
    assert!(gl
        .tex_parameter_filter(tex, TextureFilter::Nearest)
        .is_err());
}

#[test]
fn linear_filtering_clamps_at_edges() {
    use mgpu_gles::TextureFilter;
    let mut gl = Gl::new(Platform::sgx_545(), 2, 1);
    let prog = gl
        .create_program(
            "uniform sampler2D u_t;\nvarying vec2 v_coord;\n\
             void main() { gl_FragColor = texture2D(u_t, vec2(0.0, 0.5)); }",
        )
        .unwrap();
    let tex = gl.create_texture();
    gl.tex_image_2d(
        tex,
        2,
        1,
        TextureFormat::Rgba8,
        Some(&[10, 0, 0, 255, 250, 0, 0, 255]),
    )
    .unwrap();
    gl.tex_parameter_filter(tex, TextureFilter::Linear).unwrap();
    gl.bind_texture(0, Some(tex)).unwrap();
    gl.use_program(Some(prog)).unwrap();
    gl.clear([0.0; 4]).unwrap();
    gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
    // u=0.0 is half a texel left of the first centre: clamps to texel 0.
    assert_eq!(gl.read_pixels().unwrap()[0], 10);
}

/// Nearest sampling through a draw (the context's own texture view) at
/// the clamp edges. On an 8x8 target the fragment centres are
/// `(2i + 1) / 16`, so `c * 2 - 0.625` lands every fragment of a 4-texel
/// axis exactly on a texel edge from -2 to 5: below 0, on every interior
/// edge, and at and beyond the size. Biases one ulp either side nudge
/// the coordinates just off their edges (or, where the sum rounds, back
/// onto them; the expected texel uses the same f32 arithmetic). Each
/// fragment must read the texel at
/// `clamp(floor(u * 4))`, on both engines and both texel formats.
#[test]
fn nearest_sampling_clamps_at_texel_edges() {
    const PROG: &str = "
        uniform sampler2D u_t;
        uniform float u_bias;
        varying vec2 v_coord;
        void main() { gl_FragColor = texture2D(u_t, v_coord * 2.0 + u_bias); }
    ";
    let at = |frag: usize, bias: f32| {
        let c = (frag as f32 * 2.0 + 1.0) / 16.0;
        ((c * 2.0 + bias) * 4.0).floor().clamp(0.0, 3.0) as usize
    };
    for format in [TextureFormat::Rgba8, TextureFormat::Rgb8] {
        let ch = format.channels();
        let data: Vec<u8> = (0..16 * ch).map(|i| (i * 16 + 3) as u8).collect();
        for engine in [Engine::Scalar, Engine::Compiled] {
            let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
            gl.set_exec_config(ExecConfig::serial().with_engine(engine));
            let prog = gl.create_program(PROG).unwrap();
            let tex = gl.create_texture();
            gl.tex_image_2d(tex, 4, 4, format, Some(&data)).unwrap();
            gl.bind_texture(0, Some(tex)).unwrap();
            gl.use_program(Some(prog)).unwrap();
            for bias in [-0.625f32, (-0.625f32).next_down(), (-0.625f32).next_up()] {
                gl.set_uniform_scalar(prog, "u_bias", bias).unwrap();
                gl.clear([0.0; 4]).unwrap();
                gl.draw_quad(&DrawQuad::fullscreen()).unwrap();
                let px = gl.read_pixels().unwrap();
                for y in 0..8 {
                    for x in 0..8 {
                        let texel = (at(y, bias) * 4 + at(x, bias)) * ch;
                        let got = &px[(y * 8 + x) * 4..][..ch];
                        assert_eq!(
                            got,
                            &data[texel..texel + ch],
                            "{format:?} {engine:?} bias {bias:e} fragment ({x}, {y})"
                        );
                    }
                }
            }
        }
    }
}
