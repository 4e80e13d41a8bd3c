//! The fragment rasteriser.
//!
//! GPGPU-over-GLES draws exactly one primitive shape: an axis-aligned quad
//! covering the render target, with varyings interpolated across it. This
//! module rasterises that shape functionally (running the compiled kernel
//! per fragment); arbitrary triangle meshes are out of scope for the
//! reproduction and rejected by the context layer.
//!
//! Every draw the context issues runs through one path: a [`DrawPlan`]
//! captures everything a draw sets up that does not depend on the
//! framebuffer contents — the (possibly specialised) shader, the column
//! table, and per-worker engine seats — and [`execute_plan`] dispatches it
//! over the context's persistent worker pool with work-stealing chunk
//! claiming (inline on the caller at one thread). The context caches
//! plans so repeated draws skip that setup, or builds a transient one per
//! draw when the cache is off. Chunk→bytes assignment is index-based and
//! disjoint, so the stealing schedule is byte-for-byte invisible.
//!
//! A plan's seats run on either tier of the fragment engine:
//!
//! * [`Engine::Scalar`] — the original per-fragment interpreter
//!   ([`ExecCore`], the state of [`mgpu_shader::Executor`]) over the
//!   unmodified shader: the reference;
//! * [`Engine::Compiled`] — the shader is first specialised against the
//!   bound uniforms ([`mgpu_shader::specialize`], unless specialisation
//!   is off), lowered once per plan into a [`CompiledProgram`] shared by
//!   every seat, then executed in [`LANES`]-wide batches.
//!
//! Both tiers share one interpolation scheme: a per-column table of the
//! horizontal lerps (which depend only on `x`), finished per fragment with
//! the vertical lerp — the exact f32 expressions of [`interpolate`], just
//! hoisted, so every engine/thread-count combination is byte-for-byte
//! identical. The closure-based [`rasterize_quad`] runs the scalar tier
//! serially and is the oracle the tests hold plans against; the
//! determinism tests at the workspace root prove the rest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mgpu_shader::ir::Shader;
use mgpu_shader::{
    specialize, CompiledCore, CompiledProgram, ExecCore, ExecError, Sampler, UniformValues, LANES,
};

use crate::exec::{Engine, CHUNK_ROWS};
use crate::pool::Executor as PoolExecutor;

/// Corner values for one varying, in the order: (0,0), (1,0), (0,1), (1,1)
/// of the unit quad (v increasing downward in texture space).
pub type VaryingCorners = [[f32; 4]; 4];

/// The standard GPGPU texcoord quad: each fragment receives its own
/// normalised coordinate, so texel (x, y) maps 1:1 onto fragment (x, y).
#[must_use]
pub fn texcoord_corners() -> VaryingCorners {
    [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
    ]
}

/// Bilinearly interpolates corner values at `(u, v)`.
#[must_use]
pub fn interpolate(corners: &VaryingCorners, u: f32, v: f32) -> [f32; 4] {
    let mut out = [0.0f32; 4];
    for c in 0..4 {
        let top = corners[0][c] * (1.0 - u) + corners[1][c] * u;
        let bottom = corners[2][c] * (1.0 - u) + corners[3][c] * u;
        out[c] = top * (1.0 - v) + bottom * v;
    }
    out
}

/// Column-hoisted varying interpolation for a fixed-width grid.
///
/// [`interpolate`] splits into a horizontal lerp (dependent only on `u`,
/// i.e. on the column) and a vertical lerp (dependent only on `v`). The
/// table precomputes the horizontal `top`/`bottom` pair for every
/// (varying, column) once per draw; [`ColumnTable::value`] finishes with
/// `top * (1 - v) + bottom * v` — the same f32 expression `interpolate`
/// evaluates, so hoisting is bitwise invisible.
struct ColumnTable {
    slots: usize,
    width: usize,
    /// `(top, bottom)` horizontal lerps, indexed `slot * width + x`.
    cols: Vec<([f32; 4], [f32; 4])>,
}

impl ColumnTable {
    fn new(corners: &[VaryingCorners], width: u32) -> Self {
        let width = width as usize;
        let mut cols = Vec::with_capacity(corners.len() * width);
        for corner in corners {
            for x in 0..width {
                let u = (x as f32 + 0.5) / width as f32;
                let (mut top, mut bottom) = ([0.0f32; 4], [0.0f32; 4]);
                for c in 0..4 {
                    top[c] = corner[0][c] * (1.0 - u) + corner[1][c] * u;
                    bottom[c] = corner[2][c] * (1.0 - u) + corner[3][c] * u;
                }
                cols.push((top, bottom));
            }
        }
        ColumnTable {
            slots: corners.len(),
            width,
            cols,
        }
    }

    /// The interpolated value of varying `slot` at column `x`, row
    /// position `v` — bit-identical to [`interpolate`] at the column's
    /// `u`.
    #[inline]
    fn value(&self, slot: usize, x: usize, v: f32) -> [f32; 4] {
        let (top, bottom) = &self.cols[slot * self.width + x];
        let mut out = [0.0f32; 4];
        for c in 0..4 {
            out[c] = top[c] * (1.0 - v) + bottom[c] * v;
        }
        out
    }
}

/// Runs `shader` over a `width`×`height` grid, calling `write` for every
/// fragment with its raw (unclamped) output colour.
///
/// This is the serial scalar reference path: the unmodified shader on the
/// per-fragment scalar interpreter, one fragment at a time.
///
/// `corners` supplies one corner set per varying slot, in shader declaration
/// order.
///
/// # Errors
///
/// Returns [`ExecError`] if uniforms or samplers are missing, or the corner
/// count does not match the shader's varyings.
pub fn rasterize_quad(
    shader: &Shader,
    uniforms: &UniformValues,
    samplers: &[&dyn Sampler],
    width: u32,
    height: u32,
    corners: &[VaryingCorners],
    write: impl FnMut(u32, u32, [f32; 4]),
) -> Result<(), ExecError> {
    check_corners(shader, corners)?;
    let table = ColumnTable::new(corners, width);
    let mut seat = FragSeat::new(shader, uniforms, &Lowered::Scalar, corners.len())?;
    run_seat_span(
        &mut seat, shader, samplers, &table, height, 0, width, 0, height, write,
    )
}

/// A writable pixel buffer for the plan executor.
#[derive(Debug)]
pub(crate) struct RasterTarget<'a> {
    /// Target width in pixels.
    pub(crate) width: u32,
    /// Target height in pixels.
    pub(crate) height: u32,
    /// Bytes stored per pixel (the first `channels` of the quantised RGBA).
    pub(crate) channels: usize,
    /// Row-major pixel bytes, at least `width * height * channels` long.
    pub(crate) data: &'a mut [u8],
}

/// Extracts a printable message from a caught panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn check_corners(shader: &Shader, corners: &[VaryingCorners]) -> Result<(), ExecError> {
    let n_varyings = shader.varying_slots().count();
    if corners.len() != n_varyings {
        return Err(ExecError::new(format!(
            "shader has {n_varyings} varyings, {} corner sets provided",
            corners.len()
        )));
    }
    Ok(())
}

/// A draw's shader lowered for its engine tier, built once per draw (or
/// per plan) by [`lower`] and shared by every seat.
enum Lowered {
    /// The scalar tier interprets the IR directly: nothing to lower.
    Scalar,
    /// The compiled tier's native-closure program.
    Compiled(Arc<CompiledProgram>),
}

impl Lowered {
    fn engine(&self) -> Engine {
        match self {
            Lowered::Scalar => Engine::Scalar,
            Lowered::Compiled(_) => Engine::Compiled,
        }
    }
}

/// The engine decision every plan shares. The compiled tier
/// folds the bound uniforms into `source` as constants (bind-time
/// specialisation, unless `spec` is off — `MGPU_SPEC=off` or
/// `ExecConfig::with_specialization(false)` — in which case the lowering
/// folds them into constant planes instead) and lowers the result once.
/// The scalar tier runs `source` as is: it stays the pristine reference
/// path. Returns the specialised shader, if one was made, with the
/// lowered program. Timing is computed by the caller from the original
/// shader, so none of this can perturb the simulated cost.
fn lower(
    source: &Shader,
    uniforms: &UniformValues,
    engine: Engine,
    spec: bool,
) -> Result<(Option<Shader>, Lowered), ExecError> {
    match engine {
        Engine::Scalar => Ok((None, Lowered::Scalar)),
        Engine::Compiled => {
            let specialized = spec.then(|| specialize(source, uniforms)).transpose()?;
            let program = CompiledProgram::build(specialized.as_ref().unwrap_or(source), uniforms)?;
            Ok((specialized, Lowered::Compiled(Arc::new(program))))
        }
    }
}

/// One worker's engine state: built on
/// [`ExecCore`]/[`CompiledCore`] so it holds no shader borrow and a
/// [`DrawPlan`] can cache it across draws.
enum FragSeat {
    /// Per-fragment scalar interpretation.
    Scalar(ExecCore),
    /// Fused native-closure execution (boxed: large plane file). The
    /// program is one shared build per plan — seats only own a plane file
    /// and staging buffers.
    Compiled(Box<CompiledSeat>),
}

/// The compiled tier's plane file plus staging, sharing the plan's
/// lowered program: lowering happens once per plan, not once per seat.
struct CompiledSeat {
    program: Arc<CompiledProgram>,
    core: CompiledCore,
    /// Slot-major varying staging, stride [`LANES`].
    varyings: Vec<[f32; 4]>,
    /// Per-lane output colours of the current batch.
    colors: [[f32; 4]; LANES],
}

impl FragSeat {
    /// A seat on `lowered`'s tier, bound to `shader` (the shader `lowered`
    /// was built from) and `uniforms`.
    fn new(
        shader: &Shader,
        uniforms: &UniformValues,
        lowered: &Lowered,
        slots: usize,
    ) -> Result<Self, ExecError> {
        Ok(match lowered {
            Lowered::Scalar => FragSeat::Scalar(ExecCore::new(shader, uniforms)?),
            Lowered::Compiled(program) => FragSeat::Compiled(Box::new(CompiledSeat {
                program: Arc::clone(program),
                core: CompiledCore::new(program),
                varyings: vec![[0.0f32; 4]; slots * LANES],
                colors: [[0.0f32; 4]; LANES],
            })),
        })
    }

    /// Rebinds the seat as [`FragSeat::new`] would bind a fresh one,
    /// reusing its allocations when it is already on `lowered`'s tier.
    fn rebind(
        &mut self,
        shader: &Shader,
        uniforms: &UniformValues,
        lowered: &Lowered,
        slots: usize,
    ) -> Result<(), ExecError> {
        match (&mut *self, lowered) {
            (FragSeat::Scalar(core), Lowered::Scalar) => core.rebind(shader, uniforms),
            (FragSeat::Compiled(seat), Lowered::Compiled(program)) => {
                seat.core.rebind(program);
                seat.program = Arc::clone(program);
                seat.varyings.resize(slots * LANES, [0.0f32; 4]);
                Ok(())
            }
            _ => {
                *self = FragSeat::new(shader, uniforms, lowered, slots)?;
                Ok(())
            }
        }
    }
}

/// Runs a seat over rows `y0..y1`, quantising into `out` (which covers
/// exactly those rows). Shared by the inline serial path and every pool
/// participant, so both interpolate and execute through the same code.
#[allow(clippy::too_many_arguments)]
fn run_seat_rows(
    seat: &mut FragSeat,
    shader: &Shader,
    samplers: &[&dyn Sampler],
    table: &ColumnTable,
    height: u32,
    y0: u32,
    y1: u32,
    channels: usize,
    out: &mut [u8],
) -> Result<(), ExecError> {
    let width = table.width;
    run_seat_span(
        seat,
        shader,
        samplers,
        table,
        height,
        0,
        width as u32,
        y0,
        y1,
        |x, y, rgba| {
            let px = quantize_rgba8(rgba);
            let idx = ((y - y0) as usize * width + x as usize) * channels;
            out[idx..idx + channels].copy_from_slice(&px[..channels]);
        },
    )
}

/// Runs a seat over the fragment rectangle `x0..x1` × `y0..y1`, calling
/// `emit` with each fragment's global position and raw colour.
///
/// Every fragment is a pure function of its own `(x, y)` — lanes of a
/// batch never exchange data — so restricting a row to a column span
/// produces the same bytes those columns get from a full-row run, whatever
/// batch boundaries the span induces. This is the primitive that lets
/// tile-level redundancy elimination re-shade a single stale tile.
#[allow(clippy::too_many_arguments)]
fn run_seat_span(
    seat: &mut FragSeat,
    shader: &Shader,
    samplers: &[&dyn Sampler],
    table: &ColumnTable,
    height: u32,
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    mut emit: impl FnMut(u32, u32, [f32; 4]),
) -> Result<(), ExecError> {
    match seat {
        FragSeat::Scalar(core) => {
            let mut varying_values = vec![[0.0f32; 4]; table.slots];
            for y in y0..y1 {
                let v = (y as f32 + 0.5) / height as f32;
                for x in x0..x1 {
                    for (slot, val) in varying_values.iter_mut().enumerate() {
                        *val = table.value(slot, x as usize, v);
                    }
                    emit(x, y, core.run(shader, &varying_values, samplers)?);
                }
            }
        }
        FragSeat::Compiled(st) => {
            let CompiledSeat {
                program,
                core,
                varyings,
                colors,
            } = &mut **st;
            for y in y0..y1 {
                let v = (y as f32 + 0.5) / height as f32;
                let mut xb = x0;
                while xb < x1 {
                    let n = (x1 - xb).min(LANES as u32) as usize;
                    for slot in 0..table.slots {
                        for l in 0..n {
                            varyings[slot * LANES + l] = table.value(slot, xb as usize + l, v);
                        }
                    }
                    program.run(core, varyings, n, samplers, colors)?;
                    for (l, &color) in colors[..n].iter().enumerate() {
                        emit(xb + l as u32, y, color);
                    }
                    xb += n as u32;
                }
            }
        }
    }
    Ok(())
}

/// Everything a draw sets up that does not depend on framebuffer or
/// texture *contents*: the executable shader (specialised against the
/// bound uniforms on the compiled tier), the column-hoisted interpolation
/// table for the target width, and per-worker engine seats. The context's
/// plan cache keys these by (program, shader hash, uniform hash, engine,
/// target geometry, corners), so a cached plan is only ever executed with
/// exactly the state it was built from; sampler views are *not* part of a
/// plan — texture contents change between GPGPU passes — and are passed
/// fresh to every [`execute_plan`] call.
pub(crate) struct DrawPlan {
    /// The shader the seats are bound to: the source program's shader on
    /// the scalar tier, its uniform-specialised clone on the compiled
    /// tier (with specialisation enabled).
    shader: Arc<Shader>,
    /// The shader lowered for the plan's tier, built once per plan and
    /// shared by every seat. Caching the plan therefore caches the
    /// lowering — a cache hit pays zero decode *and* zero build.
    lowered: Lowered,
    /// Kept so additional seats can be bound lazily when the thread count
    /// rises after the plan was built.
    uniforms: UniformValues,
    /// Varying slot count (= corner-set count).
    slots: usize,
    /// Target width the column table was hoisted for.
    width: u32,
    table: ColumnTable,
    seats: Vec<FragSeat>,
}

impl std::fmt::Debug for DrawPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrawPlan")
            .field("engine", &self.lowered.engine())
            .field("width", &self.width)
            .field("slots", &self.slots)
            .field("seats", &self.seats.len())
            .finish()
    }
}

impl DrawPlan {
    /// Builds a plan for drawing `source` with `uniforms` onto a
    /// `width`-wide target. `recycled` donates a dead plan's allocations
    /// (seats, register files; a seat on another tier is rebuilt) — used
    /// by the cache-disabled path to avoid rebuilding engine state from
    /// scratch every draw.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the corner count does not match the
    /// shader's varyings or a declared uniform has no bound value.
    pub(crate) fn build(
        source: &Arc<Shader>,
        uniforms: &UniformValues,
        engine: Engine,
        spec: bool,
        corners: &[VaryingCorners],
        width: u32,
        recycled: Option<DrawPlan>,
    ) -> Result<DrawPlan, ExecError> {
        check_corners(source, corners)?;
        // Lower once per plan; every seat shares the build.
        let (specialized, lowered) = lower(source, uniforms, engine, spec)?;
        let shader = specialized.map_or_else(|| Arc::clone(source), Arc::new);
        let slots = corners.len();
        let mut seats = recycled.map_or_else(Vec::new, |old| old.seats);
        for seat in &mut seats {
            seat.rebind(&shader, uniforms, &lowered, slots)?;
        }
        if seats.is_empty() {
            seats.push(FragSeat::new(&shader, uniforms, &lowered, slots)?);
        }
        Ok(DrawPlan {
            shader,
            lowered,
            uniforms: uniforms.clone(),
            slots,
            width,
            table: ColumnTable::new(corners, width),
            seats,
        })
    }

    fn ensure_seats(&mut self, n: usize) -> Result<(), ExecError> {
        while self.seats.len() < n {
            self.seats.push(FragSeat::new(
                &self.shader,
                &self.uniforms,
                &self.lowered,
                self.slots,
            )?);
        }
        Ok(())
    }

    /// Content hash of the column-table slice covering columns `x0..x1` —
    /// the horizontal half of every varying this plan interpolates over
    /// those columns, by exact f32 bit pattern. Together with the rows and
    /// target height (which pin the vertical lerp), this is the tile's
    /// complete varying input, which is why the tile-signature cache folds
    /// it into each tile's signature.
    pub(crate) fn column_slice_hash(&self, x0: u32, x1: u32) -> u64 {
        let mut h = mgpu_shader::hash::Fnv64::new();
        h.write_u64(self.slots as u64);
        h.write_u32(x0);
        h.write_u32(x1);
        for slot in 0..self.slots {
            for x in x0 as usize..(x1 as usize).min(self.width as usize) {
                let (top, bottom) = &self.table.cols[slot * self.table.width + x];
                for c in 0..4 {
                    h.write_f32(top[c]);
                    h.write_f32(bottom[c]);
                }
            }
        }
        h.finish()
    }

    /// Varying slot count (used to model per-tile signature traffic).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots
    }

    /// Conservative bounds of every varying's first two components over
    /// the tile rect `x0..x1` × `y0..y1` of a `height`-row target:
    /// the smallest `[min_u, min_v]..[max_u, max_v]` box containing every
    /// value any fragment in the rect can observe. The row interpolation
    /// factor `(y + 0.5) / height` is monotonic in `y`, so evaluating the
    /// exact per-row lerp at the band's first and last rows bounds every
    /// interior row. Returns `None` when the plan has no varyings or any
    /// bound is non-finite (the caller falls back to whole-texture
    /// signatures).
    pub(crate) fn varying_hull(
        &self,
        x0: u32,
        x1: u32,
        y0: u32,
        y1: u32,
        height: u32,
    ) -> Option<([f32; 2], [f32; 2])> {
        if self.slots == 0 || y0 >= y1 || height == 0 {
            return None;
        }
        let v_lo = (y0 as f32 + 0.5) / height as f32;
        let v_hi = (y1 as f32 - 0.5) / height as f32;
        let mut lo = [f32::INFINITY; 2];
        let mut hi = [f32::NEG_INFINITY; 2];
        for slot in 0..self.slots {
            for x in x0 as usize..(x1 as usize).min(self.width as usize) {
                let (top, bottom) = &self.table.cols[slot * self.table.width + x];
                for c in 0..2 {
                    for v in [v_lo, v_hi] {
                        let val = top[c] * (1.0 - v) + bottom[c] * v;
                        lo[c] = lo[c].min(val);
                        hi[c] = hi[c].max(val);
                    }
                }
            }
        }
        lo.iter()
            .chain(hi.iter())
            .all(|f| f.is_finite())
            .then_some((lo, hi))
    }
}

/// Takes the value out of a slot, treating a poisoned lock as empty (the
/// panicking claimant is already reported through the error channel).
fn take_slot<'a, T: ?Sized>(slot: &Mutex<Option<&'a mut T>>) -> Option<&'a mut T> {
    match slot.lock() {
        Ok(mut guard) => guard.take(),
        Err(_) => None,
    }
}

/// Executes a [`DrawPlan`] over rows `y0..y1` of the target, writing
/// quantised pixels into `target.data` — serially when one thread (or one
/// chunk) suffices, otherwise over the persistent `pool` with
/// work-stealing chunk claiming.
///
/// The band is cut into fixed chunks of [`CHUNK_ROWS`] rows; participants
/// claim chunk indices from a shared atomic ticket. Which seat executes a
/// chunk varies run to run, but chunk index alone determines both the rows
/// shaded and the bytes written, and no execution state is shared between
/// seats — so the output is byte-for-byte identical to the serial path.
/// A kernel failure or panic surfaces as the error of the lowest-index
/// failing chunk, the same error the serial path would report first.
///
/// `pool` is spawned lazily on the first dispatch that actually needs
/// workers, sized one less than `threads` (the caller occupies seat 0).
/// A shared executor installed by [`crate::Gl::install_executor`] arrives
/// here the same way; participation is clamped to its seats.
///
/// # Errors
///
/// Returns [`ExecError`] if the band or buffer is invalid, the target
/// width does not match the plan, or the kernel fails (or panics) on any
/// fragment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan(
    plan: &mut DrawPlan,
    samplers: &[&dyn Sampler],
    target: RasterTarget<'_>,
    y0: u32,
    y1: u32,
    threads: usize,
    pool: &mut Option<PoolExecutor>,
) -> Result<(), ExecError> {
    let RasterTarget {
        width,
        height,
        channels,
        data,
    } = target;
    if width != plan.width {
        return Err(ExecError::new(format!(
            "draw plan built for width {}, executed at width {width}",
            plan.width
        )));
    }
    if y0 > y1 || y1 > height {
        return Err(ExecError::new(format!(
            "row band {y0}..{y1} outside target height {height}"
        )));
    }
    let needed = width as usize * height as usize * channels;
    if data.len() < needed {
        return Err(ExecError::new(format!(
            "target buffer holds {} bytes, {width}x{height}x{channels} needs {needed}",
            data.len()
        )));
    }
    if needed == 0 || y0 == y1 {
        return Ok(());
    }
    let row_bytes = width as usize * channels;
    let data = &mut data[y0 as usize * row_bytes..y1 as usize * row_bytes];
    let band_rows = y1 - y0;

    let n_chunks = band_rows.div_ceil(CHUNK_ROWS) as usize;
    let threads = threads.max(1).min(n_chunks);
    if threads <= 1 {
        plan.ensure_seats(1)?;
        let DrawPlan {
            shader,
            table,
            seats,
            ..
        } = plan;
        return run_seat_rows(
            &mut seats[0],
            shader,
            samplers,
            table,
            height,
            y0,
            y1,
            channels,
            data,
        );
    }

    plan.ensure_seats(threads)?;
    let pool = pool.get_or_insert_with(|| PoolExecutor::new(threads - 1));

    let chunk_bytes = CHUNK_ROWS as usize * width as usize * channels;
    let chunk_slots: Vec<Mutex<Option<&mut [u8]>>> = data
        .chunks_mut(chunk_bytes)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let DrawPlan {
        shader,
        table,
        seats,
        ..
    } = plan;
    let shader: &Shader = shader;
    let seat_slots: Vec<Mutex<Option<&mut FragSeat>>> = seats
        .iter_mut()
        .take(threads)
        .map(|s| Mutex::new(Some(s)))
        .collect();
    let ticket = AtomicUsize::new(0);
    let errors: Mutex<Vec<(usize, ExecError)>> = Mutex::new(Vec::new());

    let job = |seat_idx: usize| {
        let Some(seat) = seat_slots.get(seat_idx).and_then(|s| take_slot(s)) else {
            return;
        };
        let mut first_err: Option<(usize, ExecError)> = None;
        loop {
            let i = ticket.fetch_add(1, Ordering::Relaxed);
            if i >= chunk_slots.len() {
                break;
            }
            let Some(slice) = take_slot(&chunk_slots[i]) else {
                continue;
            };
            // Chunk indices are band-relative; rows stay global so band
            // draws are bit-identical to full draws.
            let cy0 = y0 + i as u32 * CHUNK_ROWS;
            let cy1 = (cy0 + CHUNK_ROWS).min(y1);
            // Contain panics per chunk so every failure carries its chunk
            // index and the pool's own panic flag stays a last resort.
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_seat_rows(
                    seat, shader, samplers, table, height, cy0, cy1, channels, slice,
                )
            }));
            match run {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err = Some((i, e));
                    break;
                }
                Err(p) => {
                    first_err = Some((
                        i,
                        ExecError::new(format!("kernel panicked: {}", panic_message(&*p))),
                    ));
                    break;
                }
            }
        }
        if let Some(err) = first_err {
            match errors.lock() {
                Ok(mut errs) => errs.push(err),
                Err(poisoned) => poisoned.into_inner().push(err),
            }
        }
    };
    let pool_panicked = pool.run(threads, &job);

    let mut errs = match errors.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    if pool_panicked && errs.is_empty() {
        errs.push((usize::MAX, ExecError::new("worker thread panicked")));
    }
    match errs.into_iter().min_by_key(|(i, _)| *i) {
        None => Ok(()),
        Some((_, e)) => Err(e),
    }
}

/// Shades the fragment rectangle `x0..x1` × `y0..y1` of a
/// `plan.width`×`height` target serially on seat 0, quantising into the
/// tile-local buffer `out` (row stride `(x1 - x0) * channels`).
///
/// Fragment positions stay global — pixel `(x, y)` of a rect draw is
/// bit-identical to pixel `(x, y)` of a full draw (see [`run_seat_span`])
/// — so tile-level redundancy elimination can re-shade exactly the tiles
/// whose signatures went stale and splice the bytes into the target.
///
/// # Errors
///
/// Returns [`ExecError`] when the rect exceeds the plan width or target
/// height, the buffer is too small, or the kernel fails on any fragment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan_rect(
    plan: &mut DrawPlan,
    samplers: &[&dyn Sampler],
    height: u32,
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    channels: usize,
    out: &mut [u8],
) -> Result<(), ExecError> {
    if x0 > x1 || x1 > plan.width || y0 > y1 || y1 > height {
        return Err(ExecError::new(format!(
            "tile rect {x0}..{x1} x {y0}..{y1} outside {}x{height} target",
            plan.width
        )));
    }
    let tile_w = (x1 - x0) as usize;
    let needed = tile_w * (y1 - y0) as usize * channels;
    if out.len() < needed {
        return Err(ExecError::new(format!(
            "tile buffer holds {} bytes, rect needs {needed}",
            out.len()
        )));
    }
    if needed == 0 {
        return Ok(());
    }
    plan.ensure_seats(1)?;
    let DrawPlan {
        shader,
        table,
        seats,
        ..
    } = plan;
    let shader: &Shader = shader;
    run_seat_span(
        &mut seats[0],
        shader,
        samplers,
        table,
        height,
        x0,
        x1,
        y0,
        y1,
        |x, y, rgba| {
            let px = quantize_rgba8(rgba);
            let idx = ((y - y0) as usize * tile_w + (x - x0) as usize) * channels;
            out[idx..idx + channels].copy_from_slice(&px[..channels]);
        },
    )
}

/// Converts a raw fragment colour to RGBA8 exactly as the fixed-function
/// output stage does: clamp to [0, 1], scale by 255, round to nearest.
///
/// The cast truncates, which is `floor` here without the libm call: the
/// operand lies in [0.5, 255.5], and NaN maps to 0 either way.
#[must_use]
pub fn quantize_rgba8(rgba: [f32; 4]) -> [u8; 4] {
    let q = |x: f32| (x.clamp(0.0, 1.0) * 255.0 + 0.5) as u8;
    [q(rgba[0]), q(rgba[1]), q(rgba[2]), q(rgba[3])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_shader::compile;

    #[test]
    fn interpolation_hits_corners_and_centre() {
        let c = texcoord_corners();
        assert_eq!(interpolate(&c, 0.0, 0.0)[..2], [0.0, 0.0]);
        assert_eq!(interpolate(&c, 1.0, 1.0)[..2], [1.0, 1.0]);
        assert_eq!(interpolate(&c, 0.5, 0.5)[..2], [0.5, 0.5]);
    }

    #[test]
    fn column_table_matches_interpolate_bitwise() {
        // Awkward corner values, including negatives and non-dyadic
        // fractions, at an odd width: the hoisted lerps must equal the
        // direct bilinear expression bit for bit.
        let corners = [
            [0.3, -1.7, 255.0, 0.1],
            [2.9, 0.33, -4.0, 7.7],
            [-0.6, 12.1, 3.3, 0.9],
            [1.1, -8.8, 0.77, 5.5],
        ];
        let width = 37u32;
        let table = ColumnTable::new(&[corners], width);
        for y in 0..23u32 {
            let v = (y as f32 + 0.5) / 23.0;
            for x in 0..width {
                let u = (x as f32 + 0.5) / width as f32;
                let want = interpolate(&corners, u, v);
                let got = table.value(0, x as usize, v);
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn rasterizes_identity_coordinate_kernel() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v, 0.0, 1.0); }",
        )
        .unwrap();
        let mut got = [[0.0f32; 4]; 4];
        rasterize_quad(
            &sh,
            &UniformValues::new(),
            &[],
            2,
            2,
            &[texcoord_corners()],
            |x, y, c| got[(y * 2 + x) as usize] = c,
        )
        .unwrap();
        // Fragment centres of a 2x2 grid are at 0.25/0.75.
        assert_eq!(got[0][..2], [0.25, 0.25]);
        assert_eq!(got[1][..2], [0.75, 0.25]);
        assert_eq!(got[2][..2], [0.25, 0.75]);
        assert_eq!(got[3][..2], [0.75, 0.75]);
    }

    #[test]
    fn corner_count_mismatch_errors() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v, 0.0, 1.0); }",
        )
        .unwrap();
        let r = rasterize_quad(&sh, &UniformValues::new(), &[], 1, 1, &[], |_, _, _| {});
        assert!(r.is_err());
    }

    /// The oracle: the serial scalar reference, quantised exactly as the
    /// output stage does.
    fn reference_bytes(
        sh: &Shader,
        uniforms: &UniformValues,
        w: u32,
        h: u32,
        ch: usize,
    ) -> Vec<u8> {
        let mut data = vec![0u8; w as usize * h as usize * ch];
        let row = w as usize * ch;
        rasterize_quad(
            sh,
            uniforms,
            &[],
            w,
            h,
            &[texcoord_corners()],
            |x, y, rgba| {
                let idx = y as usize * row + x as usize * ch;
                data[idx..idx + ch].copy_from_slice(&quantize_rgba8(rgba)[..ch]);
            },
        )
        .unwrap();
        data
    }

    /// A plan for `sh` on a `w`-wide target with the texcoord quad,
    /// specialised on the compiled tier, recycling `recycled`'s seats.
    fn build_plan(
        sh: &Shader,
        uniforms: &UniformValues,
        engine: Engine,
        w: u32,
        recycled: Option<DrawPlan>,
    ) -> DrawPlan {
        DrawPlan::build(
            &Arc::new(sh.clone()),
            uniforms,
            engine,
            engine == Engine::Compiled,
            &[texcoord_corners()],
            w,
            recycled,
        )
        .unwrap()
    }

    fn target(w: u32, h: u32, ch: usize, data: &mut [u8]) -> RasterTarget<'_> {
        RasterTarget {
            width: w,
            height: h,
            channels: ch,
            data,
        }
    }

    /// One full draw through a fresh plan that recycles `plan`'s
    /// allocations (as the cache-off context does), on `pool`.
    #[allow(clippy::too_many_arguments)]
    fn planned_bytes(
        sh: &Shader,
        uniforms: &UniformValues,
        w: u32,
        h: u32,
        ch: usize,
        engine: Engine,
        threads: usize,
        pool: &mut Option<PoolExecutor>,
        plan: &mut Option<DrawPlan>,
    ) -> Vec<u8> {
        let mut built = build_plan(sh, uniforms, engine, w, plan.take());
        let mut data = vec![0u8; w as usize * h as usize * ch];
        execute_plan(
            &mut built,
            &[],
            target(w, h, ch, &mut data),
            0,
            h,
            threads,
            pool,
        )
        .unwrap();
        *plan = Some(built);
        data
    }

    const SCALE_KERNEL: &str = "uniform float scale;\nvarying vec2 v;\n\
         void main() {\n\
           float a = v.x * scale + v.y;\n\
           if (a < 1.0) { a = sqrt(a + 1.0); } else { a = a * 0.25; }\n\
           gl_FragColor = vec4(a, fract(a * 9.0), v.x * v.y, 1.0);\n\
         }";

    fn scale_uniforms() -> UniformValues {
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("scale", 3.7);
        uniforms
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let sh = compile(SCALE_KERNEL).unwrap();
        let uniforms = scale_uniforms();
        // One pool shared across every dispatch, as the context holds it;
        // plans recycled across draws and engines exercise seat rebinding.
        let mut pool = None;
        let mut plan = None;
        // Odd sizes straddle chunk boundaries; channels 3 exercises the
        // fp24 layout.
        for &(w, h) in &[(33u32, 17u32), (64, 64), (5, 97), (1, 1), (65, 40)] {
            for &ch in &[3usize, 4] {
                let serial = reference_bytes(&sh, &uniforms, w, h, ch);
                for engine in [Engine::Scalar, Engine::Compiled] {
                    for threads in [1usize, 2, 4, 8] {
                        assert_eq!(
                            planned_bytes(
                                &sh, &uniforms, w, h, ch, engine, threads, &mut pool, &mut plan,
                            ),
                            serial,
                            "{w}x{h}x{ch} {engine:?} at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_engine_is_byte_identical_to_scalar() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() {\n\
               float a = v.x * 3.7 + v.y;\n\
               if (a < 1.0) { a = sqrt(a + 1.0); } else { a = a * 0.25; }\n\
               gl_FragColor = vec4(a, fract(a * 9.0), v.y, 1.0);\n\
             }",
        )
        .unwrap();
        let uniforms = UniformValues::new();
        let mut pool = None;
        // Widths around the lane count exercise full, partial and
        // multi-batch rows.
        for &(w, h) in &[(1u32, 5u32), (63, 9), (64, 3), (65, 7), (200, 11)] {
            let scalar = reference_bytes(&sh, &uniforms, w, h, 4);
            for threads in [1usize, 4] {
                assert_eq!(
                    planned_bytes(
                        &sh,
                        &uniforms,
                        w,
                        h,
                        4,
                        Engine::Compiled,
                        threads,
                        &mut pool,
                        &mut None,
                    ),
                    scalar,
                    "{w}x{h} compiled at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn band_draws_reassemble_the_full_image() {
        let sh = compile(
            "varying vec2 v;\n\
             void main() { gl_FragColor = vec4(v.x, v.y, v.x * v.y, 1.0); }",
        )
        .unwrap();
        let uniforms = UniformValues::new();
        let mut pool = None;
        for &(w, h) in &[(31u32, 23u32), (64, 64), (31, 46)] {
            let full = reference_bytes(&sh, &uniforms, w, h, 4);
            for engine in [Engine::Scalar, Engine::Compiled] {
                // One plan serves every band: plans are band-agnostic.
                let mut plan = build_plan(&sh, &uniforms, engine, w, None);
                for bands in [2u32, 3, 7] {
                    let mut data = vec![0u8; w as usize * h as usize * 4];
                    let rows_per = h.div_ceil(bands);
                    let mut y0 = 0;
                    while y0 < h {
                        let y1 = (y0 + rows_per).min(h);
                        execute_plan(
                            &mut plan,
                            &[],
                            target(w, h, 4, &mut data),
                            y0,
                            y1,
                            2,
                            &mut pool,
                        )
                        .unwrap();
                        y0 = y1;
                    }
                    assert_eq!(data, full, "{w}x{h} {engine:?} in {bands} bands");
                }
            }
        }
    }

    #[test]
    fn band_outside_target_errors() {
        let sh = compile("void main() { gl_FragColor = vec4(1.0); }").unwrap();
        let mut plan = DrawPlan::build(
            &Arc::new(sh),
            &UniformValues::new(),
            Engine::Scalar,
            false,
            &[],
            4,
            None,
        )
        .unwrap();
        let mut data = vec![0u8; 4 * 4 * 4];
        let r = execute_plan(
            &mut plan,
            &[],
            target(4, 4, 4, &mut data),
            2,
            9,
            1,
            &mut None,
        );
        assert!(r.unwrap_err().to_string().contains("row band"));
    }

    #[test]
    fn rect_draws_are_byte_identical_to_full_draws() {
        // Shading a tile rect in isolation induces different batch
        // boundaries than a full row, so this pins the lane-independence
        // property tile skipping rests on — for every engine, on
        // non-divisible tile grids.
        let sh = compile(
            "uniform float scale;\nvarying vec2 v;\n\
             void main() {\n\
               float a = v.x * scale + v.y;\n\
               if (a < 1.0) { a = sqrt(a + 1.0); } else { a = a * 0.25; }\n\
               gl_FragColor = vec4(a, fract(a * 9.0), v.x * v.y, 1.0);\n\
             }",
        )
        .unwrap();
        let mut uniforms = UniformValues::new();
        uniforms.set_scalar("scale", 3.7);
        let shader = Arc::new(sh);
        let (w, h) = (100u32, 70u32);
        for engine in [Engine::Scalar, Engine::Compiled] {
            let mut plan = DrawPlan::build(
                &shader,
                &uniforms,
                engine,
                engine != Engine::Scalar,
                &[texcoord_corners()],
                w,
                None,
            )
            .unwrap();
            let mut full = vec![0u8; w as usize * h as usize * 4];
            let mut pool = None;
            execute_plan(
                &mut plan,
                &[],
                RasterTarget {
                    width: w,
                    height: h,
                    channels: 4,
                    data: &mut full,
                },
                0,
                h,
                4,
                &mut pool,
            )
            .unwrap();
            // 16- and 64-pixel tiles, both non-divisible into 100×70.
            for tile in [16u32, 64] {
                let mut assembled = vec![0u8; full.len()];
                let mut ty = 0;
                while ty < h {
                    let y1 = (ty + tile).min(h);
                    let mut tx = 0;
                    while tx < w {
                        let x1 = (tx + tile).min(w);
                        let tw = (x1 - tx) as usize;
                        let mut bytes = vec![0u8; tw * (y1 - ty) as usize * 4];
                        execute_plan_rect(&mut plan, &[], h, tx, x1, ty, y1, 4, &mut bytes)
                            .unwrap();
                        for (row, chunk) in bytes.chunks(tw * 4).enumerate() {
                            let y = ty as usize + row;
                            let at = (y * w as usize + tx as usize) * 4;
                            assembled[at..at + tw * 4].copy_from_slice(chunk);
                        }
                        tx = x1;
                    }
                    ty = y1;
                }
                assert_eq!(assembled, full, "{engine:?} tiles of {tile}");
            }
        }
    }

    #[test]
    fn column_slice_hash_sees_columns_and_content() {
        let sh =
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }").unwrap();
        let shader = Arc::new(sh);
        let plan = DrawPlan::build(
            &shader,
            &UniformValues::new(),
            Engine::Scalar,
            false,
            &[texcoord_corners()],
            64,
            None,
        )
        .unwrap();
        assert_ne!(
            plan.column_slice_hash(0, 16),
            plan.column_slice_hash(16, 32)
        );
        assert_eq!(plan.column_slice_hash(0, 16), plan.column_slice_hash(0, 16));
        let mut other = texcoord_corners();
        other[1][0] = 0.25;
        let shifted = DrawPlan::build(
            &shader,
            &UniformValues::new(),
            Engine::Scalar,
            false,
            &[other],
            64,
            None,
        )
        .unwrap();
        assert_ne!(
            plan.column_slice_hash(0, 16),
            shifted.column_slice_hash(0, 16)
        );
    }

    /// A sampler that panics on fetch: worker panics must surface as
    /// `ExecError`, never as an unwind out of the rasteriser.
    struct PanicSampler;
    impl Sampler for PanicSampler {
        fn fetch(&self, _u: f32, _v: f32) -> [f32; 4] {
            panic!("sampler exploded")
        }
    }

    #[test]
    fn worker_panic_becomes_an_error() {
        let sh = compile(
            "uniform sampler2D t;\nvarying vec2 v;\n\
             void main() { gl_FragColor = texture2D(t, v); }",
        )
        .unwrap();
        let mut pool = None;
        for engine in [Engine::Scalar, Engine::Compiled] {
            let mut plan = build_plan(&sh, &UniformValues::new(), engine, 32, None);
            let mut data = vec![0u8; 32 * 32 * 4];
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence expected panics
            let r = execute_plan(
                &mut plan,
                &[&PanicSampler],
                target(32, 32, 4, &mut data),
                0,
                32,
                4,
                &mut pool,
            );
            std::panic::set_hook(prev);
            let e = r.unwrap_err();
            assert!(e.to_string().contains("sampler exploded"), "{e}");
        }

        // The pool stays usable after a panicked draw.
        let ok =
            compile("varying vec2 v; void main() { gl_FragColor = vec4(v, 0.0, 1.0); }").unwrap();
        let bytes = planned_bytes(
            &ok,
            &UniformValues::new(),
            32,
            32,
            4,
            Engine::Scalar,
            4,
            &mut pool,
            &mut None,
        );
        assert_eq!(
            bytes,
            reference_bytes(&ok, &UniformValues::new(), 32, 32, 4)
        );
    }

    #[test]
    fn undersized_target_buffer_errors() {
        let sh = compile("void main() { gl_FragColor = vec4(1.0); }").unwrap();
        let mut plan = DrawPlan::build(
            &Arc::new(sh),
            &UniformValues::new(),
            Engine::Scalar,
            false,
            &[],
            2,
            None,
        )
        .unwrap();
        let mut data = vec![0u8; 7];
        let r = execute_plan(
            &mut plan,
            &[],
            target(2, 2, 4, &mut data),
            0,
            2,
            1,
            &mut None,
        );
        assert!(r.unwrap_err().to_string().contains("needs 16"));
    }

    #[test]
    fn quantization_clamps_and_rounds() {
        assert_eq!(quantize_rgba8([0.0, 1.0, -0.5, 2.0]), [0, 255, 0, 255]);
        assert_eq!(quantize_rgba8([0.5, 0.25, 0.75, 1.0]), [128, 64, 191, 255]);
        // 1/255 quantum round-trips exactly.
        let x = 37.0 / 255.0;
        assert_eq!(quantize_rgba8([x, x, x, x]), [37, 37, 37, 37]);
    }

    /// The libm-rounded quantisation that `quantize_rgba8` replaces.
    fn quantize_floor(x: f32) -> u8 {
        (x.clamp(0.0, 1.0) * 255.0 + 0.5).floor() as u8
    }

    fn assert_quantize_exact(xs: impl Iterator<Item = f32>) {
        for x in xs {
            let old = quantize_floor(x);
            assert_eq!(
                quantize_rgba8([x; 4]),
                [old; 4],
                "{x:e} [{:#010x}]",
                x.to_bits()
            );
        }
    }

    /// Each byte's rounding boundary `(k - 0.5) / 255`, a few ulps either
    /// side.
    fn quantize_edges() -> impl Iterator<Item = f32> {
        (0..=256u16).flat_map(|k| {
            let edge = (f32::from(k) - 0.5) / 255.0;
            let lo = edge.next_down().next_down().next_down();
            std::iter::successors(Some(lo), |x| Some(x.next_up())).take(7)
        })
    }

    #[test]
    fn quantize_rgba8_is_floor_quantisation_on_rounding_edges() {
        assert_quantize_exact(mgpu_prop::f32_rounding_edges());
        assert_quantize_exact(mgpu_prop::f32_bit_stride());
        assert_quantize_exact(quantize_edges());
    }

    /// The proof behind `quantize_rgba8`'s truncating cast: every one of
    /// the 2^32 f32 bit patterns. About half a minute in release; CI runs
    /// it.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn exhaustive_quantize_rgba8_is_floor_quantisation() {
        assert_quantize_exact((0..=u32::MAX).map(f32::from_bits));
    }
}
