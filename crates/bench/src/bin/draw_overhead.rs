//! Per-draw overhead harness: transient per-draw plans vs warm draw-plan
//! caching, on multi-pass blocked sgemm.
//!
//! A block-16 sgemm issues `n / 16` draws per multiply, each repeating the
//! same setup — uniform specialisation, interpolation hoisting, engine
//! register allocation. This harness isolates that overhead by timing
//! whole multiplies in two modes, both on the persistent worker pool:
//!
//! * `pool_nocache` — plan cache off: a transient plan is built every draw
//!   (allocations recycled);
//! * `warm_cached`  — the draw-plan cache on: after the first multiply
//!   primes one plan per `blk_n` value, every draw runs warm.
//!
//! Both modes' product matrices must be byte-identical and their simulated
//! [`SimTime`] bitwise unchanged — both are asserted on every run, so the
//! harness doubles as a determinism check for plan caching.
//!
//! Overhead scales with *draw count over fragment work*: at small `n` the
//! per-draw setup dominates and the cached path wins big; at `n = 1024` a
//! draw shades a megapixel and fragment arithmetic swamps setup, so the
//! headline speedup necessarily shrinks. Both regimes are reported
//! honestly; EXPERIMENTS.md tabulates them.
//!
//! Usage: `draw_overhead [n] [threads] [reps]` (defaults 128, 4, 5), or
//! `draw_overhead --gate` for the CI smoke configuration: asserts that
//! warm-plan multiplies beat transient-plan multiplies at 4 threads and
//! that single-thread warm multiplies stay within 1.25× of transient-plan
//! ones on the same workload.

use std::time::{Duration, Instant};

use mgpu_bench::harness::{emit_bench_json, Stats};
use mgpu_gles::{ExecConfig, Gl};
use mgpu_gpgpu::{OptConfig, Sgemm};
use mgpu_tbdr::{Platform, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    PoolNoCache,
    WarmCached,
}

impl Mode {
    fn id(self) -> &'static str {
        match self {
            Mode::PoolNoCache => "pool_nocache",
            Mode::WarmCached => "warm_cached",
        }
    }
}

struct Measurement {
    /// First multiply: plans cold in every mode.
    first: Duration,
    /// Steady-state multiplies (second onwards).
    steady: Stats,
    result_bits: Vec<u32>,
    sim: SimTime,
    cache_hits: u64,
}

fn run_mode(mode: Mode, n: u32, threads: usize, reps: usize, a: &[f32], b: &[f32]) -> Measurement {
    let block = 16;
    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    gl.set_exec_config(ExecConfig::with_threads(threads));
    gl.set_plan_cache_enabled(mode == Mode::WarmCached);
    let cfg = OptConfig::baseline().with_swap_interval_0();
    let mut sgemm = Sgemm::new(&mut gl, &cfg, n, block, a, b).expect("sgemm builds");

    let start = Instant::now();
    sgemm.multiply(&mut gl).expect("first multiply");
    let first = start.elapsed();

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        sgemm.multiply(&mut gl).expect("steady multiply");
        samples.push(start.elapsed());
    }

    let result_bits = sgemm
        .result(&mut gl)
        .expect("result")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    gl.finish();
    Measurement {
        first,
        steady: Stats::from_samples(&samples),
        result_bits,
        sim: gl.elapsed(),
        cache_hits: gl.plan_cache_stats().hits,
    }
}

fn report(group: &str, mode: Mode, m: &Measurement) {
    emit_bench_json(
        group,
        &format!("{}/first", mode.id()),
        &Stats::from_samples(&[m.first]),
    );
    emit_bench_json(group, &format!("{}/steady", mode.id()), &m.steady);
}

/// Runs both modes on one (n, threads) point, asserting byte-identity and
/// simulated-time invariance between them.
fn run_point(n: u32, threads: usize, reps: usize, a: &[f32], b: &[f32]) -> [Measurement; 2] {
    let group = format!("draw_overhead/n={n}/threads={threads}");
    let pooled = run_mode(Mode::PoolNoCache, n, threads, reps, a, b);
    report(&group, Mode::PoolNoCache, &pooled);
    let warm = run_mode(Mode::WarmCached, n, threads, reps, a, b);
    report(&group, Mode::WarmCached, &warm);

    assert_eq!(
        warm.result_bits, pooled.result_bits,
        "warm_cached output diverged from pool_nocache at n={n} threads={threads}"
    );
    assert_eq!(
        warm.sim, pooled.sim,
        "warm_cached changed simulated time at n={n} threads={threads}"
    );
    assert!(
        warm.cache_hits > 0,
        "warm_cached mode recorded no plan-cache hits"
    );
    println!(
        "  steady speedup vs pool_nocache: warm_cached {:.2}x\n",
        pooled.steady.mean.as_secs_f64() / warm.steady.mean.as_secs_f64().max(1e-12),
    );
    [pooled, warm]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let nums: Vec<usize> = args.iter().filter_map(|s| s.parse().ok()).collect();
    let n = *nums.first().unwrap_or(&128) as u32;
    let threads = *nums.get(1).unwrap_or(&4);
    let reps = *nums.get(2).unwrap_or(&5);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    println!(
        "sgemm block 16, {n}x{n} ({} draws per multiply), {reps} steady reps",
        n / 16
    );
    println!("host parallelism: {cores} core(s)\n");

    let len = (n * n) as usize;
    let a: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 97.0).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 89) as f32 / 89.0).collect();

    let [pooled, warm] = run_point(n, threads, reps, &a, &b);

    // Single-thread sanity: plan caching must not tax serial users.
    let [pooled1, warm1] = run_point(n, 1, reps, &a, &b);

    if gate {
        let speedup = pooled.steady.mean.as_secs_f64() / warm.steady.mean.as_secs_f64().max(1e-12);
        assert!(
            warm.steady.mean < pooled.steady.mean,
            "GATE FAILED: warm-plan multiplies ({:?}) not faster than transient-plan ones ({:?}) \
             at n={n} threads={threads}",
            warm.steady.mean,
            pooled.steady.mean,
        );
        let serial_ratio =
            warm1.steady.mean.as_secs_f64() / pooled1.steady.mean.as_secs_f64().max(1e-12);
        assert!(
            serial_ratio < 1.25,
            "GATE FAILED: plan caching regressed single-thread multiplies by {serial_ratio:.2}x"
        );
        println!(
            "GATE OK: warm_cached {speedup:.2}x vs pool_nocache at {threads} threads; \
             threads=1 ratio {serial_ratio:.2}x"
        );
    }
}
