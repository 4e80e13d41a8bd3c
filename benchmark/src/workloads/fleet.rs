//! `fleet`: `service_throughput`'s faulted regime — 1024 tenants × 2
//! tiny one-shot jobs on 6 devices alternating the paper pair, with a
//! compile-burst device and 1% per-draw context-loss noise on the rest.
//! Arrivals are an open loop in simulated time at a fixed rate below
//! the fleet's saturation. Op: one `submit`, which advances the fleet to
//! that arrival. The timed phase runs whole fleet epochs (build, every
//! submission, `drain`); every epoch replays the same transcript.

use std::time::Instant;

use mgpu_benchmark::outcome::{Expect, Observed};
use mgpu_benchmark::trace::{totals, Tracer};
use mgpu_gles::{FaultPlan, Gl, PlanCacheStats};
use mgpu_gpgpu::kernels::{sgemm_kernel, sum_kernel_ranges};
use mgpu_gpgpu::{GpgpuError, OptConfig, Range, ResilientRunner};
use mgpu_prop::Rng;
use mgpu_service::{
    check_isolation, FleetService, JobRecord, JobSpec, ServiceConfig, ServiceError, ServiceStats,
    TenantId,
};
use mgpu_shader::{compile_with, OptOptions};
use mgpu_tbdr::SimTime;

use super::{
    another_round, compile_options, hex, ns, pin, pinned_exec, record_pinned, report_plan_cache,
    time_mean, Measured, Params, PhaseClock, SimDelta, Tail,
};

const TENANTS: usize = 1024;
const JOBS_PER_TENANT: usize = 2;
const DEVICES: usize = 6;
/// Simulated gap between consecutive arrivals. Offered all at once, the
/// 2048 jobs drain in 1367 simulated ms on this fleet and fault mix, a
/// saturation rate of ~1500 jobs/s; one arrival every 830 µs is ~1205
/// jobs/s, 80% of it.
const ARRIVAL_GAP: SimTime = SimTime::from_micros(830);
/// Completed jobs re-run alone for the isolation check and the
/// per-layer solo replays.
const SAMPLE: usize = 48;
/// Set-ups per run: each is about a millisecond, so take more of them.
const SETUP_REPS: usize = 15;
/// Whole epochs a run makes at least (the replay check needs two).
const MIN_EPOCHS: usize = 2;

/// Seed of the fault plans. The faulted regime is part of the pinned
/// configuration (as in `service_throughput`); the workload seed varies
/// the job inputs.
const FAULT_SEED: u64 = 2017;

fn fleet_config(seed: u64, nproc: usize) -> ServiceConfig {
    // Device 0 opens with a compile-failure burst long enough to trip its
    // breaker; the others carry context-loss noise.
    let hostile = (0..36).fold(FaultPlan::seeded(FAULT_SEED), |plan, i| {
        plan.compile_fail_at(i)
    });
    let fault_plans = (0..DEVICES)
        .map(|d| {
            Some(if d == 0 {
                hostile.clone()
            } else {
                FaultPlan::seeded(FAULT_SEED + d as u64).p_ctx_loss(0.01)
            })
        })
        .collect();
    ServiceConfig {
        devices: DEVICES,
        fault_plans,
        queue_depth: JOBS_PER_TENANT,
        seed,
        opt: pin(OptConfig::baseline().without_swap(), nproc),
        ..ServiceConfig::default()
    }
}

/// The arrival schedule: round-robin over tenants, one round per job,
/// with the `service_throughput` mix of job shapes.
fn schedule() -> Vec<(usize, JobSpec, SimTime)> {
    let mut out = Vec::with_capacity(TENANTS * JOBS_PER_TENANT);
    let mut arrival = SimTime::ZERO;
    for round in 0..JOBS_PER_TENANT {
        for t in 0..TENANTS {
            let spec = match (round + t) % 3 {
                0 => JobSpec::Sum {
                    n: 8,
                    iterations: 1,
                },
                1 => JobSpec::Sum {
                    n: 8,
                    iterations: 2,
                },
                _ => JobSpec::Sgemm { n: 8, block: 4 },
            };
            out.push((t, spec, arrival));
            arrival += ARRIVAL_GAP;
        }
    }
    out
}

fn new_fleet(
    cfg: &ServiceConfig,
    tenants: usize,
) -> Result<(FleetService, Vec<TenantId>), ServiceError> {
    let mut service = FleetService::new(cfg.clone())?;
    let ids = (0..tenants)
        .map(|t| service.add_tenant([1u32, 2, 4][t % 3]))
        .collect();
    Ok((service, ids))
}

/// Digest of a transcript: every record's placement, timing, outcome and
/// recovery counts.
fn transcript_digest(records: &[JobRecord]) -> u64 {
    let mut h = mgpu_benchmark::FNV_OFFSET;
    for r in records {
        let line = format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{}|{}|",
            r.id.0,
            r.tenant.0,
            r.device,
            r.started.map(SimTime::as_nanos),
            r.finished.map(SimTime::as_nanos),
            r.outcome.as_ref().err().map(ToString::to_string),
            r.recovery_events,
            r.faults_seen
        );
        h = mgpu_benchmark::fnv1a(h, line.as_bytes());
        if let Ok(bytes) = &r.outcome {
            h = mgpu_benchmark::fnv1a(h, bytes);
        }
    }
    h
}

fn to_gpgpu(e: ServiceError) -> GpgpuError {
    GpgpuError::Config(e.to_string())
}

pub fn run(p: &Params, tr: &mut Tracer) -> Result<Measured, GpgpuError> {
    let mut m = Measured::default();
    let process_start = crate::process_start();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let cfg = fleet_config(p.seed, p.nproc);
        let arrivals = tr.span("workloads.gen", schedule);
        // The fleet is built like a timed epoch's, then warmed up with
        // its first job.
        tr.span("warmup", || -> Result<(), ServiceError> {
            let (mut service, ids) = new_fleet(&cfg, TENANTS)?;
            let (tenant, spec, arrival) = arrivals[0];
            service.submit(ids[tenant], spec, arrival, None)?;
            service.drain();
            Ok(())
        })
        .map_err(to_gpgpu)?;
        let from = if rep == 0 { process_start } else { t };
        m.setup_s.push(from.elapsed().as_secs_f64());
        prepared = Some((cfg, arrivals));
    }
    let Some((cfg, arrivals)) = prepared else {
        unreachable!("SETUP_REPS >= 1");
    };
    m.config("tenants", TENANTS);
    m.config("jobs_per_tenant", JOBS_PER_TENANT);
    m.config("devices", DEVICES);
    m.config(
        "faults",
        "device 0: compile burst 0..36; others: p_ctx_loss 0.01",
    );
    m.config(
        "arrival_rate_per_sim_s",
        1e9 / ARRIVAL_GAP.as_nanos() as f64,
    );
    record_pinned(&mut m, p.nproc);
    m.tail = Tail::PerRound {
        ops: arrivals.len(),
    };

    let mut epoch_digests = Vec::new();
    // The first epoch's transcript and counters; later epochs must match.
    let mut first: Option<(Vec<JobRecord>, ServiceStats, Vec<SimTime>)> = None;
    let mut drain_ns = Vec::new();
    let clock = PhaseClock::start();
    let mut op = 0u64;
    let mut epochs = 0usize;
    let mut last = std::time::Duration::ZERO;
    while another_round(&clock, last, p.seconds, epochs, MIN_EPOCHS) {
        let round_start = clock.elapsed();
        let (mut service, ids) = new_fleet(&cfg, TENANTS).map_err(to_gpgpu)?;
        for &(tenant, spec, arrival) in &arrivals {
            op += 1;
            tr.set_op(op);
            let t = Instant::now();
            let id = tr.enter("op");
            let r = service.submit(ids[tenant], spec, arrival, None);
            tr.exit(id);
            m.op_ns.push(ns(t.elapsed()));
            // Queues hold every job of a tenant, so no submission is
            // refused; any error here is unexpected.
            let observed = if r.is_ok() {
                Observed::Success
            } else {
                Observed::OtherError
            };
            m.tally.record(Expect::Success, observed);
        }
        let t = Instant::now();
        tr.span("service.drain", || service.drain());
        drain_ns.push(ns(t.elapsed()));
        epochs += 1;
        last = clock.elapsed() - round_start;
        epoch_digests.push(transcript_digest(service.records()));
        let stats = service.stats();
        m.tally
            .record_job_failures(stats.failed + stats.rejected + stats.deadline_missed);
        if first.is_none() {
            first = Some((service.records().to_vec(), stats, service.ok_latencies()));
        }
    }
    m.timed_ns = clock.elapsed_ns();
    tr.set_op(0);
    m.notes.push(("epochs".to_owned(), epochs.to_string()));
    let Some((records, stats, latencies)) = first else {
        unreachable!("MIN_EPOCHS >= 1");
    };
    m.notes.push((
        "makespan_sim_ms".to_owned(),
        stats.makespan.as_millis_f64().to_string(),
    ));
    m.sim_op_ns = latencies.iter().map(|t| t.as_nanos()).collect();
    m.check(
        "transcript replays identically in every epoch",
        epoch_digests.iter().all(|d| *d == epoch_digests[0]),
        format!("{epochs} epochs"),
    );
    m.check(
        "faulted regime quarantines a device",
        stats.quarantines > 0,
        format!("{} quarantines", stats.quarantines),
    );
    let sample = sample_completed(&records, p.seed);
    let divergences = check_isolation(&cfg, &sample);
    m.check(
        "check_isolation holds on a seeded sample",
        divergences.is_empty(),
        divergences
            .first()
            .map_or_else(|| format!("{} jobs", sample.len()), ToString::to_string),
    );
    let digest = hex(epoch_digests[0]);
    m.digests.push(("output".to_owned(), digest.clone()));
    m.digests.push(("sim".to_owned(), digest));

    if tr.enabled() {
        m.layer(
            "service.drain_ms",
            super::mean(&drain_ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>()),
        );
        m.layer("service.rejected", stats.rejected as f64);
        m.layer("service.quarantines", stats.quarantines as f64);
        m.layer("service.probes", stats.probes as f64);
        m.layer("service.displaced", stats.displaced as f64);
        m.layer("service.deadline_missed", stats.deadline_missed as f64);
        m.layer(
            "gpgpu.recovery_events",
            records.iter().map(|r| r.recovery_events as f64).sum(),
        );
        m.layer(
            "gpgpu.faults_seen",
            records.iter().map(|r| r.faults_seen as f64).sum(),
        );
        let executed = records.iter().filter(|r| r.device.is_some()).count() as f64;
        m.layer("shader.compiles", executed / stats.submitted.max(1) as f64);
        let epoch_ns = m.timed_ns as f64 / epochs as f64;
        solo_replays(p, &mut m, tr, &cfg, &sample, executed, epoch_ns);
    }
    Ok(m)
}

/// A seeded sample of completed jobs (those that reached a device and
/// returned bytes).
fn sample_completed(records: &[JobRecord], seed: u64) -> Vec<JobRecord> {
    let completed: Vec<&JobRecord> = records
        .iter()
        .filter(|r| r.outcome.is_ok() && r.device.is_some())
        .collect();
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut picked: Vec<usize> = (0..SAMPLE.min(completed.len()))
        .map(|_| (rng.next_u64() % completed.len() as u64) as usize)
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked.into_iter().map(|i| completed[i].clone()).collect()
}

/// Replays sampled jobs alone — `JobSpec::build` + `ResilientRunner::run`
/// on fresh fault-free contexts — for the layers the fleet hides.
fn solo_replays(
    p: &Params,
    m: &mut Measured,
    tr: &mut Tracer,
    cfg: &ServiceConfig,
    sample: &[JobRecord],
    executed: f64,
    epoch_ns: f64,
) {
    let id = tr.enter("probe");
    let mut sim = SimDelta::default();
    let mut cache = PlanCacheStats::default();
    let mut ok = true;
    let (mut frames, mut model_us) = (0.0, 0.0);
    for record in sample {
        let Some(device) = record.device else {
            continue;
        };
        let mut gl = tr.span("gles.context_new", || {
            Gl::new(cfg.platform_for(device), cfg.surface, cfg.surface)
        });
        gl.set_exec_config(pinned_exec(p.nproc));
        gl.set_plan_cache_enabled(true);
        gl.set_frame_recording(true);
        let mut job = tr.span("gpgpu.op_build", || {
            record.spec.build(&cfg.opt, record.input_seed)
        });
        let mut runner = ResilientRunner::new(cfg.resilience);
        let bytes = tr.span("gpgpu.runner", || runner.run(&mut gl, job.as_mut()));
        ok &= bytes.as_ref().ok() == record.outcome.as_ref().ok();
        let stats = gl.plan_cache_stats();
        cache.hits += stats.hits;
        cache.misses += stats.misses;
        cache.evictions += stats.evictions;
        sim.add(&SimDelta::of(&gl.report()));
        let (us, _) = super::replay_cost_model(&gl, tr);
        let n = gl.recorded_frames().len() as f64;
        frames += n;
        model_us += us * n;
    }
    // Compile probe over the jobs' two kernels.
    let opts = compile_options(&cfg.platform_for(0));
    let unit = Range::unit();
    let sources = [
        sum_kernel_ranges(cfg.opt.encoding, &unit, &unit, &Range::new(0.0, 2.0)),
        sgemm_kernel(cfg.opt.encoding, 8, 4, &unit, &Range::new(0.0, 8.0)),
    ];
    let compile_s = time_mean(1, || {
        for src in &sources {
            let _ = tr.span("shader.compile", || compile_with(src, &opts));
        }
    }) / sources.len() as f64;
    let mut probe_gl = Gl::new(cfg.platform_for(0), cfg.surface, cfg.surface);
    let create_s = time_mean(1, || {
        for src in &sources {
            let _ = tr.span("gles.create_program", || {
                probe_gl.create_program_with(src, &OptOptions::full())
            });
        }
    }) / sources.len() as f64;
    m.layer("gles.create_program_ms", create_s * 1e3);
    // The plan build each one-shot job pays on its cold cache, for the
    // sgemm job (two passes, two uniform sets).
    if let Ok(shader) = compile_with(&sources[1], &opts) {
        super::shader_probes(m, tr, &shader, &super::sgemm_uniform_sets(8, 4));
    }
    tr.exit(id);
    m.check(
        "solo replays reproduce the fleet's bytes",
        ok,
        format!("{} jobs", sample.len()),
    );
    let jobs = sample.len() as f64;
    report_plan_cache(m, PlanCacheStats::default(), cache, jobs);
    sim.report_per_op(m, jobs);
    m.layer("shader.compile_ms", compile_s * 1e3);
    m.layer(
        "tbdr.cost_model_us_per_frame",
        if frames > 0.0 { model_us / frames } else { 0.0 },
    );
    let t = totals(tr.spans());
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let (build, runner) = (get("gpgpu.op_build"), get("gpgpu.runner"));
    m.layer("gpgpu.op_build_ms", build.mean_ms());
    m.layer("gpgpu.runner_ms", runner.mean_ms());
    m.layer("gles.context_new_ms", get("gles.context_new").mean_ms());
    m.layer("workloads.gen_ms", get("workloads.gen").mean_ms());
    // What the fleet spends beyond running its jobs one after another:
    // admission, DRR, breakers, displacement.
    let solo_ns = (build.mean_ms() + runner.mean_ms()) * 1e6 * executed;
    let share = if epoch_ns > 0.0 {
        (epoch_ns - solo_ns) / epoch_ns
    } else {
        0.0
    };
    m.layer("service.scheduler_share", share);
    m.notes.push((
        "trace.coverage".to_owned(),
        "share of fleet wall explained by solo job replays".to_owned(),
    ));
    m.layer("trace.coverage", (1.0 - share).clamp(0.0, 1.0));
}
