//! Fleet scheduler behaviour: admission backpressure, deadlines,
//! quarantine/probe, displacement, determinism and fault isolation.

use mgpu_gles::FaultPlan;
use mgpu_service::{
    check_service_isolation, BreakerConfig, FleetService, JobSpec, ServiceConfig, ServiceError,
};
use mgpu_tbdr::SimTime;

const SUM: JobSpec = JobSpec::Sum {
    n: 8,
    iterations: 2,
};

/// A plan whose compile stage fails densely at the start: every early
/// job exhausts its retries, then the fault budget runs out and the
/// device heals — the shape that exercises trip, probe-failure and
/// eventual recovery.
fn hostile_plan(seed: u64, failures: u64) -> FaultPlan {
    (0..failures).fold(FaultPlan::seeded(seed), |plan, i| plan.compile_fail_at(i))
}

/// Recoverable background noise: context losses and OOMs only (no
/// corruption — that class needs checksum verification to be
/// recoverable, which the default config leaves off).
fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).p_ctx_loss(0.02).p_oom(0.02)
}

#[test]
fn admission_rejects_typed_when_queues_fill() {
    let mut service = FleetService::new(ServiceConfig {
        devices: 1,
        queue_depth: 2,
        device_queue_depth: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.add_tenant(1);

    let mut admitted = 0;
    let mut rejected = 0;
    for _ in 0..6 {
        match service.submit(tenant, SUM, SimTime::ZERO, None) {
            Ok(_) => admitted += 1,
            Err(ServiceError::Rejected { tenant: t, depth }) => {
                assert_eq!(t, tenant);
                assert_eq!(depth, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    // 1 routed to the device queue + 2 in the tenant queue.
    assert_eq!(admitted, 3);
    assert_eq!(rejected, 3);

    service.drain();
    let stats = service.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.completed_ok, 3);
    // Rejections are part of the transcript.
    assert_eq!(service.records().len(), 6);

    // Backpressure recovers: after the drain the tenant can submit again.
    let arrival = stats.makespan + SimTime::from_millis(1);
    assert!(service.submit(tenant, SUM, arrival, None).is_ok());
    service.drain();
    assert_eq!(service.stats().completed_ok, 4);
}

#[test]
fn deadlines_fail_typed_and_never_hang() {
    let mut service = FleetService::new(ServiceConfig {
        devices: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.add_tenant(1);

    // A long job occupies the device...
    let long = JobSpec::Sum {
        n: 8,
        iterations: 40,
    };
    let first = service.submit(tenant, long, SimTime::ZERO, None).unwrap();
    // ...so a tight-deadline job behind it expires while queued.
    let doomed = service
        .submit(tenant, SUM, SimTime::ZERO, Some(SimTime::from_nanos(1)))
        .unwrap();
    service.drain();

    let records = service.records();
    assert_eq!(records.len(), 2);
    let doomed_rec = records.iter().find(|r| r.id == doomed).unwrap();
    match &doomed_rec.outcome {
        Err(ServiceError::DeadlineExceeded(e)) => {
            assert_eq!(e.job, doomed);
            assert_eq!(e.started, None, "expired while queued");
            assert!(e.deadline < doomed_rec.finished.unwrap());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let first_rec = records.iter().find(|r| r.id == first).unwrap();
    assert!(first_rec.outcome.is_ok());
    assert_eq!(service.stats().deadline_missed, 1);
}

#[test]
fn late_finish_carries_fault_and_recovery_trail() {
    // A noisy single-device fleet and a deadline sized so the job runs
    // but finishes late: the typed error must carry the run's trail.
    let mut service = FleetService::new(ServiceConfig {
        devices: 1,
        fault_plans: vec![Some(FaultPlan::seeded(5).ctx_loss_at_draw(1))],
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.add_tenant(1);
    // Measure the clean duration first on an identical but fault-free
    // service, then pick a deadline between queue-exit and finish.
    let clean_finish = {
        let mut clean = FleetService::new(ServiceConfig {
            devices: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let t = clean.add_tenant(1);
        clean.submit(t, SUM, SimTime::ZERO, None).unwrap();
        clean.drain();
        clean.records()[0].finished.unwrap()
    };

    service
        .submit(tenant, SUM, SimTime::ZERO, Some(clean_finish))
        .unwrap();
    service.drain();
    let record = &service.records()[0];
    match &record.outcome {
        Err(ServiceError::DeadlineExceeded(e)) => {
            assert!(e.started.is_some(), "the job ran");
            assert!(e.finished.is_some());
            assert!(
                !e.fault_trail.is_empty(),
                "the injected context loss must be in the trail"
            );
            assert!(!e.recovery.is_empty(), "recovery actions must be recorded");
        }
        Ok(_) => {
            // Recovery was cheap enough to make the deadline: accept, but
            // the job must then have recovered through the fault.
            assert!(record.recovery_events > 0);
        }
        other => panic!("expected DeadlineExceeded or recovery, got {other:?}"),
    }
}

#[test]
fn breaker_quarantines_drains_and_probes_back() {
    let mut service = FleetService::new(ServiceConfig {
        devices: 2,
        // Device 0 exhausts every early job; device 1 is clean.
        fault_plans: vec![Some(hostile_plan(3, 24)), None],
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: SimTime::from_millis(1),
            max_cooldown_factor: 4,
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.add_tenant(1);
    // Wave 1 hits the hostile device and trips its breaker.
    for _ in 0..15 {
        service.submit(tenant, SUM, SimTime::ZERO, None).unwrap();
    }
    service.drain();
    // Wave 2 arrives long after every cooldown rung: the healed device
    // (its fault budget spent) gets a successful probe and rejoins.
    let wave2 = service.stats().makespan + SimTime::from_millis(20);
    for _ in 0..15 {
        service.submit(tenant, SUM, wave2, None).unwrap();
    }
    service.drain();

    let stats = service.stats();
    assert_eq!(stats.admitted, 30);
    assert!(stats.quarantines >= 1, "device 0 must trip: {stats:?}");
    assert!(stats.displaced >= 1, "its queue must drain to device 1");
    assert!(stats.probes >= 1, "cooldown must grant probe slots");
    assert!(stats.failed >= 2, "the trip took consecutive exhaustions");
    assert_eq!(
        stats.completed_ok + stats.failed + stats.deadline_missed,
        30,
        "every admitted job resolves, one way or another: {stats:?}"
    );
    // Every record carries a typed outcome and a finish instant.
    for record in service.records() {
        assert!(record.finished.is_some(), "{:?} never finished", record.id);
        if let Err(e) = &record.outcome {
            assert!(matches!(e, ServiceError::Exhausted(_)), "unexpected: {e}");
        }
    }
    // The device healed (its fault budget ran dry), so a probe
    // eventually succeeded and work flowed back to device 0.
    let per_device = service.device_jobs();
    let ok_on_zero = service
        .records()
        .iter()
        .any(|r| r.device == Some(0) && r.outcome.is_ok());
    assert!(
        ok_on_zero,
        "device 0 must rejoin after a successful probe: {per_device:?}"
    );
}

#[test]
fn same_seed_same_schedule_byte_for_byte() {
    let run = || {
        let mut service = FleetService::new(ServiceConfig {
            devices: 3,
            fault_plans: vec![Some(noisy_plan(11)), None, Some(noisy_plan(12))],
            seed: 42,
            ..ServiceConfig::default()
        })
        .unwrap();
        let a = service.add_tenant(1);
        let b = service.add_tenant(3);
        for i in 0..8u64 {
            let arrival = SimTime::from_micros(i * 40);
            service.submit(a, SUM, arrival, None).unwrap();
            let spec = JobSpec::Sgemm { n: 8, block: 4 };
            service.submit(b, spec, arrival, None).unwrap();
        }
        service.drain();
        service.records().to_vec()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replay must be byte-identical");
    assert!(first.iter().any(|r| r.faults_seen > 0), "noise must fire");
}

#[test]
fn isolation_holds_on_a_noisy_fleet() {
    let mut service = FleetService::new(ServiceConfig {
        devices: 4,
        fault_plans: vec![
            Some(noisy_plan(21)),
            None,
            Some(noisy_plan(22)),
            Some(FaultPlan::seeded(23).ctx_loss_at_draw(2).oom_at_upload(1)),
        ],
        seed: 7,
        ..ServiceConfig::default()
    })
    .unwrap();
    let fast = service.add_tenant(4);
    let slow = service.add_tenant(1);
    for i in 0..10u64 {
        let arrival = SimTime::from_micros(i * 25);
        service.submit(fast, SUM, arrival, None).unwrap();
        let spec = JobSpec::Sgemm { n: 8, block: 2 };
        service.submit(slow, spec, arrival, None).unwrap();
    }
    service.drain();

    let stats = service.stats();
    assert!(stats.completed_ok > 0);
    let divergences = check_service_isolation(&service);
    assert!(
        divergences.is_empty(),
        "tenant transcripts must match solo fault-free runs: {divergences:?}"
    );
}

#[test]
fn unknown_tenant_and_bad_specs_are_typed() {
    let mut service = FleetService::new(ServiceConfig::default()).unwrap();
    let err = service
        .submit(mgpu_service::TenantId(5), SUM, SimTime::ZERO, None)
        .unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant(_)));

    let tenant = service.add_tenant(1);
    let bad = JobSpec::Sgemm { n: 8, block: 3 };
    assert!(matches!(
        service.submit(tenant, bad, SimTime::ZERO, None),
        Err(ServiceError::Config(_))
    ));

    // Oversized shapes are refused at admission: dispatching this one
    // would generate 2^64 - 2^33 + 1 inputs inside the shared service.
    let huge = JobSpec::Sum {
        n: u32::MAX,
        iterations: 1,
    };
    assert!(matches!(
        service.submit(tenant, huge, SimTime::ZERO, None),
        Err(ServiceError::Config(_))
    ));

    // Out-of-order arrivals are a config error, not silent reordering.
    service
        .submit(tenant, SUM, SimTime::from_millis(2), None)
        .unwrap();
    assert!(matches!(
        service.submit(tenant, SUM, SimTime::from_millis(1), None),
        Err(ServiceError::Config(_))
    ));
}
