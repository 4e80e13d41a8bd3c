//! Property-based invariants of the TBDR scheduler.

use mgpu_prop::{run_cases, Rng};
use mgpu_tbdr::{
    AllocKind, CopyOut, FragmentProfile, FrameWork, PipelineSim, Platform, RenderTarget,
    ResourceId, SimTime, SyncOp, Upload,
};

/// A small but varied fragment profile.
fn gen_profile(rng: &mut Rng) -> FragmentProfile {
    FragmentProfile {
        alu_cycles: rng.f64(0.0, 64.0),
        streaming_fetches: rng.f64(0.0, 4.0),
        streaming_fetch_bytes: rng.f64(0.0, 16.0),
        dependent_fetches: rng.f64(0.0, 4.0),
        dependent_fetch_bytes: rng.f64(0.0, 16.0),
        output_bytes: rng.f64(1.0, 8.0),
    }
}

/// One frame with random-ish structure over a handful of resources.
fn gen_frame(rng: &mut Rng) -> FrameWork {
    let profile = gen_profile(rng);
    let width = rng.u32_in(1, 3) * 64;
    let height = rng.u32_in(1, 3) * 64;
    let n_uploads = rng.usize_in(0, 3);
    let cleared = rng.bool();
    let to_texture = rng.bool();
    let sync = rng.u32_in(0, 4);
    let read = rng.u64_in(0, 4);
    let copy = rng.bool();

    let mut f = FrameWork::simple(width, height, profile);
    f.fragment.cleared = cleared;
    for i in 0..n_uploads {
        f.uploads.push(if i % 2 == 0 {
            Upload::fresh(ResourceId::from_raw(100 + i as u64), 4096)
        } else {
            Upload::reuse(ResourceId::from_raw(100 + i as u64), 4096)
        });
    }
    if to_texture {
        f.target = RenderTarget::Texture {
            storage: ResourceId::from_raw(50),
            fresh: false,
        };
    } else if copy {
        f.copy_out = Some(CopyOut {
            dest: ResourceId::from_raw(60),
            bytes: u64::from(width) * u64::from(height) * 4,
            alloc: AllocKind::Reuse,
        });
    }
    f.reads.push(ResourceId::from_raw(read));
    f.sync = match sync {
        0 => SyncOp::None,
        1 => SyncOp::Finish,
        2 => SyncOp::Swap { interval: 0 },
        _ => SyncOp::Swap { interval: 1 },
    };
    f
}

/// Every stage of every frame is well-ordered, and per-unit intervals
/// never overlap across frames.
#[test]
fn stages_ordered_and_units_exclusive() {
    run_cases(256, |rng| {
        let n = rng.usize_in(1, 20);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        let platform = if rng.bool() {
            Platform::videocore_iv()
        } else {
            Platform::sgx_545()
        };
        let mut sim = PipelineSim::new(platform);
        let mut prev_frag_end = SimTime::ZERO;
        let mut prev_vtx_end = SimTime::ZERO;
        let mut prev_copy_end = SimTime::ZERO;
        for f in &frames {
            let t = sim.submit(f);
            assert!(t.cpu_start <= t.submit);
            assert!(t.submit <= t.vtx_start);
            assert!(t.vtx_start <= t.vtx_end);
            assert!(t.vtx_end <= t.frag_start);
            assert!(t.frag_start <= t.frag_end);
            assert!(t.retire >= t.frag_end);
            // Units are exclusive: each stage starts after the unit's
            // previous occupant finished.
            assert!(t.vtx_start >= prev_vtx_end);
            assert!(t.frag_start >= prev_frag_end);
            if let Some((cs, ce)) = t.copy {
                assert!(cs >= t.frag_end);
                assert!(cs >= prev_copy_end);
                assert!(ce >= cs);
                prev_copy_end = ce;
            }
            prev_vtx_end = t.vtx_end;
            prev_frag_end = t.frag_end;
        }
    });
}

/// Submitting more work never makes the simulation end earlier.
#[test]
fn total_time_is_monotone() {
    run_cases(64, |rng| {
        let n = rng.usize_in(2, 16);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        let platform = Platform::videocore_iv();
        let mut totals = Vec::new();
        for n in 1..=frames.len() {
            let mut sim = PipelineSim::new(platform.clone());
            for f in &frames[..n] {
                sim.submit(f);
            }
            totals.push(sim.finish().total_time);
        }
        for w in totals.windows(2) {
            assert!(w[1] >= w[0]);
        }
    });
}

/// The schedule for a prefix of the frame stream is unaffected by what
/// comes later (causality).
#[test]
fn schedule_is_causal() {
    run_cases(128, |rng| {
        let n = rng.usize_in(2, 12);
        let frames: Vec<FrameWork> = (0..n).map(|_| gen_frame(rng)).collect();
        let platform = Platform::sgx_545();
        let mut full = PipelineSim::new(platform.clone());
        let full_timings: Vec<_> = frames.iter().map(|f| full.submit(f)).collect();

        let k = frames.len() / 2;
        let mut partial = PipelineSim::new(platform);
        for (i, f) in frames[..k].iter().enumerate() {
            let t = partial.submit(f);
            assert_eq!(&t, &full_timings[i]);
        }
    });
}

/// Fragment time grows monotonically with the fragment count.
#[test]
fn fragment_time_monotone_in_coverage() {
    run_cases(256, |rng| {
        let profile = gen_profile(rng);
        let sim = PipelineSim::new(Platform::videocore_iv());
        let mut prev = SimTime::ZERO;
        for mult in 1u32..=4 {
            let f = FrameWork::simple(64 * mult, 64, profile);
            let t = sim.fragment_time(&f.fragment, false);
            assert!(t >= prev);
            prev = t;
        }
    });
}

/// Vsync never makes a frame finish earlier, and never alters GPU-side
/// timing of the frame itself.
#[test]
fn vsync_only_delays() {
    run_cases(256, |rng| {
        let profile = gen_profile(rng);
        let platform = Platform::videocore_iv();
        let mut swap = FrameWork::simple(128, 128, profile);
        swap.sync = SyncOp::Swap { interval: 1 };
        let mut nosync = swap.clone();
        nosync.sync = SyncOp::Swap { interval: 0 };

        let mut sim_a = PipelineSim::new(platform.clone());
        let ta = sim_a.submit(&swap);
        let mut sim_b = PipelineSim::new(platform);
        let tb = sim_b.submit(&nosync);
        assert_eq!(ta.frag_end, tb.frag_end);
        assert!(ta.next_cpu_free >= tb.next_cpu_free);
    });
}

/// The running `total_time()` is the latest `retire` or `next_cpu_free` of
/// any frame so far, and the report carries it, after every submit —
/// including streams where an earlier frame's large copy retires after
/// later frames, so the end is not the last frame's.
#[test]
fn running_total_time_is_the_latest_frame_end() {
    let mut outlived = 0;
    run_cases(256, |rng| {
        let platform = if rng.bool() {
            Platform::videocore_iv()
        } else {
            Platform::sgx_545()
        };
        let mut sim = PipelineSim::new(platform);
        assert_eq!(sim.total_time(), SimTime::ZERO);
        for _ in 0..rng.usize_in(1, 20) {
            let mut f = gen_frame(rng);
            if rng.u32_in(0, 4) == 0 {
                // A 64 MiB copy out of the window surface with no sync:
                // frames rendering to textures overtake it.
                f.target = RenderTarget::Framebuffer {
                    surface: rng.u32_in(0, 2),
                };
                f.copy_out = Some(CopyOut {
                    dest: ResourceId::from_raw(70),
                    bytes: 64 << 20,
                    alloc: AllocKind::Fresh,
                });
                f.sync = SyncOp::None;
            }
            let t = sim.submit(&f);
            let report = sim.report();
            let latest = report
                .frames
                .iter()
                .map(|f| f.retire.max(f.next_cpu_free))
                .max();
            assert_eq!(Some(sim.total_time()), latest);
            assert_eq!(report.total_time, sim.total_time());
            if sim.total_time() > t.retire.max(t.next_cpu_free) {
                outlived += 1;
            }
        }
    });
    assert!(outlived > 0, "no frame was outlived by an earlier copy");
}
