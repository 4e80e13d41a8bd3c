//! Job specifications: the small, value-typed description a tenant
//! submits. The service turns a spec into a concrete
//! [`RecoverableJob`] at dispatch time, with inputs generated
//! deterministically from the job's seed — which is also what lets the
//! isolation oracle rebuild the *same* job later on a clean device.

use mgpu_gpgpu::{OptConfig, RecoverableJob, SgemmJob, SumJob};
use mgpu_prop::Rng;
use mgpu_workloads::{DenseTraining, GaussianPyramid, JacobiInpaint, WorkloadJob};

use crate::error::ServiceError;

/// Largest matrix, image or grid edge a spec may ask for: the paper's
/// largest problem size. Inputs grow with `n²` and are generated inside
/// the shared service, so an unbounded edge lets one tenant's request
/// exhaust the process's memory (or overflow the input length).
pub const MAX_SPEC_EDGE: u32 = 1024;

/// Largest iteration or step count a spec may ask for: the paper's
/// 10 000-iteration measurement protocol. Bounds the device time one job
/// can hold.
pub const MAX_SPEC_ITERATIONS: u32 = 10_000;

/// A tenant-submitted job shape. Costs (for fair scheduling) and inputs
/// (for execution and for the isolation re-run) both derive from the
/// spec plus a seed — a spec is pure data and can be replayed anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSpec {
    /// Element-wise sum of two `n`×`n` matrices, iterated.
    Sum {
        /// Matrix edge (the job uploads two `n`×`n` inputs).
        n: u32,
        /// Kernel iterations (= scheduling cost in passes).
        iterations: u32,
    },
    /// Blocked matrix multiplication of two `n`×`n` matrices.
    Sgemm {
        /// Matrix edge.
        n: u32,
        /// Accumulation block size; the multiply runs `n / block` passes.
        block: u32,
    },
    /// Separable-Gaussian image pyramid over a seeded `n`×`n` RGBA8
    /// image — two blur passes per level.
    Pyramid {
        /// Image edge.
        n: u32,
        /// Pyramid depth; the dilation of the deepest level
        /// (`2^(levels-1)`) must stay below `n`.
        levels: u32,
    },
    /// Fixed-count weighted-Jacobi stencil solve on an `n`×`n` grid.
    Jacobi {
        /// Grid edge.
        n: u32,
        /// Iteration count (one pass each).
        iterations: u32,
    },
    /// Dense-layer SGD training loop on `n`×`n` encoded matrices.
    Train {
        /// Layer dimension.
        n: u32,
        /// Matmul chunk size (must divide `n`).
        block: u32,
        /// SGD step count; each step is `2·(n/block) + 4` passes.
        steps: u32,
    },
}

impl JobSpec {
    /// The job's scheduling cost: its pass count. Deficit-round-robin
    /// spends tenant deficit in these units, so "work" means device
    /// passes, not job count — a tenant of many small jobs and a tenant
    /// of few large ones are weighed on the same scale.
    #[must_use]
    pub fn passes(&self) -> u64 {
        match *self {
            JobSpec::Sum { iterations, .. } => u64::from(iterations.max(1)),
            JobSpec::Sgemm { n, block } => {
                let b = block.max(1);
                u64::from(n / b.min(n).max(1)).max(1)
            }
            JobSpec::Pyramid { levels, .. } => u64::from(levels.max(1)) * 2,
            JobSpec::Jacobi { iterations, .. } => u64::from(iterations.max(1)),
            JobSpec::Train { n, block, steps } => {
                let chunks = u64::from(n / block.min(n).max(1)).max(1);
                (2 * chunks + 4) * u64::from(steps.max(1))
            }
        }
    }

    /// Human-readable label matching the built job's.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            JobSpec::Sum { n, iterations } => format!("sum {n}x{n} x{iterations}"),
            JobSpec::Sgemm { n, block } => format!("sgemm {n}x{n} b{block}"),
            // The workload labels match `Workload::name`, which is what
            // `WorkloadJob::label` reports.
            JobSpec::Pyramid { n, levels } => format!("pyramid n{n} l{levels}"),
            JobSpec::Jacobi { n, iterations } => format!("jacobi n{n} i{iterations}"),
            JobSpec::Train { n, block, steps } => format!("train n{n} b{block} s{steps}"),
        }
    }

    /// Validates the shape at admission time, so a nonsensical spec is a
    /// typed [`ServiceError::Config`] at `submit` instead of a runtime
    /// failure charged to a device.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] for zero sizes, a block that does not
    /// divide `n`, or an edge or iteration/step count past
    /// [`MAX_SPEC_EDGE`] / [`MAX_SPEC_ITERATIONS`].
    pub fn validate(&self) -> Result<(), ServiceError> {
        let (n, repeats) = match *self {
            JobSpec::Sum { n, iterations } | JobSpec::Jacobi { n, iterations } => (n, iterations),
            JobSpec::Train { n, steps, .. } => (n, steps),
            JobSpec::Sgemm { n, .. } | JobSpec::Pyramid { n, .. } => (n, 1),
        };
        if n > MAX_SPEC_EDGE || repeats > MAX_SPEC_ITERATIONS {
            return Err(ServiceError::Config(format!(
                "{} exceeds the spec caps: n <= {MAX_SPEC_EDGE}, \
                 iterations and steps <= {MAX_SPEC_ITERATIONS}",
                self.label()
            )));
        }
        match *self {
            JobSpec::Sum { n, iterations } => {
                if n == 0 || iterations == 0 {
                    return Err(ServiceError::Config(format!(
                        "sum spec needs n >= 1 and iterations >= 1, got n={n} x{iterations}"
                    )));
                }
            }
            JobSpec::Sgemm { n, block } => {
                if n == 0 || block == 0 || n % block != 0 {
                    return Err(ServiceError::Config(format!(
                        "sgemm spec needs block >= 1 dividing n, got n={n} b{block}"
                    )));
                }
            }
            JobSpec::Pyramid { n, levels } => {
                if levels == 0 || levels > 31 || (1u32 << (levels - 1)) >= n {
                    return Err(ServiceError::Config(format!(
                        "pyramid spec needs levels >= 1 with 2^(levels-1) < n, \
                         got n={n} l{levels}"
                    )));
                }
            }
            JobSpec::Jacobi { n, iterations } => {
                if n == 0 || iterations == 0 {
                    return Err(ServiceError::Config(format!(
                        "jacobi spec needs n >= 1 and iterations >= 1, got n={n} i{iterations}"
                    )));
                }
            }
            JobSpec::Train { n, block, steps } => {
                if n == 0 || block == 0 || n % block != 0 || steps == 0 {
                    return Err(ServiceError::Config(format!(
                        "train spec needs steps >= 1 and block >= 1 dividing n, \
                         got n={n} b{block} s{steps}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Materialises the spec into a runnable job, generating its inputs
    /// from `input_seed`. The same `(spec, input_seed, cfg)` triple always
    /// builds a byte-identical job — the foundation of the fleet
    /// isolation check.
    #[must_use]
    pub fn build(&self, cfg: &OptConfig, input_seed: u64) -> Box<dyn RecoverableJob> {
        match *self {
            JobSpec::Sum { n, iterations } => {
                let mut rng = Rng::new(input_seed);
                let len = n as usize * n as usize;
                let a = random_inputs(&mut rng, len);
                let b = random_inputs(&mut rng, len);
                Box::new(SumJob::new(cfg, n, &a, &b, iterations as usize))
            }
            JobSpec::Sgemm { n, block } => {
                let mut rng = Rng::new(input_seed);
                let len = n as usize * n as usize;
                let a = random_inputs(&mut rng, len);
                let b = random_inputs(&mut rng, len);
                Box::new(SgemmJob::new(cfg, n, block, &a, &b))
            }
            // The workload families generate their own inputs from the
            // seed, so the spec hands it straight through.
            JobSpec::Pyramid { n, levels } => Box::new(WorkloadJob::new(
                cfg,
                &GaussianPyramid::new(n, levels, input_seed),
            )),
            JobSpec::Jacobi { n, iterations } => Box::new(WorkloadJob::new(
                cfg,
                &JacobiInpaint::new(n, iterations, input_seed),
            )),
            JobSpec::Train { n, block, steps } => Box::new(WorkloadJob::new(
                cfg,
                &DenseTraining::new(n, block, steps, input_seed),
            )),
        }
    }
}

/// Inputs in `[0, 1)`: inside both operators' default input range, and
/// with sums/products that stay inside their default output ranges.
fn random_inputs(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.f32(0.0, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_match_job_shapes() {
        assert_eq!(
            JobSpec::Sum {
                n: 8,
                iterations: 3
            }
            .passes(),
            3
        );
        assert_eq!(JobSpec::Sgemm { n: 8, block: 2 }.passes(), 4);
        assert_eq!(JobSpec::Sgemm { n: 8, block: 8 }.passes(), 1);
        // Two blur passes per level.
        assert_eq!(JobSpec::Pyramid { n: 8, levels: 3 }.passes(), 6);
        assert_eq!(
            JobSpec::Jacobi {
                n: 8,
                iterations: 7
            }
            .passes(),
            7
        );
        // (2·(n/block) + 4) passes per step.
        assert_eq!(
            JobSpec::Train {
                n: 8,
                block: 4,
                steps: 3
            }
            .passes(),
            24
        );
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(JobSpec::Sum {
            n: 0,
            iterations: 1
        }
        .validate()
        .is_err());
        assert!(JobSpec::Sum {
            n: 8,
            iterations: 0
        }
        .validate()
        .is_err());
        assert!(JobSpec::Sgemm { n: 8, block: 3 }.validate().is_err());
        assert!(JobSpec::Sgemm { n: 8, block: 0 }.validate().is_err());
        assert!(JobSpec::Sgemm { n: 8, block: 4 }.validate().is_ok());
        // Deepest level's dilation (2^(levels-1)) must stay inside the image.
        assert!(JobSpec::Pyramid { n: 8, levels: 0 }.validate().is_err());
        assert!(JobSpec::Pyramid { n: 8, levels: 4 }.validate().is_err());
        assert!(JobSpec::Pyramid { n: 8, levels: 3 }.validate().is_ok());
        assert!(JobSpec::Jacobi {
            n: 8,
            iterations: 0
        }
        .validate()
        .is_err());
        assert!(JobSpec::Jacobi {
            n: 8,
            iterations: 4
        }
        .validate()
        .is_ok());
        assert!(JobSpec::Train {
            n: 8,
            block: 3,
            steps: 1
        }
        .validate()
        .is_err());
        assert!(JobSpec::Train {
            n: 8,
            block: 2,
            steps: 0
        }
        .validate()
        .is_err());
        assert!(JobSpec::Train {
            n: 8,
            block: 2,
            steps: 2
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_sizes_past_the_caps() {
        let over = MAX_SPEC_EDGE + 1;
        let too_many = MAX_SPEC_ITERATIONS + 1;
        for spec in [
            // Admitted, this one would panic with "capacity overflow" in
            // `random_inputs(n * n)` at dispatch.
            JobSpec::Sum {
                n: u32::MAX,
                iterations: 1,
            },
            JobSpec::Sum {
                n: over,
                iterations: 1,
            },
            JobSpec::Sum {
                n: 8,
                iterations: too_many,
            },
            JobSpec::Sgemm { n: 2048, block: 16 },
            JobSpec::Pyramid { n: 2048, levels: 2 },
            JobSpec::Jacobi {
                n: over,
                iterations: 1,
            },
            JobSpec::Jacobi {
                n: 8,
                iterations: u32::MAX,
            },
            JobSpec::Train {
                n: 2048,
                block: 2048,
                steps: 1,
            },
            JobSpec::Train {
                n: 8,
                block: 4,
                steps: too_many,
            },
        ] {
            assert!(
                matches!(spec.validate(), Err(ServiceError::Config(_))),
                "{spec:?} must be rejected"
            );
        }
        // The caps themselves are admissible.
        for spec in [
            JobSpec::Sum {
                n: MAX_SPEC_EDGE,
                iterations: MAX_SPEC_ITERATIONS,
            },
            JobSpec::Sgemm {
                n: MAX_SPEC_EDGE,
                block: 16,
            },
            JobSpec::Train {
                n: MAX_SPEC_EDGE,
                block: MAX_SPEC_EDGE,
                steps: MAX_SPEC_ITERATIONS,
            },
        ] {
            assert!(spec.validate().is_ok(), "{spec:?} must be admitted");
        }
    }

    #[test]
    fn workload_spec_labels_match_built_jobs() {
        let cfg = OptConfig::baseline().without_swap();
        for spec in [
            JobSpec::Pyramid { n: 8, levels: 2 },
            JobSpec::Jacobi {
                n: 8,
                iterations: 3,
            },
            JobSpec::Train {
                n: 8,
                block: 4,
                steps: 1,
            },
        ] {
            spec.validate().expect("valid spec");
            assert_eq!(spec.label(), spec.build(&cfg, 5).label());
        }
    }

    #[test]
    fn build_is_deterministic_in_the_seed() {
        let cfg = OptConfig::baseline().without_swap();
        let spec = JobSpec::Sum {
            n: 4,
            iterations: 2,
        };
        let a = spec.build(&cfg, 99).label();
        let b = spec.build(&cfg, 99).label();
        assert_eq!(a, b);
        assert_eq!(spec.label(), a);
    }
}
