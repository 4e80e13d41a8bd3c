//! Counting failed ops: an op fails unless its result matches what the
//! workload expects of it. An expected typed error (Fig. 4b's block-32
//! shader-limit rejection) is a success; the same error where a result
//! was expected, any other error, or a result where the error was
//! expected, is a failure.

/// What an op is expected to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A result.
    Success,
    /// A typed shader-limit error (the block size exceeds what the
    /// platform's compiler accepts).
    ShaderLimit,
}

/// The kind of result an op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// A result.
    Success,
    /// A typed shader-limit error.
    ShaderLimit,
    /// Any other error.
    OtherError,
}

/// Whether an op that produced `observed` succeeded under `expect`.
#[must_use]
pub fn matches(expect: Expect, observed: Observed) -> bool {
    matches!(
        (expect, observed),
        (Expect::Success, Observed::Success) | (Expect::ShaderLimit, Observed::ShaderLimit)
    )
}

/// Attempted/failed tally behind `fail_rate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailTally {
    /// Ops (or, for the fleet, submissions) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Submitted jobs the fleet failed, rejected or let miss their
    /// deadline. The faulted regime makes some by design, so they count
    /// in the rate but do not make the run incorrect.
    pub job_failures: u64,
}

impl FailTally {
    /// Records one op; returns whether it succeeded.
    pub fn record(&mut self, expect: Expect, observed: Observed) -> bool {
        let ok = matches(expect, observed);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Records a failed check (it counts as an attempted op that failed).
    pub fn record_failed_check(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records the job failures of a fleet epoch whose submissions were
    /// recorded one by one, so the rate counts both over the same epochs.
    pub fn record_job_failures(&mut self, jobs: u64) {
        self.job_failures += jobs;
    }

    /// (failed + job failures) / attempted (0 when nothing was attempted).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.failed + self.job_failures) as f64 / self.attempted as f64
        }
    }
}
