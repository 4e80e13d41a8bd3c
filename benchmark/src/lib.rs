//! # mgpu-benchmark — the repository's host wall-clock benchmark
//!
//! The library half holds the workload-independent machinery, so it can
//! be tested on its own: order statistics and the tail rule ([`stats`]),
//! spans and self time ([`trace`]), op failure counting ([`outcome`]),
//! the metric table ([`catalogue`]), the result-file schema ([`result`],
//! over the small [`json`] module) and `--compare` ([`compare`]). The
//! binary runs the workloads; see `README.md` beside `Cargo.toml`.

#![warn(missing_docs)]

pub mod catalogue;
pub mod compare;
pub mod json;
pub mod outcome;
pub mod result;
pub mod stats;
pub mod trace;

/// FNV-1a over `bytes`, continuing from `state` (start with
/// [`FNV_OFFSET`]). Used for output and simulated-result digests.
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

/// FNV-1a initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
