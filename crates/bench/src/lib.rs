//! # mgpu-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V):
//! one module per figure under [`experiments`], shared measurement
//! plumbing in [`setup`], and plain-text table rendering in [`table`].
//!
//! Binaries (`cargo run -p mgpu-bench --bin figN`) print the paper-style
//! rows; the `ablations` bench target (`cargo bench -p mgpu-bench`) runs
//! the ablation studies in the in-tree [`harness`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
pub mod setup;
pub mod table;
