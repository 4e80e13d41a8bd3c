//! # mgpu-conformance — differential conformance oracle with shrinking
//!
//! The stack makes a strong promise: the functional output of a GL script
//! is a pure function of the script, never of *how* the driver executed
//! it. Engine tier (scalar vs compiled), bind-time specialisation,
//! dispatcher (serial, scope-spawn, persistent pool), draw-plan caching
//! and host thread count are all pure wall-clock knobs; simulated timing
//! is equally invariant, and a fault-injected run that recovers must be
//! indistinguishable — byte for byte — from a run that never faulted.
//!
//! This crate turns that promise into an executable oracle:
//!
//! * [`lattice`](lattice()) enumerates the execution-configuration points
//!   ([`ExecPoint`]) every case must agree across;
//! * [`run_case`] executes a generated [`ConfCase`](mgpu_prop::shadergen::ConfCase)
//!   script against one point, producing a transcript of step outcomes
//!   (pixels, successes, *and* typed errors — error paths are
//!   differentially tested exactly like pixel paths) plus the
//!   [`SimReport`](mgpu_tbdr::SimReport);
//! * [`check_case`] / [`check_fault_recovery`] are the oracles;
//! * [`check_fleet_isolation`] lifts the promise to the multi-tenant
//!   service layer: a seeded fleet scenario must replay exactly and every
//!   tenant's bytes must match a solo fault-free re-run;
//! * [`shrink_case`] greedily minimises a failing case — deleting script
//!   steps, deleting AST statements and globals, and collapsing
//!   expressions — while [`shrink_point`] bisects the configuration
//!   toward the serial/scalar baseline;
//! * [`format_case`] / [`parse_case`] give every failure a replayable
//!   `.case` file; the checked-in `corpus/` goldens replay in CI.
//!
//! The `mgpu-fuzz` binary (in `mgpu-bench`) drives the whole loop from a
//! seed and a budget.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod case;
pub mod fleet;
pub mod lattice;
pub mod oracle;
pub mod run;
pub mod shrink;
pub mod workloads;

pub use case::{format_case, parse_case, CaseFile};
pub use fleet::{
    check_fleet_isolation, check_workload_fleet_isolation, fleet_scenario, workload_fleet_scenario,
    FleetScenario,
};
pub use lattice::{lattice, ExecPoint};
pub use oracle::{check_case, check_fault_recovery, random_recovery_plan, Divergence};
pub use run::{normalize_error, run_case, spec_from_source, RunOutcome, StepOutcome};
pub use shrink::{ast_nodes, shrink_case, shrink_point};
pub use workloads::workload_cases;
