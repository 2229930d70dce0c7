//! Host-time benchmark of the ISA-Grid simulator.
//!
//! The simulator's result is modeled cycles; this benchmark measures
//! the other quantity, the host seconds it costs to produce them. It
//! drives three workloads through the repository's public entry points
//! (`isa_grid_bench::serve::run`/`run_hooked`, `SimBuilder::boot` +
//! `Session::drain`), times everything with its own clock, checks the
//! simulated outputs, and reports end-to-end metrics ([`e2e`]) or, in a
//! separate traced run, per-layer metrics and a self-time ledger
//! ([`layers`]). See `README.md` beside this crate.

pub mod check;
pub mod e2e;
pub mod golden;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
