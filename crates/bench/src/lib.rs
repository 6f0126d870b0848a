#![warn(missing_docs)]

//! # logres-bench
//!
//! Workload generators and experiment runners for the LOGRES reproduction.
//!
//! The paper (SIGMOD 1990) is a design overview and publishes **no
//! measured tables or figures**; the experiment suite E1–E16 defined in
//! DESIGN.md §4 turns every worked example and every performance-relevant
//! prose claim into a measured table. Each experiment is a row generator in
//! [`experiments`], used by the `tables` binary to print the parameter
//! sweeps recorded in EXPERIMENTS.md
//! (`cargo run -p logres-bench --release --bin tables`).

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
