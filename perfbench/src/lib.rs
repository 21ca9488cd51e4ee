//! The repository benchmark: named workloads over the public entry points
//! of the simulator (`congos_sim::Engine`) and the TCP runtime
//! (`congos_net::run_cluster`), with a separate traced run that attributes
//! each workload's cost to the layers it crosses. See `README.md`.

pub mod kernels;
pub mod run;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod workload;
