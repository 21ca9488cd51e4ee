//! One module per experiment (ids match DESIGN.md §4 and EXPERIMENTS.md).

pub mod e10_metadata_hiding;
pub mod e11_communication;
pub mod e12_adaptivity;
pub mod e13_anonymity;
pub mod e14_topology;
pub mod e1_strong_confidentiality;
pub mod e2_correctness;
pub mod e3_complexity;
pub mod e3_memory;
pub mod e4_partitions;
pub mod e5_collusion_lb;
pub mod e6_collusion_cost;
pub mod e7_churn;
pub mod e8_baselines;
pub mod e9_ablation;

use crate::table::Table;

/// An experiment's entry point: its tables at quick (`false`) or full
/// (`true`) scale.
pub type Experiment = fn(bool) -> Vec<Table>;

/// Every experiment [`run_all`] runs, keyed by its `exp` id, in report
/// order. The E3 memory sweep (`exp e3_mem`) is not part of the suite.
pub const SUITE: [(&str, Experiment); 14] = [
    ("e1", e1_strong_confidentiality::run),
    ("e2", e2_correctness::run),
    ("e3", e3_complexity::run),
    ("e4", e4_partitions::run),
    ("e5", e5_collusion_lb::run),
    ("e6", e6_collusion_cost::run),
    ("e7", e7_churn::run),
    ("e8", e8_baselines::run),
    ("e9", e9_ablation::run),
    ("e10", e10_metadata_hiding::run),
    ("e11", e11_communication::run),
    ("e12", e12_adaptivity::run),
    ("e13", e13_anonymity::run),
    ("e14", e14_topology::run),
];

/// Runs every experiment of [`SUITE`] at the given scale and returns all
/// tables.
///
/// Experiments are deterministic and independent, so they execute on
/// parallel threads; the returned tables keep the suite order.
pub fn run_all(full: bool) -> Vec<Table> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = SUITE
            .iter()
            .map(|&(_, job)| scope.spawn(move || job(full)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment thread"))
            .collect()
    })
}
