//! # congos-harness — experiments reproducing the paper's claims
//!
//! *Confidential Gossip* is a theory paper: its "evaluation" is a set of
//! theorems and lemmas. This crate turns each quantitative claim into a
//! measurable experiment over the simulator, and prints the tables recorded
//! in `EXPERIMENTS.md`. Experiment ids match DESIGN.md §4:
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Theorem 1 — the price of strong confidentiality |
//! | E2 | Theorem 2 — confidentiality + Quality of Delivery, always |
//! | E3 | Lemma 7 / Theorem 11 — per-round message complexity |
//! | E4 | Lemma 5 / Lemma 13 — partition goodness |
//! | E5 | Theorem 12 — collusion lower bound (border messages) |
//! | E6 | Theorem 16 — the `τ²` cost of collusion tolerance |
//! | E7 | Robustness — QoD and fallback rate under churn |
//! | E8 | Alternative approaches — CONGOS vs direct/crypto/epidemic |
//! | E9 | Ablations — partitions, fanout constants, substrate strategy |
//! | E10 | Section 7 — metadata-hiding costs |
//! | E11 | Section 7 — communication complexity in bytes |
//! | E12 | Section 7 — adaptive vs oblivious adversary power |
//! | E13 | Source anonymity — who started this rumor, and can CONGOS hide it? |
//! | E14 | Beyond the complete graph — QoD/complexity vs topology |
//!
//! Run any experiment with `cargo run --release -p congos-harness --bin exp
//! -- e1` (etc.), or all of them with `exp all` (see [`cli`]). Pass
//! `--full` for the larger sweeps, and `--backend <seq|par[:N]>` (or set
//! `CONGOS_BACKEND`) to pick the execution backend — results are
//! bit-identical on every backend; only wall-clock time changes. Pass
//! `--topology <complete|expander:d|churn:p>` (or set `CONGOS_TOPOLOGY`) to
//! run an experiment on a sparser or churning network — unlike the backend,
//! the topology *does* change measured outcomes.

// `deny`, not `forbid`: `mem` carries the one sanctioned exception — the
// counting global allocator — under a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod json;
pub mod mem;
pub mod netrun;
pub mod run;
pub mod stats;
pub mod system;
pub mod table;

pub use json::Json;
pub use mem::{MemSample, MemUsage};
pub use netrun::{assert_failure_free, materialize_injections, NetRunReport, NetStats};
pub use run::{
    default_backend, default_net, default_topology, run, run_with_factory, set_default_backend,
    set_default_net, set_default_topology, DeliveryRecord, Logged, QodSummary, RunOutcome,
    RunSpec, TapSpec, DEFAULT_NET_PORT,
};
pub use stats::{fit_power_law, percentile};
pub use system::GossipSystem;
pub use table::{tables_to_markdown, Table};
