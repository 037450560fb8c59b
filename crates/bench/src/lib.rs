//! # unit-bench — the experiment harness
//!
//! Regenerates every table and figure of the UNIT paper's evaluation (§4),
//! and the extensions grown since, from one binary:
//! `cargo run --release -p unit-bench -- <experiment> [flags]`
//! (`-- list` prints the registry). This library holds what the
//! experiments share: the scaled workload plans, the policy runner, the
//! flag grammar, the [`render::Table`] every table experiment returns with
//! its text/CSV/markdown renderers, and the chaos harness.
//!
//! | experiment | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — the nine update traces |
//! | `table2` | Table 2 — the USM weight configurations |
//! | `fig3`   | Fig. 3 — access/update distributions, original vs degraded |
//! | `fig4`   | Fig. 4 — naive USM (success ratio) across 9 traces × 4 policies |
//! | `fig5`   | Fig. 5 — USM under non-zero penalties (Table 2 weightings) |
//! | `fig6`   | Fig. 6 — outcome-ratio decomposition |
//! | `report` | all of the above plus the extension tables, into `results/` |
//!
//! Every experiment accepts `--scale N` dividing the workload size, and
//! `--full` for the paper-scale run (110,035 queries over 3,848,104 s).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cli;
pub mod render;
pub mod runner;

pub use runner::{
    default_workload_plan, run_matrix, run_policy, run_policy_with, worker_pool_size,
    ExperimentPlan, PolicyKind, RunOutcome,
};
