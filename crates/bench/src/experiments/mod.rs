//! The experiments, one module each; `main.rs` holds the registry that
//! names them.

pub(crate) mod ablation;
pub(crate) mod chaos;
pub(crate) mod cluster;
pub(crate) mod cpus;
pub(crate) mod crossover;
pub(crate) mod faults;
pub(crate) mod fig3;
pub(crate) mod fig4;
pub(crate) mod fig5;
pub(crate) mod fig6;
pub(crate) mod replication;
pub(crate) mod sensitivity;
pub(crate) mod table1;
pub(crate) mod table2;
pub(crate) mod timeline;
pub(crate) mod tracegen;
pub(crate) mod variance;

use unit_core::usm::UsmWeights;

/// The paper's Table 2: `(regime, setup, weights)`, the `< 1` regime first —
/// printed by `table2`, priced by `fig5`, and (first regime) driven by `fig6`.
pub(crate) fn table2_weightings() -> [(&'static str, &'static str, UsmWeights); 6] {
    [
        ("penalties < 1", "high C_r", UsmWeights::low_high_cr()),
        ("penalties < 1", "high C_fm", UsmWeights::low_high_cfm()),
        ("penalties < 1", "high C_fs", UsmWeights::low_high_cfs()),
        ("penalties > 1", "high C_r", UsmWeights::high_high_cr()),
        ("penalties > 1", "high C_fm", UsmWeights::high_high_cfm()),
        ("penalties > 1", "high C_fs", UsmWeights::high_high_cfs()),
    ]
}
