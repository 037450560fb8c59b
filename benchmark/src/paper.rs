//! The paper-scale workload plan the simulator and cluster workloads share:
//! the cello99a-like query trace (110 035 queries over 3 848 104 s on 1024
//! items) against Table 1's update traces, a 10 s control tick, the
//! low-C_r/high-C_fm weights and UNIT's paper constants.
//!
//! The query trace is this repo's stand-in for the cello99a trace: a fixed
//! dataset, generated with the seed every figure of the reproduction uses.
//! `--seed` drives everything run against it — the update traces (which items,
//! phases, execution times), the policies' lottery, the cluster's shard seeds
//! and the fault plan. Reseeding the query trace as well would reshuffle which
//! items are hot, and with it how evenly a 4-shard cluster is loaded: one
//! cluster cell then costs 0.39 s or 0.65 s depending on the seed alone, and
//! no bound could tell a regression from a reshuffle.

use unit_core::config::UnitConfig;
use unit_core::split_seed;
use unit_core::time::SimDuration;
use unit_core::usm::UsmWeights;
use unit_sim::SimConfig;
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

pub const WEIGHTS: UsmWeights = UsmWeights::low_high_cfm();

/// One Table 1 cell: an update volume and its spatial distribution.
pub type Cell = (UpdateVolume, UpdateDistribution);

/// The nine Table 1 cells, in the order Fig. 4 plots them.
pub const CELLS: [Cell; 9] = {
    use UpdateDistribution::{NegativeCorrelation as Neg, PositiveCorrelation as Pos, Uniform};
    use UpdateVolume::{High, Low, Med};
    [
        (Low, Uniform),
        (Low, Pos),
        (Low, Neg),
        (Med, Uniform),
        (Med, Pos),
        (Med, Neg),
        (High, Uniform),
        (High, Pos),
        (High, Neg),
    ]
};

pub const MED_UNIF: Cell = CELLS[3];

/// The paper-scale query trace configuration (see the module docs for why
/// its seed is the repo's fixed one).
pub fn query_config() -> QueryTraceConfig {
    QueryTraceConfig::default()
}

/// Table 1 update trace configuration for one cell, seeded from `seed`.
pub fn update_config(cell: Cell, seed: u64) -> UpdateTraceConfig {
    UpdateTraceConfig {
        seed: split_seed(seed, 0x0b),
        ..UpdateTraceConfig::table1(cell.0, cell.1)
    }
}

pub fn bundle(cell: Cell, seed: u64) -> TraceBundle {
    TraceBundle::generate(&query_config(), &update_config(cell, seed))
}

pub fn sim_config(horizon: SimDuration) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(WEIGHTS)
        .with_tick_period(SimDuration::from_secs(10))
}

/// UNIT's paper constants; `seed` feeds the policy's lottery.
pub fn unit_config(seed: u64) -> UnitConfig {
    UnitConfig::with_weights(WEIGHTS).with_seed(split_seed(seed, 0x17))
}
