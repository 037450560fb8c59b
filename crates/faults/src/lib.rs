//! # unit-faults — deterministic fault injection
//!
//! A seeded, fully declarative fault layer for the UNIT simulator (DESIGN.md
//! §4). Faults are expressed as **virtual-time data** fixed before the first
//! event fires:
//!
//! * **crash/recovery windows** ([`CrashWindow`]) — a shard is fully paused
//!   ([`FaultMode::Pause`]) or serves degraded reads from last-applied
//!   versions ([`FaultMode::DegradedReads`]),
//! * **update-stream faults** ([`StreamFault`]) — per-item intervals where
//!   arriving versions are dropped or delayed, feeding the real
//!   `Udrop`/freshness path,
//! * **load bursts** ([`Burst`]) — background update-class CPU demand
//!   injected at chosen instants.
//!
//! Schedules are generated from a seed through counter-mode SplitMix64
//! ([`unit_core::seed::split_seed`]; no wall clocks, no OS entropy — lint
//! rule D2), so a faulty run is a pure function of
//! `(trace, policy, config, seed)` and bit-reproducible. The empty schedule
//! is **provably inert**: installing it changes no engine behaviour, which
//! the fault differential suite pins digest-for-digest.
//!
//! [`ShardFaults`] adapts a validated [`FaultSchedule`] to the engine's
//! [`unit_sim::faults::FaultHook`]; the cluster dispatcher reads the same
//! schedules for failover routing (`unit_cluster::failover`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::float_cmp
    )
)]

pub mod hook;
pub mod schedule;

pub use hook::ShardFaults;
pub use schedule::{
    Burst, CrashWindow, FaultConfig, FaultMode, FaultSchedule, ScheduleError, StreamFault,
    StreamFaultKind,
};

use unit_core::seed::split_seed;

/// Per-shard fault schedules for a whole cluster, derived from one run
/// seed: shard `i` gets `FaultSchedule::generate(split_seed(seed, i), cfg)`,
/// the same stream-splitting construction the cluster uses for policy
/// seeds.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// One schedule per shard, indexed by shard id.
    pub shards: Vec<FaultSchedule>,
}

impl FaultPlan {
    /// A plan with an empty (inert) schedule for every shard.
    pub fn quiet(n_shards: usize) -> FaultPlan {
        FaultPlan {
            shards: vec![FaultSchedule::empty(); n_shards],
        }
    }

    /// Generate one schedule per shard from the run seed.
    pub fn generate(seed: u64, n_shards: usize, cfg: &FaultConfig) -> FaultPlan {
        FaultPlan {
            shards: (0..n_shards)
                .map(|s| FaultSchedule::generate(split_seed(seed, s as u64), cfg))
                .collect(),
        }
    }

    /// True when every shard's schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FaultSchedule::is_empty)
    }

    /// Validate every shard schedule.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        for s in &self.shards {
            s.validate()?;
        }
        Ok(())
    }

    /// Validate every shard schedule against a workload horizon (the
    /// opt-in audit of [`FaultSchedule::validate_against_horizon`]):
    /// faults that start at or past the horizon never fire and are
    /// rejected as configuration mistakes.
    pub fn validate_against_horizon(
        &self,
        horizon: unit_core::time::SimTime,
    ) -> Result<(), ScheduleError> {
        for s in &self.shards {
            s.validate_against_horizon(horizon)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::time::SimDuration;

    #[test]
    fn quiet_plan_is_empty_and_valid() {
        let p = FaultPlan::quiet(4);
        assert_eq!(p.shards.len(), 4);
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn generated_plan_gives_each_shard_its_own_schedule() {
        let cfg = FaultConfig::quiet(SimDuration::from_secs(300), 100).with_crashes(
            0.15,
            SimDuration::from_secs(10),
            FaultMode::Pause,
        );
        let p = FaultPlan::generate(0x5EED_0001, 3, &cfg);
        assert!(p.validate().is_ok());
        assert!(!p.is_empty());
        assert_ne!(p.shards[0], p.shards[1], "shards get independent streams");
        assert_ne!(p.shards[1], p.shards[2]);
        let again = FaultPlan::generate(0x5EED_0001, 3, &cfg);
        assert_eq!(p, again, "plan is a pure function of the seed");
    }
}
