//! The [`FaultHook`] adapter: plugs a validated [`FaultSchedule`] into a
//! [`unit_sim::Simulator`] via `SimRun::with_faults`.

use crate::schedule::{FaultMode, FaultSchedule, ScheduleError};
use unit_core::time::SimTime;
use unit_core::types::DataId;
use unit_sim::faults::{BackgroundLoad, FaultHook, HealthState, UpdateFault};

/// One shard's fault hook: a validated schedule plus the O(log F) lookups
/// the engine needs. Construction validates, so an installed hook can never
/// carry overlapping windows or unbounded instants.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    schedule: FaultSchedule,
}

impl ShardFaults {
    /// Wrap a schedule, validating it first.
    pub fn new(schedule: FaultSchedule) -> Result<ShardFaults, ScheduleError> {
        schedule.validate()?;
        Ok(ShardFaults { schedule })
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl FaultHook for ShardFaults {
    /// O(W + B): every window boundary plus every burst instant.
    fn transition_times(&self) -> Vec<SimTime> {
        self.schedule.transition_instants()
    }

    /// O(log W) binary search over the crash windows.
    fn health(&self, now: SimTime) -> HealthState {
        self.schedule.health_at(now)
    }

    /// O(log F) binary search over the per-item fault intervals.
    fn update_fault(&self, item: DataId, now: SimTime) -> UpdateFault {
        self.schedule.update_fault_at(item, now)
    }

    /// O(log B + B_now) binary search plus the loads at exactly `now`.
    fn load_at(&self, now: SimTime) -> Vec<BackgroundLoad> {
        self.schedule.loads_at(now)
    }

    /// O(W): the starts of every [`FaultMode::CrashLoseState`] window.
    /// Already sorted — validation orders the windows — and each start is
    /// in [`FaultHook::transition_times`] via
    /// [`FaultSchedule::transition_instants`].
    fn lose_state_crashes(&self) -> Vec<SimTime> {
        self.schedule
            .crashes
            .iter()
            .filter(|w| w.mode == FaultMode::CrashLoseState)
            .map(|w| w.start)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CrashWindow, FaultMode};

    #[test]
    fn construction_validates() {
        assert!(ShardFaults::new(FaultSchedule::empty()).is_ok());
        let bad = FaultSchedule {
            crashes: vec![CrashWindow {
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(5),
                mode: FaultMode::Pause,
            }],
            ..FaultSchedule::default()
        };
        assert!(ShardFaults::new(bad).is_err());
    }

    #[test]
    fn hook_delegates_to_schedule() {
        let s = FaultSchedule {
            crashes: vec![CrashWindow {
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(20),
                mode: FaultMode::Pause,
            }],
            ..FaultSchedule::default()
        };
        let hook = ShardFaults::new(s).expect("valid schedule");
        assert_eq!(hook.transition_times().len(), 2);
        assert_eq!(
            hook.health(SimTime::from_secs(15)),
            HealthState::Down {
                until: SimTime::from_secs(20)
            }
        );
        assert_eq!(
            hook.update_fault(DataId(0), SimTime::from_secs(15)),
            UpdateFault::Apply
        );
        assert!(hook.load_at(SimTime::from_secs(15)).is_empty());
        assert!(hook.lose_state_crashes().is_empty(), "pause windows only");
    }

    #[test]
    fn lose_state_crashes_are_the_crash_mode_starts() {
        let s = FaultSchedule {
            crashes: vec![
                CrashWindow {
                    start: SimTime::from_secs(10),
                    end: SimTime::from_secs(11),
                    mode: FaultMode::CrashLoseState,
                },
                CrashWindow {
                    start: SimTime::from_secs(20),
                    end: SimTime::from_secs(30),
                    mode: FaultMode::Pause,
                },
                CrashWindow {
                    start: SimTime::from_secs(40),
                    end: SimTime::from_secs(41),
                    mode: FaultMode::CrashLoseState,
                },
            ],
            ..FaultSchedule::default()
        };
        let hook = ShardFaults::new(s).expect("valid schedule");
        assert_eq!(
            hook.lose_state_crashes(),
            vec![SimTime::from_secs(10), SimTime::from_secs(40)]
        );
        // Every crash instant must also be a transition instant, or the
        // engine would never wake to perform the recovery.
        let transitions = hook.transition_times();
        for t in hook.lose_state_crashes() {
            assert!(transitions.contains(&t), "crash at {t} not scheduled");
        }
        // A lose-state window never reads as unhealthy: recovery is
        // instantaneous in virtual time.
        assert_eq!(
            hook.health(SimTime::from_secs(10)),
            HealthState::Up,
            "lose-state crash instant stays Up"
        );
    }
}
