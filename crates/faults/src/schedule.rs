//! The fault schedule: a declarative, virtual-time description of every
//! failure a run will experience, fixed before the first event fires.
//!
//! All faults are known a priori — crash windows, per-item update-stream
//! faults, and load bursts are plain data, so a faulty run stays a pure
//! function of `(trace, policy, config, schedule)` and the cluster
//! dispatcher can make its failover decisions in its sequential prologue
//! without ever racing the shard engines.

use serde::{Deserialize, Serialize};
use unit_core::seed::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::DataId;
use unit_sim::faults::{BackgroundLoad, HealthState, UpdateFault};

/// What a crash window does to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultMode {
    /// Full pause: nothing executes, queries stall (and typically miss
    /// their firm deadlines) until recovery.
    Pause,
    /// Graceful degradation: the read path stays up serving last-applied
    /// versions (honest DSF through `Udrop`), update applications drop.
    DegradedReads,
    /// Lose-state crash (DESIGN.md §7): at `start` the shard discards all
    /// volatile state, restores its last control-boundary checkpoint, and
    /// replays the lost window in virtual time. The shard is never
    /// *observably* down — recovery is instantaneous in virtual time — so
    /// [`FaultSchedule::health_at`] reports `Up` throughout; the window's
    /// `end` exists only to satisfy the shared window invariants and its
    /// transition is a no-op.
    CrashLoseState,
}

/// One crash/recovery window: `[start, end)` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// First down instant (inclusive).
    pub start: SimTime,
    /// Recovery instant (exclusive — the shard is up again at `end`).
    pub end: SimTime,
    /// Pause or degraded-reads semantics.
    pub mode: FaultMode,
}

impl CrashWindow {
    /// True when `t` lies inside the window (`start <= t < end`).
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// What a stream-fault interval does to arriving versions of its item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamFaultKind {
    /// Versions are observed (`Udrop` rises) but never applied.
    Drop,
    /// Applications are postponed by the given delay.
    Delay(SimDuration),
}

/// One per-item update-stream fault interval: versions of `item` arriving
/// in `[start, end)` are dropped or delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamFault {
    /// The item whose update stream is faulty.
    pub item: DataId,
    /// First affected instant (inclusive).
    pub start: SimTime,
    /// First unaffected instant (exclusive).
    pub end: SimTime,
    /// Drop or delay semantics.
    pub kind: StreamFaultKind,
}

/// One load burst: at instant `at`, `loads` background transactions of
/// `exec` CPU demand each are injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Burst {
    /// Injection instant.
    pub at: SimTime,
    /// Number of background transactions injected.
    pub loads: u32,
    /// CPU demand of each.
    pub exec: SimDuration,
}

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A crash window with `start >= end` (empty or inverted).
    EmptyCrashWindow {
        /// The window's start.
        start: SimTime,
    },
    /// Crash windows not sorted by start, or overlapping.
    CrashWindowsOverlap {
        /// Start of the second window of the offending pair.
        start: SimTime,
    },
    /// A window or burst at (or beyond) [`SimTime::MAX`] — virtual-time
    /// arithmetic past it would overflow (`end + tick_period`, backoff
    /// sums), so "never recovers" must be expressed as an end beyond the
    /// last trace activity, not as infinity.
    UnboundedTime,
    /// A stream fault with `start >= end`.
    EmptyStreamFault {
        /// The offending item.
        item: DataId,
    },
    /// Two stream-fault intervals for the same item overlap (the per-item
    /// fault at an instant must be unique).
    StreamFaultsOverlap {
        /// The offending item.
        item: DataId,
    },
    /// Stream faults not sorted by `(item, start)` — required for the
    /// O(log F) interval lookup.
    StreamFaultsUnsorted,
    /// A burst with zero transactions or zero demand.
    DegenerateBurst {
        /// The burst's instant.
        at: SimTime,
    },
    /// Bursts not sorted by instant.
    BurstsUnsorted,
    /// A crash window starting at or beyond the declared horizon: it can
    /// never fire within the workload, so it is almost certainly a unit
    /// mistake (seconds vs. micros) rather than intent. Only reported by
    /// the opt-in [`FaultSchedule::validate_against_horizon`].
    CrashWindowPastHorizon {
        /// The unreachable window's start.
        start: SimTime,
    },
    /// A stream-fault interval starting at or beyond the declared horizon
    /// (opt-in horizon check only).
    StreamFaultPastHorizon {
        /// The item whose interval is unreachable.
        item: DataId,
    },
    /// A load burst at or beyond the declared horizon (opt-in horizon
    /// check only).
    BurstPastHorizon {
        /// The unreachable burst's instant.
        at: SimTime,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::EmptyCrashWindow { start } => {
                write!(f, "crash window at {start} is empty or inverted")
            }
            ScheduleError::CrashWindowsOverlap { start } => {
                write!(
                    f,
                    "crash window at {start} overlaps (or precedes) its predecessor"
                )
            }
            ScheduleError::UnboundedTime => {
                write!(
                    f,
                    "schedule instant at SimTime::MAX would overflow virtual-time arithmetic"
                )
            }
            ScheduleError::EmptyStreamFault { item } => {
                write!(f, "stream fault for item {} is empty or inverted", item.0)
            }
            ScheduleError::StreamFaultsOverlap { item } => {
                write!(f, "stream faults for item {} overlap", item.0)
            }
            ScheduleError::StreamFaultsUnsorted => {
                write!(f, "stream faults must be sorted by (item, start)")
            }
            ScheduleError::DegenerateBurst { at } => {
                write!(f, "burst at {at} has zero transactions or zero demand")
            }
            ScheduleError::BurstsUnsorted => write!(f, "bursts must be sorted by instant"),
            ScheduleError::CrashWindowPastHorizon { start } => {
                write!(f, "crash window at {start} starts at or past the horizon")
            }
            ScheduleError::StreamFaultPastHorizon { item } => {
                write!(
                    f,
                    "stream fault for item {} starts at or past the horizon",
                    item.0
                )
            }
            ScheduleError::BurstPastHorizon { at } => {
                write!(f, "burst at {at} lies at or past the horizon")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Deterministic generation parameters (see [`FaultSchedule::generate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Workload horizon the faults are placed within.
    pub horizon: SimDuration,
    /// Number of database items (stream faults pick targets below this).
    pub n_items: usize,
    /// Target fraction of the horizon spent inside crash windows, in
    /// `[0, 1)`. Zero (or negative) disables crash windows.
    pub crash_rate: f64,
    /// Mean crash-window length (actual lengths vary ±50%).
    pub mean_window: SimDuration,
    /// What crash windows do ([`FaultMode`]).
    pub mode: FaultMode,
    /// Number of per-item stream-fault intervals to scatter.
    pub stream_faults: usize,
    /// Length of each stream-fault interval.
    pub stream_fault_len: SimDuration,
    /// Delay applied by stream faults; [`SimDuration::ZERO`] makes them
    /// drop faults instead.
    pub stream_delay: SimDuration,
    /// Number of load bursts to scatter.
    pub bursts: usize,
    /// Background transactions per burst.
    pub burst_loads: u32,
    /// CPU demand of each background transaction.
    pub burst_exec: SimDuration,
}

impl FaultConfig {
    /// A config that generates nothing: the empty schedule.
    pub fn quiet(horizon: SimDuration, n_items: usize) -> FaultConfig {
        FaultConfig {
            horizon,
            n_items,
            crash_rate: 0.0,
            mean_window: SimDuration::ZERO,
            mode: FaultMode::Pause,
            stream_faults: 0,
            stream_fault_len: SimDuration::ZERO,
            stream_delay: SimDuration::ZERO,
            bursts: 0,
            burst_loads: 0,
            burst_exec: SimDuration::ZERO,
        }
    }

    /// Set the crash-window parameters.
    #[must_use]
    pub fn with_crashes(mut self, rate: f64, mean_window: SimDuration, mode: FaultMode) -> Self {
        self.crash_rate = rate;
        self.mean_window = mean_window;
        self.mode = mode;
        self
    }

    /// Set the stream-fault parameters (`delay == ZERO` means drop faults).
    #[must_use]
    pub fn with_stream_faults(
        mut self,
        count: usize,
        len: SimDuration,
        delay: SimDuration,
    ) -> Self {
        self.stream_faults = count;
        self.stream_fault_len = len;
        self.stream_delay = delay;
        self
    }

    /// Set the load-burst parameters.
    #[must_use]
    pub fn with_bursts(mut self, count: usize, loads: u32, exec: SimDuration) -> Self {
        self.bursts = count;
        self.burst_loads = loads;
        self.burst_exec = exec;
        self
    }
}

/// Counter-mode SplitMix64 draws: draw `k` is `split_seed(seed, k)`, so the
/// stream is a pure function of the seed with no mutable generator state to
/// misorder.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws { seed, n: 0 }
    }

    fn next(&mut self) -> u64 {
        let v = split_seed(self.seed, self.n);
        self.n += 1;
        v
    }

    /// A draw in `[0, n)`; 0 when `n == 0`. (Modulo bias is irrelevant at
    /// fault-schedule scales.)
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// A complete, declarative fault schedule for one shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Crash/recovery windows, sorted by start, non-overlapping.
    pub crashes: Vec<CrashWindow>,
    /// Per-item update-stream fault intervals, sorted by `(item, start)`,
    /// non-overlapping per item.
    pub stream_faults: Vec<StreamFault>,
    /// Load bursts, sorted by instant.
    pub bursts: Vec<Burst>,
}

impl FaultSchedule {
    /// The empty schedule: provably inert (installing it changes nothing).
    pub fn empty() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when the schedule contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stream_faults.is_empty() && self.bursts.is_empty()
    }

    /// Check the structural invariants every consumer relies on (sorted,
    /// non-overlapping, bounded, non-degenerate).
    pub fn validate(&self) -> Result<(), ScheduleError> {
        for w in &self.crashes {
            if w.start >= w.end {
                return Err(ScheduleError::EmptyCrashWindow { start: w.start });
            }
            if w.end == SimTime::MAX {
                return Err(ScheduleError::UnboundedTime);
            }
        }
        for (a, b) in self.crashes.iter().zip(self.crashes.iter().skip(1)) {
            if b.start < a.end {
                return Err(ScheduleError::CrashWindowsOverlap { start: b.start });
            }
        }
        for s in &self.stream_faults {
            if s.start >= s.end {
                return Err(ScheduleError::EmptyStreamFault { item: s.item });
            }
            if s.end == SimTime::MAX {
                return Err(ScheduleError::UnboundedTime);
            }
        }
        for (a, b) in self
            .stream_faults
            .iter()
            .zip(self.stream_faults.iter().skip(1))
        {
            if (b.item.0, b.start) < (a.item.0, a.start) {
                return Err(ScheduleError::StreamFaultsUnsorted);
            }
            if a.item == b.item && b.start < a.end {
                return Err(ScheduleError::StreamFaultsOverlap { item: a.item });
            }
        }
        for b in &self.bursts {
            if b.loads == 0 || b.exec.is_zero() {
                return Err(ScheduleError::DegenerateBurst { at: b.at });
            }
            if b.at == SimTime::MAX {
                return Err(ScheduleError::UnboundedTime);
            }
        }
        for (a, b) in self.bursts.iter().zip(self.bursts.iter().skip(1)) {
            if b.at < a.at {
                return Err(ScheduleError::BurstsUnsorted);
            }
        }
        Ok(())
    }

    /// [`FaultSchedule::validate`] plus the opt-in horizon audit: every
    /// crash window, stream-fault interval, and burst must *start* before
    /// `horizon` (ends may spill past it — "never recovers within the
    /// workload" is legitimate). A fault placed entirely past the horizon
    /// silently never fires, which in practice is a unit mistake; callers
    /// that know their workload horizon should prefer this check. O(F).
    pub fn validate_against_horizon(&self, horizon: SimTime) -> Result<(), ScheduleError> {
        self.validate()?;
        for w in &self.crashes {
            if w.start >= horizon {
                return Err(ScheduleError::CrashWindowPastHorizon { start: w.start });
            }
        }
        for s in &self.stream_faults {
            if s.start >= horizon {
                return Err(ScheduleError::StreamFaultPastHorizon { item: s.item });
            }
        }
        for b in &self.bursts {
            if b.at >= horizon {
                return Err(ScheduleError::BurstPastHorizon { at: b.at });
            }
        }
        Ok(())
    }

    /// Generate a schedule from a seed: crash windows covering roughly
    /// `crash_rate` of the horizon, `stream_faults` drop/delay intervals on
    /// random items, and `bursts` load bursts — all placed by counter-mode
    /// SplitMix64 draws, so the result is a pure function of
    /// `(seed, cfg)`. The output always passes [`FaultSchedule::validate`].
    pub fn generate(seed: u64, cfg: &FaultConfig) -> FaultSchedule {
        let mut d = Draws::new(seed);
        let horizon_end = SimTime::ZERO + cfg.horizon;

        // Crash windows: one per frame of length `mean_window / crash_rate`,
        // with ±50% length jitter and a random in-frame offset. Frame-local
        // placement keeps the windows sorted and non-overlapping by
        // construction.
        let mut crashes = Vec::new();
        if cfg.crash_rate > 0.0 && !cfg.mean_window.is_zero() {
            let rate = cfg.crash_rate.min(0.9);
            let frame = cfg.mean_window.scale(1.0 / rate);
            let mut frame_start = SimTime::ZERO;
            while frame_start < horizon_end {
                let mut len = cfg.mean_window / 2 + SimDuration(d.below(cfg.mean_window.0.max(1)));
                let cap = frame * 3 / 4;
                if len > cap {
                    len = cap;
                }
                if !len.is_zero() {
                    let slack = frame.saturating_sub(len);
                    let offset = SimDuration(d.below(slack.0.max(1)));
                    let start = frame_start + offset;
                    let mut end = start + len;
                    if end > horizon_end {
                        end = horizon_end;
                    }
                    if start < end && start < horizon_end {
                        crashes.push(CrashWindow {
                            start,
                            end,
                            mode: cfg.mode,
                        });
                    }
                }
                frame_start += frame;
            }
        }

        // Stream faults: scattered uniformly, then sorted by (item, start)
        // with per-item overlaps resolved by keeping the earlier interval.
        let mut stream_faults = Vec::new();
        if cfg.stream_faults > 0 && !cfg.stream_fault_len.is_zero() && cfg.n_items > 0 {
            let kind = if cfg.stream_delay.is_zero() {
                StreamFaultKind::Drop
            } else {
                StreamFaultKind::Delay(cfg.stream_delay)
            };
            let span = cfg.horizon.saturating_sub(cfg.stream_fault_len);
            for _ in 0..cfg.stream_faults {
                let item = DataId(d.below(cfg.n_items as u64) as u32);
                let start = SimTime(d.below(span.0.max(1)));
                stream_faults.push(StreamFault {
                    item,
                    start,
                    end: start + cfg.stream_fault_len,
                    kind,
                });
            }
            stream_faults.sort_by_key(|s| (s.item.0, s.start, s.end));
            let mut kept: Vec<StreamFault> = Vec::with_capacity(stream_faults.len());
            for s in stream_faults {
                let overlaps = kept
                    .last()
                    .is_some_and(|p| p.item == s.item && s.start < p.end);
                if !overlaps {
                    kept.push(s);
                }
            }
            stream_faults = kept;
        }

        // Bursts: scattered uniformly over the horizon, sorted by instant.
        let mut bursts = Vec::new();
        if cfg.bursts > 0 && cfg.burst_loads > 0 && !cfg.burst_exec.is_zero() {
            for _ in 0..cfg.bursts {
                bursts.push(Burst {
                    at: SimTime(d.below(cfg.horizon.0.max(1))),
                    loads: cfg.burst_loads,
                    exec: cfg.burst_exec,
                });
            }
            bursts.sort_by_key(|b| b.at);
        }

        let schedule = FaultSchedule {
            crashes,
            stream_faults,
            bursts,
        };
        debug_assert!(schedule.validate().is_ok(), "generator broke an invariant");
        schedule
    }

    /// Health of the shard at `now`: the crash window containing `now`, if
    /// any, mapped through its [`FaultMode`]. O(log W).
    pub fn health_at(&self, now: SimTime) -> HealthState {
        let i = self.crashes.partition_point(|w| w.start <= now);
        let Some(w) = i.checked_sub(1).and_then(|j| self.crashes.get(j)) else {
            return HealthState::Up;
        };
        if w.contains(now) {
            match w.mode {
                FaultMode::Pause => HealthState::Down { until: w.end },
                FaultMode::DegradedReads => HealthState::Degraded { until: w.end },
                // Recovery is instantaneous in virtual time: the crash and
                // its checkpoint replay happen *at* `start`, so no instant
                // ever observes the shard unhealthy.
                FaultMode::CrashLoseState => HealthState::Up,
            }
        } else {
            HealthState::Up
        }
    }

    /// Fault applied to a version of `item` arriving at `now` (crash
    /// windows aside). O(log F).
    pub fn update_fault_at(&self, item: DataId, now: SimTime) -> UpdateFault {
        let i = self
            .stream_faults
            .partition_point(|s| (s.item.0, s.start) <= (item.0, now));
        let Some(s) = i.checked_sub(1).and_then(|j| self.stream_faults.get(j)) else {
            return UpdateFault::Apply;
        };
        if s.item == item && s.start <= now && now < s.end {
            match s.kind {
                StreamFaultKind::Drop => UpdateFault::Drop,
                StreamFaultKind::Delay(d) => UpdateFault::Delay(d),
            }
        } else {
            UpdateFault::Apply
        }
    }

    /// Background loads injected at exactly `now`. O(log B + B_now).
    pub fn loads_at(&self, now: SimTime) -> Vec<BackgroundLoad> {
        let lo = self.bursts.partition_point(|b| b.at < now);
        let hi = self.bursts.partition_point(|b| b.at <= now);
        let mut loads = Vec::new();
        for b in self.bursts.get(lo..hi).unwrap_or_default() {
            for _ in 0..b.loads {
                loads.push(BackgroundLoad { exec: b.exec });
            }
        }
        loads
    }

    /// Every instant the engine must wake at: window boundaries and burst
    /// instants. O(W + B).
    ///
    /// A [`FaultMode::CrashLoseState`] window contributes only its start
    /// (the crash instant): recovery is instantaneous in virtual time, so
    /// waking the engine at the end would be a pure no-op — and a no-op
    /// event still perturbs `end_time` when it lands past the last real
    /// event of the run.
    pub fn transition_instants(&self) -> Vec<SimTime> {
        let mut times = Vec::with_capacity(2 * self.crashes.len() + self.bursts.len());
        for w in &self.crashes {
            times.push(w.start);
            if w.mode != FaultMode::CrashLoseState {
                times.push(w.end);
            }
        }
        for b in &self.bursts {
            times.push(b.at);
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn window(start: u64, end: u64, mode: FaultMode) -> CrashWindow {
        CrashWindow {
            start: t(start),
            end: t(end),
            mode,
        }
    }

    #[test]
    fn empty_schedule_is_inert_data() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert!(s.validate().is_ok());
        assert!(s.transition_instants().is_empty());
        assert_eq!(s.health_at(t(5)), HealthState::Up);
        assert_eq!(s.update_fault_at(DataId(0), t(5)), UpdateFault::Apply);
        assert!(s.loads_at(t(5)).is_empty());
    }

    #[test]
    fn health_lookup_half_open_windows() {
        let s = FaultSchedule {
            crashes: vec![
                window(10, 20, FaultMode::Pause),
                window(30, 40, FaultMode::DegradedReads),
            ],
            ..FaultSchedule::default()
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.health_at(t(9)), HealthState::Up);
        assert_eq!(s.health_at(t(10)), HealthState::Down { until: t(20) });
        assert_eq!(s.health_at(t(19)), HealthState::Down { until: t(20) });
        assert_eq!(s.health_at(t(20)), HealthState::Up, "end is exclusive");
        assert_eq!(s.health_at(t(35)), HealthState::Degraded { until: t(40) });
        assert_eq!(s.health_at(t(40)), HealthState::Up);
    }

    #[test]
    fn stream_fault_lookup_per_item() {
        let s = FaultSchedule {
            stream_faults: vec![
                StreamFault {
                    item: DataId(1),
                    start: t(5),
                    end: t(10),
                    kind: StreamFaultKind::Drop,
                },
                StreamFault {
                    item: DataId(1),
                    start: t(20),
                    end: t(25),
                    kind: StreamFaultKind::Delay(dur(3)),
                },
                StreamFault {
                    item: DataId(2),
                    start: t(0),
                    end: t(100),
                    kind: StreamFaultKind::Drop,
                },
            ],
            ..FaultSchedule::default()
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.update_fault_at(DataId(1), t(7)), UpdateFault::Drop);
        assert_eq!(s.update_fault_at(DataId(1), t(10)), UpdateFault::Apply);
        assert_eq!(
            s.update_fault_at(DataId(1), t(22)),
            UpdateFault::Delay(dur(3))
        );
        assert_eq!(s.update_fault_at(DataId(2), t(7)), UpdateFault::Drop);
        assert_eq!(s.update_fault_at(DataId(0), t(7)), UpdateFault::Apply);
        assert_eq!(s.update_fault_at(DataId(3), t(7)), UpdateFault::Apply);
    }

    #[test]
    fn loads_at_matches_exact_instants_only() {
        let s = FaultSchedule {
            bursts: vec![
                Burst {
                    at: t(5),
                    loads: 2,
                    exec: dur(1),
                },
                Burst {
                    at: t(5),
                    loads: 1,
                    exec: dur(2),
                },
                Burst {
                    at: t(9),
                    loads: 1,
                    exec: dur(1),
                },
            ],
            ..FaultSchedule::default()
        };
        assert!(s.validate().is_ok());
        let loads = s.loads_at(t(5));
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[2].exec, dur(2));
        assert!(s.loads_at(t(6)).is_empty());
        assert_eq!(s.loads_at(t(9)).len(), 1);
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        let empty_win = FaultSchedule {
            crashes: vec![window(10, 10, FaultMode::Pause)],
            ..FaultSchedule::default()
        };
        assert!(matches!(
            empty_win.validate(),
            Err(ScheduleError::EmptyCrashWindow { .. })
        ));

        let overlap = FaultSchedule {
            crashes: vec![
                window(10, 30, FaultMode::Pause),
                window(20, 40, FaultMode::Pause),
            ],
            ..FaultSchedule::default()
        };
        assert!(matches!(
            overlap.validate(),
            Err(ScheduleError::CrashWindowsOverlap { .. })
        ));

        let unbounded = FaultSchedule {
            crashes: vec![CrashWindow {
                start: t(10),
                end: SimTime::MAX,
                mode: FaultMode::Pause,
            }],
            ..FaultSchedule::default()
        };
        assert_eq!(unbounded.validate(), Err(ScheduleError::UnboundedTime));

        let unsorted_streams = FaultSchedule {
            stream_faults: vec![
                StreamFault {
                    item: DataId(2),
                    start: t(0),
                    end: t(1),
                    kind: StreamFaultKind::Drop,
                },
                StreamFault {
                    item: DataId(1),
                    start: t(0),
                    end: t(1),
                    kind: StreamFaultKind::Drop,
                },
            ],
            ..FaultSchedule::default()
        };
        assert_eq!(
            unsorted_streams.validate(),
            Err(ScheduleError::StreamFaultsUnsorted)
        );

        let degenerate_burst = FaultSchedule {
            bursts: vec![Burst {
                at: t(1),
                loads: 0,
                exec: dur(1),
            }],
            ..FaultSchedule::default()
        };
        assert!(matches!(
            degenerate_burst.validate(),
            Err(ScheduleError::DegenerateBurst { .. })
        ));

        let unsorted_bursts = FaultSchedule {
            bursts: vec![
                Burst {
                    at: t(9),
                    loads: 1,
                    exec: dur(1),
                },
                Burst {
                    at: t(1),
                    loads: 1,
                    exec: dur(1),
                },
            ],
            ..FaultSchedule::default()
        };
        assert_eq!(
            unsorted_bursts.validate(),
            Err(ScheduleError::BurstsUnsorted)
        );
    }

    #[test]
    fn horizon_audit_rejects_unreachable_faults_exactly() {
        let horizon = t(100);

        // Starting before the horizon is fine even when the end spills past
        // it ("never recovers within the workload" is legitimate).
        let spilling = FaultSchedule {
            crashes: vec![window(90, 500, FaultMode::Pause)],
            ..FaultSchedule::default()
        };
        assert_eq!(spilling.validate_against_horizon(horizon), Ok(()));

        // Starting exactly at the horizon never fires: exact error.
        let at_edge = FaultSchedule {
            crashes: vec![window(100, 110, FaultMode::CrashLoseState)],
            ..FaultSchedule::default()
        };
        assert_eq!(
            at_edge.validate_against_horizon(horizon),
            Err(ScheduleError::CrashWindowPastHorizon { start: t(100) })
        );

        let late_stream = FaultSchedule {
            stream_faults: vec![StreamFault {
                item: DataId(7),
                start: t(120),
                end: t(130),
                kind: StreamFaultKind::Drop,
            }],
            ..FaultSchedule::default()
        };
        assert_eq!(
            late_stream.validate_against_horizon(horizon),
            Err(ScheduleError::StreamFaultPastHorizon { item: DataId(7) })
        );

        let late_burst = FaultSchedule {
            bursts: vec![Burst {
                at: t(250),
                loads: 1,
                exec: dur(1),
            }],
            ..FaultSchedule::default()
        };
        assert_eq!(
            late_burst.validate_against_horizon(horizon),
            Err(ScheduleError::BurstPastHorizon { at: t(250) })
        );

        // The horizon audit still runs the structural checks first: a
        // zero-length window is reported as empty, not as past-horizon.
        let empty_late = FaultSchedule {
            crashes: vec![window(150, 150, FaultMode::Pause)],
            ..FaultSchedule::default()
        };
        assert_eq!(
            empty_late.validate_against_horizon(horizon),
            Err(ScheduleError::EmptyCrashWindow { start: t(150) })
        );
    }

    #[test]
    fn lose_state_windows_read_as_up() {
        let s = FaultSchedule {
            crashes: vec![window(10, 20, FaultMode::CrashLoseState)],
            ..FaultSchedule::default()
        };
        assert!(s.validate().is_ok());
        // Recovery is instantaneous in virtual time: no instant inside the
        // window observes the shard unhealthy.
        for secs in [9, 10, 15, 19, 20] {
            assert_eq!(s.health_at(t(secs)), HealthState::Up, "at {secs}s");
        }
        // Only the start schedules a wakeup (the crash fires there); the
        // end would be a pure no-op and is not scheduled.
        assert_eq!(s.transition_instants(), vec![t(10)]);
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = FaultConfig::quiet(dur(300), 100)
            .with_crashes(0.1, dur(10), FaultMode::Pause)
            .with_stream_faults(20, dur(15), SimDuration::ZERO)
            .with_bursts(5, 3, dur(2));
        let a = FaultSchedule::generate(0x5EED, &cfg);
        let b = FaultSchedule::generate(0x5EED, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.validate().is_ok());
        assert!(!a.crashes.is_empty());
        assert!(!a.stream_faults.is_empty());
        assert_eq!(a.bursts.len(), 5);

        let c = FaultSchedule::generate(0x5EED + 1, &cfg);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn quiet_config_generates_the_empty_schedule() {
        let cfg = FaultConfig::quiet(dur(300), 100);
        assert!(FaultSchedule::generate(7, &cfg).is_empty());
    }

    #[test]
    fn generated_downtime_tracks_crash_rate() {
        let cfg = FaultConfig::quiet(dur(1000), 10).with_crashes(0.2, dur(10), FaultMode::Pause);
        let s = FaultSchedule::generate(42, &cfg);
        let down: u64 = s.crashes.iter().map(|w| (w.end - w.start).0).sum();
        let frac = down as f64 / dur(1000).0 as f64;
        assert!(
            (0.05..=0.5).contains(&frac),
            "downtime fraction {frac} far from the 0.2 target"
        );
    }
}
