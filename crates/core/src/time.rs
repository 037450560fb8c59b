//! Virtual time for the simulated web-database server.
//!
//! All of UNIT's algorithms are defined over the server's clock: deadlines,
//! update periods, execution-time estimates, controller grace periods. The
//! simulator advances this clock deterministically, so the whole system is a
//! pure function of `(trace, policy, seed)`.
//!
//! Time is stored as an integer number of **microseconds** ([`SimTime`] for
//! instants, [`SimDuration`] for spans). Integer ticks keep event ordering
//! exact (no float drift in the event heap) while one microsecond of
//! granularity is far below every quantity in the workload (execution times
//! are on the order of seconds).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of ticks per simulated second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulated clock, in ticks since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A non-negative span of simulated time, in ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of the simulated clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Build an instant from whole simulated seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SEC)
    }

    /// Build an instant from fractional simulated seconds (saturating at zero
    /// for negative inputs).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * TICKS_PER_SEC as f64).round() as u64)
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Span from `earlier` to `self`, saturating at zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration; `None` if it would precede time zero.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Build a span from whole simulated seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SEC)
    }

    /// Build a span from fractional simulated seconds (saturating at zero for
    /// negative inputs).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * TICKS_PER_SEC as f64).round() as u64)
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True when the span is zero ticks long.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale the span by a non-negative factor, rounding to the nearest tick.
    ///
    /// Used by update-frequency modulation (`pc_j × (1 + C_du)`) and by the
    /// admission check (`C_flex × EST`).
    ///
    /// Rounds like `f64::round` (ties away from zero) without the libm
    /// call (see `round_ticks`).
    pub fn scale(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be scaled negatively");
        SimDuration(round_ticks(self.0 as f64 * factor.max(0.0)))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Ratio of this span to another, as used by the ticket rule
    /// `DT_j = qe_i / qt_i` (Eq. 6). Returns 0 for a zero denominator.
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

/// `x.round() as u64`, bit for bit, for every `x`: ties round away from
/// zero, negative values and NaN give 0, values past `u64::MAX` saturate.
/// Below 2^52 the fractional part `x − ⌊x⌋` is exact; from 2^52 on every
/// `f64` is an integer and the fraction is 0 (or, past `u64::MAX`, the
/// saturating add absorbs it).
fn round_ticks(x: f64) -> u64 {
    let floor = x as u64;
    let half_up = x - floor as f64 >= 0.5;
    floor.saturating_add(half_up as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds when `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can legitimately happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversions_round_trip() {
        let t = SimTime::from_secs(42);
        assert_eq!(t.0, 42 * TICKS_PER_SEC);
        assert!((t.as_secs_f64() - 42.0).abs() < 1e-12);

        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.0, 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_float_seconds_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn instant_plus_span_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
    }

    #[test]
    fn saturating_since_clamps_future_reference() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn scale_rounds_to_nearest_tick() {
        let d = SimDuration(10);
        assert_eq!(d.scale(1.1), SimDuration(11));
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
        // C_du = 0.1 degrade step from the paper.
        let period = SimDuration::from_secs(100);
        assert_eq!(period.scale(1.1), SimDuration::from_secs(110));
    }

    #[test]
    fn round_ticks_matches_libm_round_at_the_edges() {
        let ticks = [
            0,
            1,
            3,
            5,
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            (1 << 53) + 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let factors = [
            0.0,
            -0.0,
            -0.5,
            -1.0,
            f64::NEG_INFINITY,
            f64::NAN,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.0,
            1.1,
            2.0,
            64.0,
            f64::INFINITY,
        ];
        for &t in &ticks {
            for &f in &factors {
                let x = t as f64 * f;
                assert_eq!(round_ticks(x), x.round() as u64, "{t} × {f}");
            }
        }
        // Ties at .5 round away from zero.
        assert_eq!(SimDuration(1).scale(0.5), SimDuration(1));
        assert_eq!(SimDuration(5).scale(0.5), SimDuration(3));
        assert_eq!(SimDuration(1).scale(0.49999999999999994), SimDuration(0));
        assert_eq!(SimDuration::MAX.scale(2.0), SimDuration::MAX);
        assert_eq!(SimDuration::MAX.scale(1.0), SimDuration::MAX);
    }

    proptest::proptest! {
        /// Any raw tick count times any factor, negative and non-finite
        /// ones included.
        #[test]
        fn round_ticks_matches_libm_round(
            ticks in proptest::prelude::any::<u64>(),
            factor in proptest::prelude::any::<f64>(),
        ) {
            let x = ticks as f64 * factor;
            proptest::prop_assert_eq!(round_ticks(x), x.round() as u64);
            let d = SimDuration(ticks);
            // `scale`'s contract: a non-negative factor.
            let f = if factor.is_nan() { 0.0 } else { factor.abs() };
            proptest::prop_assert_eq!(d.scale(f).0, (ticks as f64 * f).round() as u64);
        }

        /// `n × 0.5` is an exact tie whenever `n` is odd; the shift moves the
        /// product through every binade up to 2^64.
        #[test]
        fn round_ticks_matches_libm_round_on_ties(
            n in 0u64..1 << 53,
            shift in 0u32..12,
        ) {
            for factor in [0.5, 1.5, -0.5] {
                let x = (n << shift) as f64 * factor;
                proptest::prop_assert_eq!(round_ticks(x), x.round() as u64);
            }
        }
    }

    #[test]
    fn ratio_matches_ticket_decrement_formula() {
        let qe = SimDuration::from_secs(2);
        let qt = SimDuration::from_secs(8);
        assert!((qe.ratio(qt) - 0.25).abs() < 1e-12);
        assert_eq!(qe.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn checked_sub_detects_underflow() {
        assert_eq!(
            SimTime::from_secs(3).checked_sub(SimDuration::from_secs(4)),
            None
        );
        assert_eq!(
            SimTime::from_secs(4).checked_sub(SimDuration::from_secs(3)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn display_is_human_readable_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let near_max = SimTime(u64::MAX - 1);
        assert_eq!(near_max + SimDuration::from_secs(10), SimTime::MAX);
        let d = SimDuration(u64::MAX - 1);
        assert_eq!(d + SimDuration::from_secs(10), SimDuration::MAX);
    }
}
