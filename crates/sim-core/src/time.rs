//! Simulated time with nanosecond resolution.
//!
//! [`SimTime`] is an absolute instant on the simulation clock and
//! [`SimDuration`] is a span between two instants. Both are thin wrappers
//! around `u64` nanoseconds so that arithmetic is exact; floating point is
//! only used at the edges (duration models) and converted once.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// 2^63: below it (and from 0 up) a float truncates to `i64` and back in
/// one instruction each; from it up every float is whole.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

/// `x.round() as u64`, bit for bit, without a libm call: negatives and NaN
/// give 0 and values from 2^64 up give `u64::MAX`, as the saturating cast
/// does. The default x86-64 target has no SSE4.1 rounding instruction, so
/// `f64::round` is a software call. Below 2^63 the truncation `t` and
/// `x - t` are exact, so comparing `x - t` with one half rounds halves away
/// from zero as `round` does; from 2^63 up `x` is whole and the cast alone
/// is exact.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    if (0.0..I64_LIMIT).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

/// `x.ceil() as u64`, bit for bit, without a libm call (see
/// [`round_ns`]): negatives and NaN give 0, values above `u64::MAX` give
/// `u64::MAX`.
#[inline]
pub fn ceil_ns(x: f64) -> u64 {
    if (0.0..I64_LIMIT).contains(&x) {
        let t = x as i64;
        (t + i64::from((t as f64) < x)) as u64
    } else {
        x as u64
    }
}

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the simulation epoch, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulation clocks never run
    /// backwards, so this indicates a logic error.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        match self.0.checked_sub(earlier.0) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimTime::duration_since: earlier is after self"),
        }
    }

    /// The duration since `earlier`, or zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative and non-finite inputs clamp to zero; durations cannot be
    /// negative in the simulator.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_ns(s * 1e9))
    }

    /// Builds a duration from fractional milliseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in seconds, as a float (for rate math and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to nanoseconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        match self.0.checked_add(rhs.0) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        match self.0.checked_sub(rhs.0) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration underflow; use saturating_sub"),
        }
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
        match self.0.checked_mul(rhs) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(7).as_nanos(), 7_000_000);
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_micros_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!((t - SimTime::from_micros(10)).as_nanos(), 5_000);
        let d = SimDuration::from_micros(9) - SimDuration::from_micros(4);
        assert_eq!(d.as_nanos(), 5_000);
    }

    #[test]
    #[should_panic(expected = "earlier is after self")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn saturating_ops_clamp() {
        let d = SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(5));
        assert!(d.is_zero());
        let t = SimTime::from_nanos(1).saturating_duration_since(SimTime::from_nanos(9));
        assert!(t.is_zero());
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_nanos(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn float_conversions_clamp_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    /// The libm results [`round_ns`] and [`ceil_ns`] replace, as their
    /// callers cast them: `round` bare or, for all but NaN (which
    /// `SimDuration::from_secs_f64` turns away first), clamped to
    /// `u64::MAX`; `ceil` clamped at zero.
    fn libm(x: f64) -> (u64, u64) {
        let round = x.round() as u64;
        if !x.is_nan() {
            assert_eq!(round, x.round().min(u64::MAX as f64) as u64, "{x:e}");
        }
        (round, x.ceil().max(0.0) as u64)
    }

    #[test]
    fn integer_rounding_matches_libm_on_edge_cases() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            -0.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            u64::MAX as f64,
        ];
        for e in [52, 53, 63, 64, 65, 1000] {
            for x in [
                two(e),
                two(e) + 0.5,
                two(e) - 0.5,
                two(e) + 1.0,
                two(e) - 1.0,
            ] {
                edges.extend([
                    x,
                    -x,
                    f64::from_bits(x.to_bits() + 1),
                    f64::from_bits(x.to_bits() - 1),
                ]);
            }
        }
        for x in edges {
            assert_eq!((round_ns(x), ceil_ns(x)), libm(x), "{x:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Random magnitudes from 2^-40 to 2^70 of either sign, halves and
        /// raw bit patterns (NaNs and infinities among them).
        #[test]
        fn prop_integer_rounding_matches_libm(
            bits in proptest::prelude::any::<u64>(),
            mantissa in proptest::prelude::any::<f64>(),
            exp in -40i32..70,
            whole in proptest::prelude::any::<u64>(),
        ) {
            let scaled = mantissa * 2f64.powi(exp);
            let half = (whole >> (whole % 64)) as f64 + 0.5;
            for x in [f64::from_bits(bits), scaled, -scaled, half, -half] {
                proptest::prop_assert_eq!((round_ns(x), ceil_ns(x)), libm(x), "{:e}", x);
            }
        }
    }

    #[test]
    fn display_uses_adaptive_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "3.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(8)), "8.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total, SimDuration::from_millis(6));
        assert_eq!(total.mul_f64(0.5), SimDuration::from_millis(3));
        assert_eq!(total / 2, SimDuration::from_millis(3));
        assert_eq!(total * 2, SimDuration::from_millis(12));
    }
}
