//! Q47.16 fixed-point arithmetic.
//!
//! The paper notes the simulation model gives the fair rate "fixed point
//! precision to mimic hardware implementation" (§6), and that RoCC "uses
//! base-2 numbers in multiplication and division operations, which are
//! efficiently implemented using bit shift operations" (§3.2). This module
//! is that datapath: a signed 64-bit value with 16 fractional bits, where
//! halving, doubling, and the auto-tuner's power-of-two gain scaling are
//! exact shifts.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// Number of fractional bits.
pub const FRAC_BITS: u32 = 16;
/// Scale factor 2^16.
pub const ONE_RAW: i64 = 1 << FRAC_BITS;

/// A Q47.16 fixed-point number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Fx(i64);

// Snapshot word: the raw register bits.
rocc_sim::cc_state!(Fx { 0 });

impl Fx {
    /// Zero.
    pub const ZERO: Fx = Fx(0);
    /// One.
    pub const ONE: Fx = Fx(ONE_RAW);

    /// From an integer, saturating at the Q47.16 range limits. A hardware
    /// register clips at its rails rather than wrapping, so a rate or gain
    /// that exceeds the representable range pins to the extreme instead of
    /// silently corrupting the datapath.
    pub const fn from_int(v: i64) -> Fx {
        Fx(v.saturating_mul(ONE_RAW))
    }

    /// From a float, rounding to the nearest representable value. Intended
    /// for configuration-time constants (gains), not the datapath.
    pub fn from_f64(v: f64) -> Fx {
        assert!(v.is_finite(), "invalid fixed-point source {v}");
        Fx((v * ONE_RAW as f64).round() as i64)
    }

    /// Truncate toward negative infinity to an integer (a hardware shift).
    pub const fn floor_int(self) -> i64 {
        self.0 >> FRAC_BITS
    }

    /// Round to nearest integer.
    pub const fn round_int(self) -> i64 {
        (self.0 + (ONE_RAW / 2)) >> FRAC_BITS
    }

    /// As a float (reporting only).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ONE_RAW as f64
    }

    /// Raw representation (tests).
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Multiply by an integer, saturating (hardware-register semantics).
    pub const fn mul_int(self, v: i64) -> Fx {
        Fx(self.0.saturating_mul(v))
    }

    /// Fixed × fixed multiply (single rounding step, as a hardware
    /// multiplier with a truncating shifter would).
    pub const fn mul(self, other: Fx) -> Fx {
        Fx(((self.0 as i128 * other.0 as i128) >> FRAC_BITS) as i64)
    }

    /// Divide by 2^k (arithmetic shift — the auto-tuner's gain scaling).
    pub const fn shr(self, k: u32) -> Fx {
        Fx(self.0 >> k)
    }

    /// Multiply by 2^k (shift), saturating toward the sign. An unchecked
    /// shift panics in debug and wraps in release once `k` exceeds the
    /// headroom above the value's top bit; a hardware barrel shifter clips
    /// at the register rails instead.
    pub const fn shl(self, k: u32) -> Fx {
        if self.0 == 0 {
            return Fx(0);
        }
        // Bits of headroom before the shift reaches the sign bit.
        let headroom = if self.0 > 0 {
            self.0.leading_zeros() - 1
        } else {
            (!self.0).leading_zeros() - 1
        };
        if k > headroom {
            if self.0 > 0 {
                Fx(i64::MAX)
            } else {
                Fx(i64::MIN)
            }
        } else {
            Fx(self.0 << k)
        }
    }

    /// Halve (MD fast path, Alg. 1 line 5).
    pub const fn halved(self) -> Fx {
        self.shr(1)
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp_fx(self, lo: Fx, hi: Fx) -> Fx {
        if self < lo {
            lo
        } else if self > hi {
            hi
        } else {
            self
        }
    }
}

impl Add for Fx {
    type Output = Fx;
    fn add(self, rhs: Fx) -> Fx {
        Fx(self.0 + rhs.0)
    }
}

impl Sub for Fx {
    type Output = Fx;
    fn sub(self, rhs: Fx) -> Fx {
        Fx(self.0 - rhs.0)
    }
}

impl Neg for Fx {
    type Output = Fx;
    fn neg(self) -> Fx {
        Fx(-self.0)
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        assert_eq!(Fx::from_int(4000).floor_int(), 4000);
        assert_eq!(Fx::from_int(-3).floor_int(), -3);
    }

    #[test]
    fn float_conversion_accuracy() {
        let a = Fx::from_f64(0.3);
        assert!((a.to_f64() - 0.3).abs() < 1e-4);
        let b = Fx::from_f64(1.5);
        assert_eq!(b.raw(), 3 * ONE_RAW / 2);
    }

    #[test]
    fn shifts_are_exact_powers_of_two() {
        let v = Fx::from_int(4000);
        assert_eq!(v.halved(), Fx::from_int(2000));
        assert_eq!(v.shr(5), Fx::from_int(125));
        assert_eq!(Fx::from_int(125).shl(5), v);
    }

    #[test]
    fn mul_int_and_fixed() {
        let alpha = Fx::from_f64(0.3);
        // 0.3 * 100 = 30 (within quantization).
        assert!((alpha.mul_int(100).to_f64() - 30.0).abs() < 0.01);
        let x = Fx::from_f64(1.5).mul(Fx::from_f64(2.0));
        assert_eq!(x, Fx::from_f64(3.0));
    }

    #[test]
    fn rounding_behaviour() {
        assert_eq!(Fx::from_f64(2.4).round_int(), 2);
        assert_eq!(Fx::from_f64(2.6).round_int(), 3);
        assert_eq!(Fx::from_f64(-0.6).floor_int(), -1);
    }

    #[test]
    fn clamp() {
        let lo = Fx::from_int(10);
        let hi = Fx::from_int(4000);
        assert_eq!(Fx::from_int(5).clamp_fx(lo, hi), lo);
        assert_eq!(Fx::from_int(9000).clamp_fx(lo, hi), hi);
        assert_eq!(Fx::from_int(77).clamp_fx(lo, hi), Fx::from_int(77));
    }

    #[test]
    fn from_int_saturates_at_the_rails() {
        // Largest exactly representable integer: i64::MAX >> 16.
        let max_int = i64::MAX >> FRAC_BITS;
        assert_eq!(Fx::from_int(max_int).raw(), max_int << FRAC_BITS);
        // One past it would wrap with an unchecked shift; it must pin.
        assert_eq!(Fx::from_int(max_int + 1), Fx(i64::MAX));
        assert_eq!(Fx::from_int(i64::MAX), Fx(i64::MAX));
        assert_eq!(Fx::from_int(i64::MIN), Fx(i64::MIN));
        let min_int = i64::MIN >> FRAC_BITS;
        assert_eq!(Fx::from_int(min_int).raw(), min_int << FRAC_BITS);
    }

    #[test]
    fn mul_int_saturates_at_the_rails() {
        let big = Fx::from_int(1 << 40);
        assert_eq!(big.mul_int(1 << 30), Fx(i64::MAX));
        assert_eq!(big.mul_int(-(1 << 30)), Fx(i64::MIN));
        assert_eq!((-big).mul_int(1 << 30), Fx(i64::MIN));
        // Normal range is untouched.
        assert_eq!(Fx::from_int(3).mul_int(7), Fx::from_int(21));
        assert_eq!(Fx::from_int(-3).mul_int(7), Fx::from_int(-21));
    }

    #[test]
    fn shl_saturates_toward_the_sign() {
        assert_eq!(Fx::ZERO.shl(63), Fx::ZERO);
        assert_eq!(Fx::ONE.shl(2), Fx::from_int(4));
        // i64::MAX has zero headroom: any shift pins.
        assert_eq!(Fx(i64::MAX).shl(1), Fx(i64::MAX));
        assert_eq!(Fx(i64::MIN).shl(1), Fx(i64::MIN));
        // A shift count past the word size must not be UB either.
        assert_eq!(Fx::ONE.shl(200), Fx(i64::MAX));
        assert_eq!((-Fx::ONE).shl(200), Fx(i64::MIN));
        // Exactly-at-headroom shifts are still exact.
        assert_eq!(Fx(1).shl(62).raw(), 1i64 << 62);
        assert_eq!(Fx(-1).shl(63).raw(), i64::MIN);
        // Round trip with shr in the normal range stays lossless.
        assert_eq!(Fx::from_int(125).shl(5).shr(5), Fx::from_int(125));
    }

    #[test]
    fn arithmetic() {
        let a = Fx::from_f64(1.25);
        let b = Fx::from_f64(0.75);
        assert_eq!(a + b, Fx::from_int(2));
        assert_eq!(a - b, Fx::from_f64(0.5));
        assert_eq!(-a, Fx::from_f64(-1.25));
    }
}
