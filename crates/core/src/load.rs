//! Exact rational arithmetic for multicast loads.
//!
//! A multicast load (Definition 1 of the paper) is a sum of fractions
//! `session_rate / transmission_rate`. Representing loads as reduced
//! rationals keeps every feasibility comparison (`load ≤ budget`) and every
//! algorithmic tie-break exact and platform-independent; floating point
//! appears only at the reporting boundary via [`Load::as_f64`].

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::rate::Kbps;

/// An exact rational load value (always stored reduced, denominator > 0).
///
/// Supports negative values so that *load deltas* (used by the distributed
/// algorithms when a user evaluates leaving one AP for another) are
/// first-class.
///
/// # Example
///
/// ```
/// use mcast_core::Load;
///
/// let a = Load::from_ratio(1, 3);
/// let b = Load::from_ratio(1, 4);
/// assert_eq!(a + b, Load::from_ratio(7, 12)); // the paper's MLA example
/// assert!(a + b < Load::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawLoad", into = "RawLoad")]
pub struct Load {
    num: i128,
    den: i128,
}

/// Serialized form of [`Load`]; re-normalized on deserialization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RawLoad {
    num: i128,
    den: i128,
}

impl From<Load> for RawLoad {
    fn from(l: Load) -> Self {
        RawLoad {
            num: l.num,
            den: l.den,
        }
    }
}

impl TryFrom<RawLoad> for Load {
    type Error = String;

    fn try_from(r: RawLoad) -> Result<Self, Self::Error> {
        if r.den == 0 {
            return Err("load denominator must be nonzero".to_string());
        }
        Ok(Load::new(r.num, r.den))
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `gcd` in hardware `u64` division: `i128` `%` is a software routine,
/// and the fast paths below reduce every WLAN-sized fraction through this.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Load {
    /// The zero load.
    pub const ZERO: Load = Load { num: 0, den: 1 };
    /// Load 1 — an AP that multicasts 100% of the time.
    pub const ONE: Load = Load { num: 1, den: 1 };

    /// Builds a load `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Load {
        assert!(den != 0, "load denominator must be nonzero");
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) => Load::new_i64(num, den),
            _ => Load::new_i128(num, den),
        }
    }

    /// [`Load::new`] for components that fit `i64`: the gcd and both
    /// divisions run on the magnitudes in `u64`.
    fn new_i64(num: i64, den: i64) -> Load {
        if num == 0 {
            return Load::ZERO;
        }
        let negative = (num < 0) != (den < 0);
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u64(n, d);
        let n = i128::from(n / g);
        Load {
            num: if negative { -n } else { n },
            den: i128::from(d / g),
        }
    }

    /// [`Load::new`] on the full `i128` range: the general path, and the
    /// oracle the `u64` fast path is tested against.
    pub(crate) fn new_i128(num: i128, den: i128) -> Load {
        assert!(den != 0, "load denominator must be nonzero");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (num, den) = (num.abs(), den.abs());
        if num == 0 {
            return Load::ZERO;
        }
        let g = gcd(num, den);
        Load {
            num: sign * (num / g),
            den: den / g,
        }
    }

    /// Builds a load `num / den` from non-negative integers (the common
    /// `session_kbps / tx_kbps` case).
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: u64, den: u64) -> Load {
        Load::new(num as i128, den as i128)
    }

    /// The airtime fraction an AP spends multicasting a stream of
    /// `stream` kbps at transmission rate `tx` kbps: `stream / tx`.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is zero.
    pub fn per_transmission(stream: Kbps, tx: Kbps) -> Load {
        Load::from_ratio(u64::from(stream.0), u64::from(tx.0))
    }

    /// A load expressed in thousandths (`permille(900)` = 0.9, the paper's
    /// default per-AP multicast budget).
    pub fn permille(thousandths: u32) -> Load {
        Load::new(thousandths as i128, 1000)
    }

    /// Numerator of the reduced fraction (sign carries here).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Whether this load is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this load is negative (possible for deltas).
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Lossy conversion for reporting/plotting.
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact division by a positive integer (used to build budget grids).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_int(self, divisor: u64) -> Load {
        assert!(divisor != 0, "division by zero");
        Load::new(self.num, Load::checked_mul(self.den, divisor as i128))
    }

    fn checked_mul(a: i128, b: i128) -> i128 {
        a.checked_mul(b)
            .expect("load arithmetic overflow: fraction denominators grew beyond i128")
    }

    /// Whether both components fit in `i64`, so a pairwise `i128` product
    /// cannot overflow and needs no checked multiplication. Reduced WLAN
    /// fractions are tiny (rate ratios in lowest terms), so this is the
    /// hot case — `i128::checked_mul` lowers to a slow overflow-detecting
    /// routine that dominates comparison-heavy loops like the CELF heap.
    #[inline]
    fn fits_i64(&self) -> bool {
        const LIM: i128 = i64::MAX as i128;
        self.num.abs() <= LIM && self.den <= LIM
    }

    /// [`Ord::cmp`] with checked `i128` cross products: the general path,
    /// and the oracle the unchecked fast path is tested against.
    pub(crate) fn cmp_i128(&self, other: &Load) -> Ordering {
        Load::checked_mul(self.num, other.den).cmp(&Load::checked_mul(other.num, self.den))
    }

    /// [`Add`] with checked `i128` arithmetic throughout: the general
    /// path, and the oracle the `u64` fast path is tested against.
    pub(crate) fn add_i128(self, rhs: Load) -> Load {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den, rhs.den);
        let l = Load::checked_mul(self.den / g, rhs.den);
        let num = Load::checked_mul(self.num, l / self.den)
            .checked_add(Load::checked_mul(rhs.num, l / rhs.den))
            .expect("load arithmetic overflow in addition");
        Load::new(num, l)
    }
}

impl Default for Load {
    fn default() -> Self {
        Load::ZERO
    }
}

impl fmt::Display for Load {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Load {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Load {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (b, d > 0).
        if self.fits_i64() && other.fits_i64() {
            // |i64| * |i64| always fits in i128: plain multiplies suffice.
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        self.cmp_i128(other)
    }
}

impl Add for Load {
    type Output = Load;

    fn add(self, rhs: Load) -> Load {
        if self.fits_i64() && rhs.fits_i64() {
            // Same lcm formula as `add_i128`, with the gcd and divisions
            // in u64. Every product below multiplies two magnitudes under
            // 2^63, so it stays under 2^126 and the sum of two under
            // 2^127: no i128 operation can overflow.
            let (b, d) = (self.den as u64, rhs.den as u64);
            let g = gcd_u64(b, d);
            let (b, d) = (i128::from(b / g), i128::from(d / g));
            return Load::new(self.num * d + rhs.num * b, b * rhs.den);
        }
        self.add_i128(rhs)
    }
}

impl AddAssign for Load {
    fn add_assign(&mut self, rhs: Load) {
        *self = *self + rhs;
    }
}

impl Sub for Load {
    type Output = Load;

    fn sub(self, rhs: Load) -> Load {
        self + (-rhs)
    }
}

impl SubAssign for Load {
    fn sub_assign(&mut self, rhs: Load) {
        *self = *self - rhs;
    }
}

impl Neg for Load {
    type Output = Load;

    fn neg(self) -> Load {
        Load {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul<u64> for Load {
    type Output = Load;

    fn mul(self, rhs: u64) -> Load {
        Load::new(Load::checked_mul(self.num, rhs as i128), self.den)
    }
}

impl Sum for Load {
    fn sum<I: Iterator<Item = Load>>(iter: I) -> Load {
        iter.fold(Load::ZERO, |acc, l| acc + l)
    }
}

impl From<u32> for Load {
    fn from(v: u32) -> Self {
        Load::new(v as i128, 1)
    }
}

impl mcast_covering::Cost for Load {
    fn zero() -> Self {
        Load::ZERO
    }

    fn add(&self, other: &Self) -> Self {
        *self + *other
    }

    fn cmp_effectiveness(n1: u64, c1: &Self, n2: u64, c2: &Self) -> Ordering {
        // n1/c1 vs n2/c2 with c = num/den:
        // n1*den1/num1 vs n2*den2/num2  <=>  n1*den1*num2 vs n2*den2*num1.
        // Costs are strictly positive so signs don't flip.
        debug_assert!(c1.num > 0 && c2.num > 0);
        // Fast path: three factors each below 2^42 keep the triple product
        // under 2^126, so unchecked i128 multiplies are exact. This is the
        // hot comparison of the lazy-greedy heap (see crates/covering), and
        // WLAN instances (gains ≤ users, reduced rate ratios) always hit it.
        const LIM: i128 = 1 << 42;
        let (a1, d1, m1) = (n1 as i128, c1.den, c1.num);
        let (a2, d2, m2) = (n2 as i128, c2.den, c2.num);
        if a1 < LIM
            && a2 < LIM
            && (0..LIM).contains(&d1)
            && (0..LIM).contains(&d2)
            && (0..LIM).contains(&m1)
            && (0..LIM).contains(&m2)
        {
            return (a1 * d1 * m2).cmp(&(a2 * d2 * m1));
        }
        let lhs = Load::checked_mul(Load::checked_mul(a1, d1), m2);
        let rhs = Load::checked_mul(Load::checked_mul(a2, d2), m1);
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_covering::Cost;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Load::new(2, 4), Load::from_ratio(1, 2));
        assert_eq!(Load::new(-2, 4), Load::new(1, -2));
        assert_eq!(Load::new(-2, -4), Load::from_ratio(1, 2));
        assert_eq!(Load::new(0, -7), Load::ZERO);
        assert_eq!(Load::from_ratio(1, 2).denom(), 2);
        assert_eq!(Load::new(-6, 4).numer(), -3);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Load::new(1, 0);
    }

    #[test]
    fn paper_example_arithmetic() {
        // §3.2 BLA example: 1/3 + 1/6 = 1/2.
        assert_eq!(
            Load::from_ratio(1, 3) + Load::from_ratio(1, 6),
            Load::from_ratio(1, 2)
        );
        // §3.2 MLA example: 1/3 + 1/4 = 7/12.
        assert_eq!(
            Load::from_ratio(1, 3) + Load::from_ratio(1, 4),
            Load::from_ratio(7, 12)
        );
        // §3.2 MNU infeasibility: 3/3 + 3/6 > 1.
        assert!(Load::from_ratio(3, 3) + Load::from_ratio(3, 6) > Load::ONE);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Load::from_ratio(1, 3) > Load::from_ratio(1, 4));
        assert!(Load::from_ratio(9, 20) < Load::from_ratio(1, 2));
        assert_eq!(
            Load::from_ratio(2, 6).cmp(&Load::from_ratio(1, 3)),
            Ordering::Equal
        );
        assert!(Load::new(-1, 3) < Load::ZERO);
    }

    #[test]
    fn deltas_can_be_negative() {
        let delta = Load::from_ratio(1, 5) - Load::from_ratio(1, 4);
        assert!(delta.is_negative());
        assert_eq!(delta, Load::new(-1, 20));
        assert_eq!(-delta, Load::from_ratio(1, 20));
    }

    #[test]
    fn per_transmission_and_permille() {
        assert_eq!(
            Load::per_transmission(Kbps(1000), Kbps(6000)),
            Load::from_ratio(1, 6)
        );
        assert_eq!(Load::permille(900), Load::from_ratio(9, 10));
        assert_eq!(Load::permille(42), Load::from_ratio(21, 500));
    }

    #[test]
    fn sum_and_scalar_mul() {
        let total: Load = [Load::from_ratio(1, 6); 3].into_iter().sum();
        assert_eq!(total, Load::from_ratio(1, 2));
        assert_eq!(Load::from_ratio(1, 6) * 3, Load::from_ratio(1, 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Load::from_ratio(7, 12).to_string(), "7/12");
        assert_eq!(Load::ZERO.to_string(), "0");
        assert_eq!(Load::from(3u32).to_string(), "3");
        assert_eq!(Load::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn as_f64_close() {
        assert!((Load::from_ratio(7, 12).as_f64() - 0.5833333).abs() < 1e-6);
    }

    #[test]
    fn cost_impl_effectiveness() {
        // 3 / (3/4) = 4   vs   2 / 1 = 2
        let c1 = Load::from_ratio(3, 4);
        let c2 = Load::ONE;
        assert_eq!(
            <Load as Cost>::cmp_effectiveness(3, &c1, 2, &c2),
            Ordering::Greater
        );
        // 2/(1/3) = 6 == 6/(1/1)... 6/1 = 6.
        assert_eq!(
            <Load as Cost>::cmp_effectiveness(2, &Load::from_ratio(1, 3), 6, &Load::ONE),
            Ordering::Equal
        );
    }

    #[test]
    fn serde_roundtrip_and_normalization() {
        let l = Load::from_ratio(7, 12);
        let json = serde_json::to_string(&l).unwrap();
        let back: Load = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
        // Unreduced input normalizes.
        let raw: Load = serde_json::from_str(r#"{"num":2,"den":4}"#).unwrap();
        assert_eq!(raw, Load::from_ratio(1, 2));
        // Zero denominator rejected.
        assert!(serde_json::from_str::<Load>(r#"{"num":1,"den":0}"#).is_err());
    }

    const BIG: i128 = i64::MAX as i128;
    const MIN: i128 = i64::MIN as i128;

    #[test]
    fn gcd_u64_edge_cases() {
        assert_eq!(gcd_u64(0, 5), 5);
        assert_eq!(gcd_u64(7, 0), 7);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(1 << 63, 1 << 62), 1 << 62);
    }

    #[test]
    fn fast_path_new_handles_i64_min() {
        // |i64::MIN| = 2^63 only fits the unsigned magnitude.
        for (num, den) in [(MIN, 2), (MIN, MIN), (2, MIN), (MIN, -4), (MIN, 3)] {
            assert_eq!(Load::new(num, den), Load::new_i128(num, den));
        }
        assert_eq!(Load::new(MIN, MIN), Load::ONE);
        assert_eq!(Load::new(MIN, 2).numer(), MIN / 2);
        assert_eq!(Load::new(2, MIN), Load::new(-1, 1 << 62));
    }

    #[test]
    fn fast_path_new_normalizes_negative_denominators() {
        assert_eq!(Load::new(3, -6), Load::new(-1, 2));
        assert_eq!(Load::new(-3, -6), Load::from_ratio(1, 2));
        assert_eq!(Load::new(3, -6).denom(), 2);
        assert_eq!(Load::new(0, -BIG), Load::ZERO);
        assert_eq!(Load::new(BIG, -BIG), Load::new_i128(BIG, -BIG));
    }

    #[test]
    fn new_above_i64_takes_the_i128_path() {
        let l = Load::new(2 * (BIG + 1), 2);
        assert_eq!(l.numer(), BIG + 1);
        assert_eq!(l.denom(), 1);
        assert_eq!(Load::new(-4 * BIG, 6 * BIG), Load::new(-2, 3));
        assert_eq!(Load::new(BIG + 1, BIG + 1), Load::ONE);
    }

    #[test]
    fn add_at_i64_extremes_is_exact() {
        let max = Load::new(BIG, 1);
        // The sum's numerator leaves i64, so it renormalizes on i128.
        assert_eq!(max + max, Load::new(2 * BIG, 1));
        assert_eq!(max + max, max.add_i128(max));
        let tiny = Load::new(1, BIG);
        assert_eq!(tiny + tiny, Load::new(2, BIG));
        assert_eq!(max + -max, Load::ZERO);
    }

    #[test]
    fn add_coprime_large_denominators_matches_i128() {
        // lcm = BIG * (BIG - 1) ≈ 2^126: the widest product the fast
        // path forms.
        let a = Load::new(1, BIG);
        let b = Load::new(1, BIG - 1);
        let sum = a + b;
        assert_eq!(sum, a.add_i128(b));
        assert_eq!(sum.denom(), BIG * (BIG - 1));
        assert_eq!(sum.numer(), 2 * BIG - 1);
        assert_eq!(a - b, a.add_i128(-b));
    }

    #[test]
    fn add_with_one_operand_above_i64_falls_back() {
        let big = Load::new(BIG + 1, 1);
        let half = Load::from_ratio(1, 2);
        assert!(!big.fits_i64());
        assert_eq!(big + half, Load::new(2 * BIG + 3, 2));
        assert_eq!(half + big, big + half);
        assert_eq!(big - big, Load::ZERO);
    }

    #[test]
    fn cmp_fast_path_agrees_with_checked_at_boundary() {
        let cases = [
            (Load::new(BIG, 1), Load::new(BIG - 1, 1)),
            (Load::new(1, BIG), Load::new(1, BIG - 1)),
            (Load::new(-BIG, 1), Load::new(MIN + 1, 1)),
            (Load::new(BIG, BIG - 1), Load::new(BIG - 1, BIG - 2)),
            (Load::new(-1, BIG), Load::ZERO),
        ];
        for (a, b) in cases {
            assert_eq!(a.cmp(&b), a.cmp_i128(&b), "{a} vs {b}");
            assert_eq!(b.cmp(&a), b.cmp_i128(&a), "{b} vs {a}");
        }
        assert!(Load::new(BIG, BIG - 1) < Load::new(BIG - 1, BIG - 2));
    }

    #[test]
    fn cmp_across_the_i64_boundary() {
        let above = Load::new(BIG + 1, 1);
        let at = Load::new(BIG, 1);
        assert!(above > at);
        assert!(-above < -at);
        assert_eq!(above.cmp(&at), above.cmp_i128(&at));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut l = Load::ZERO;
        l += Load::from_ratio(1, 3);
        l += Load::from_ratio(1, 6);
        assert_eq!(l, Load::from_ratio(1, 2));
        l -= Load::from_ratio(3, 4);
        assert_eq!(l, Load::new(-1, 4));
    }

    #[test]
    fn negating_zero_stays_zero() {
        assert_eq!(-Load::ZERO, Load::ZERO);
        assert!(!(-Load::ZERO).is_negative());
        assert!((-Load::ZERO).is_zero());
        assert_eq!(Load::from_ratio(2, 7) - Load::from_ratio(2, 7), Load::ZERO);
    }

    #[test]
    fn div_int_and_mul_reduce() {
        assert_eq!(Load::from_ratio(3, 4).div_int(3), Load::from_ratio(1, 4));
        assert_eq!(Load::ONE.div_int(10), Load::permille(100));
        assert_eq!(Load::new(-5, 6) * 3, Load::new(-5, 2));
        assert_eq!(Load::from_ratio(5, 6) * 6, Load::from(5u32));
    }
}
