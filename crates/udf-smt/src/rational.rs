//! Exact rational arithmetic over `i128` with overflow detection.
//!
//! The simplex works over rationals; every operation is checked and
//! overflow surfaces as `None`, which the solver maps to
//! [`crate::solver::SatResult::Unknown`] (never to a wrong answer).
//!
//! Most values the solver meets are integers: the linearizer emits integer
//! coefficients, and pivots on ±1 keep them integral. So addition,
//! subtraction and multiplication take a fast path when both operands are
//! integers, and gcds run in `u64` whenever both operands fit. Lowest terms
//! are unique, and each fast path overflows exactly when the general
//! formula does, so every result — `None` included — is the one the
//! general formula gives; the tests hold them to it.

use std::cmp::Ordering;
use std::fmt;

/// A rational number `num/den` with `den > 0`, always in lowest terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor (`gcd(0, 0) = 0`). Euclid's steps run in `u64`
/// as soon as both operands fit.
pub(crate) fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            return u128::from(x);
        }
        (a, b) = (b, a % b);
    }
    a
}

/// `gcd(|a|, d)` for a positive `d`: at most `d`, so it fits.
fn gcd_with_den(a: i128, d: i128) -> i128 {
    i128::try_from(gcd(a.unsigned_abs(), d.unsigned_abs()))
        .expect("a gcd with a positive denominator is at most it")
}

/// `a/b` against `c/d` (`b, d > 0`) with no product that can overflow:
/// compare the integer parts, then the fractional parts by their
/// reciprocals, which reverses the order — Euclid's algorithm run on both
/// fractions at once. The denominators shrink every round.
fn cmp_exact(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    let mut reversed = false;
    loop {
        let (qa, ra) = (a.div_euclid(b), a.rem_euclid(b));
        let (qc, rc) = (c.div_euclid(d), c.rem_euclid(d));
        let ord = match (qa.cmp(&qc), ra, rc) {
            (Ordering::Equal, 0, 0) => Ordering::Equal,
            (Ordering::Equal, 0, _) => Ordering::Less,
            (Ordering::Equal, _, 0) => Ordering::Greater,
            (Ordering::Equal, _, _) => {
                (a, b, c, d) = (b, ra, d, rc);
                reversed = !reversed;
                continue;
            }
            (ord, _, _) => ord,
        };
        return if reversed { ord.reverse() } else { ord };
    }
}

impl Rat {
    /// Zero.
    pub(crate) const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub(crate) const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms. Returns `None` if `den == 0` or
    /// the value's lowest terms do not fit (`i128::MIN / -1`).
    pub fn new(num: i128, den: i128) -> Option<Rat> {
        if den == 1 {
            return Some(Rat { num, den });
        }
        if den == 0 {
            return None;
        }
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let (n, d) = (num.unsigned_abs() / g, den.unsigned_abs() / g);
        let num = if (num < 0) == (den < 0) {
            i128::try_from(n).ok()?
        } else {
            0i128.checked_sub_unsigned(n)?
        };
        Some(Rat {
            num,
            den: i128::try_from(d).ok()?,
        })
    }

    /// Creates an integer rational.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator.
    pub(crate) fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub(crate) fn den(self) -> i128 {
        self.den
    }

    /// Whether the value is an integer.
    pub(crate) fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether the value is zero.
    pub(crate) fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0, or 1.
    pub(crate) fn signum(self) -> i32 {
        match self.num.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Floor as an integer.
    pub(crate) fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling as an integer. A non-integer has `den ≥ 2`, so its floor is
    /// at most half the numerator and one more cannot overflow.
    pub(crate) fn ceil(self) -> i128 {
        if self.is_integer() {
            self.num
        } else {
            self.floor() + 1
        }
    }

    /// Checked addition.
    pub(crate) fn checked_add(self, o: Rat) -> Option<Rat> {
        // a/1 + c/d = (a·d + c)/d, already in lowest terms because c/d is.
        match (self.den, o.den) {
            (1, 1) => return Some(Rat::int(self.num.checked_add(o.num)?)),
            (1, d) => {
                let n = self.num.checked_mul(d)?.checked_add(o.num)?;
                return Some(Rat { num: n, den: d });
            }
            (d, 1) => {
                let n = self.num.checked_add(o.num.checked_mul(d)?)?;
                return Some(Rat { num: n, den: d });
            }
            _ => {}
        }
        let n = self
            .num
            .checked_mul(o.den)?
            .checked_add(o.num.checked_mul(self.den)?)?;
        Rat::new(n, self.den.checked_mul(o.den)?)
    }

    /// Checked subtraction.
    pub(crate) fn checked_sub(self, o: Rat) -> Option<Rat> {
        self.checked_add(o.checked_neg()?)
    }

    /// Checked multiplication.
    pub(crate) fn checked_mul(self, o: Rat) -> Option<Rat> {
        if self.den == 1 && o.den == 1 {
            return Some(Rat::int(self.num.checked_mul(o.num)?));
        }
        // Cross-reduce first to keep magnitudes small. Both operands are in
        // lowest terms, so the cross-reduced product is too.
        let g1 = gcd_with_den(self.num, o.den).max(1);
        let g2 = gcd_with_den(o.num, self.den).max(1);
        let n = (self.num / g1).checked_mul(o.num / g2)?;
        let d = (self.den / g2).checked_mul(o.den / g1)?;
        Some(Rat { num: n, den: d })
    }

    /// Checked division. `None` on division by zero or overflow.
    pub(crate) fn checked_div(self, o: Rat) -> Option<Rat> {
        let recip = match o.num.signum() {
            0 => return None,
            1 => Rat {
                num: o.den,
                den: o.num,
            },
            _ => Rat {
                num: -o.den,
                den: o.num.checked_neg()?,
            },
        };
        self.checked_mul(recip)
    }

    /// Checked negation.
    pub(crate) fn checked_neg(self) -> Option<Rat> {
        Some(Rat {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d with b, d > 0: compare a·d with c·b when both fit.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => cmp_exact(self.num, self.den, other.num, other.den),
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn normalization() {
        let r = Rat::new(2, 4).unwrap();
        assert_eq!((r.num(), r.den()), (1, 2));
        let r = Rat::new(3, -6).unwrap();
        assert_eq!((r.num(), r.den()), (-1, 2));
        assert_eq!(Rat::new(0, 5).unwrap(), Rat::ZERO);
        assert!(Rat::new(1, 0).is_none());
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2).unwrap();
        let b = Rat::new(1, 3).unwrap();
        assert_eq!(a.checked_add(b).unwrap(), Rat::new(5, 6).unwrap());
        assert_eq!(a.checked_sub(b).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(a.checked_mul(b).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(a.checked_div(b).unwrap(), Rat::new(3, 2).unwrap());
        assert!(a.checked_div(Rat::ZERO).is_none());
    }

    #[test]
    fn ordering() {
        let a = Rat::new(1, 3).unwrap();
        let b = Rat::new(1, 2).unwrap();
        assert!(a < b);
        assert!(Rat::int(-1) < Rat::ZERO);
        assert_eq!(
            Rat::new(2, 4).unwrap().cmp(&Rat::new(1, 2).unwrap()),
            Ordering::Equal
        );
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).unwrap().floor(), 3);
        assert_eq!(Rat::new(7, 2).unwrap().ceil(), 4);
        assert_eq!(Rat::new(-7, 2).unwrap().floor(), -4);
        assert_eq!(Rat::new(-7, 2).unwrap().ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn integrality() {
        assert!(Rat::int(3).is_integer());
        assert!(!Rat::new(3, 2).unwrap().is_integer());
    }

    #[test]
    fn overflow_is_detected() {
        let big = Rat::int(i128::MAX);
        assert!(big.checked_add(Rat::ONE).is_none());
        assert!(big.checked_mul(Rat::int(2)).is_none());
    }

    #[test]
    fn comparison_is_exact_where_cross_products_overflow() {
        // (2¹⁰⁰+1)/(2⁴⁰+1) and 2¹⁰⁰/(2⁴⁰+1) are distinct lowest-terms values
        // whose quotients agree to far beyond an f64 mantissa.
        let (p, q) = (1i128 << 100, (1i128 << 40) + 1);
        let above = Rat::new(p + 1, q).unwrap();
        let below = Rat::new(p, q).unwrap();
        assert_ne!(above, below);
        assert_eq!(above.cmp(&below), Ordering::Greater);
        assert_eq!(below.cmp(&above), Ordering::Less);
        // Different denominators: p/q + 1/q against p/q + 1/(2q).
        let halfway = Rat::new(2 * p + 1, 2 * q).unwrap();
        assert_eq!(above.cmp(&halfway), Ordering::Greater);
        assert_eq!(halfway.cmp(&below), Ordering::Greater);
        let c = Rat::new(i128::MAX, q).unwrap();
        let d = Rat::new(i128::MAX - 1, q).unwrap();
        assert_eq!(c.cmp(&d), Ordering::Greater);
        let e = Rat::new(i128::MAX, (1i128 << 41) + 3).unwrap();
        assert_eq!(c.cmp(&e), Ordering::Greater);
        assert_eq!(e.cmp(&c), Ordering::Less);
        assert_eq!(
            e.checked_neg().unwrap().cmp(&c.checked_neg().unwrap()),
            Ordering::Greater
        );
    }

    #[test]
    fn rounding_the_extremes_cannot_overflow() {
        assert_eq!(Rat::int(i128::MIN).ceil(), i128::MIN);
        assert_eq!(Rat::int(i128::MIN).floor(), i128::MIN);
        assert_eq!(Rat::int(i128::MAX).ceil(), i128::MAX);
        let r = Rat::new(i128::MIN, 3).unwrap();
        assert_eq!(r.ceil(), i128::MIN / 3);
        assert_eq!(r.floor(), i128::MIN / 3 - 1);
        let r = Rat::new(i128::MAX, 2).unwrap();
        assert_eq!(r.ceil(), i128::MAX / 2 + 1);
    }

    /// The general formulas, with no fast path: what every operation
    /// computes by definition. Its gcd takes the remainder and absolute
    /// value wrapping, so the reference is total on `i128::MIN`; its
    /// comparison multiplies out to 256 bits.
    mod reference {
        use std::cmp::Ordering;

        pub(super) type Pair = (i128, i128);

        fn gcd(mut a: i128, mut b: i128) -> i128 {
            while b != 0 {
                let t = a.wrapping_rem(b);
                a = b;
                b = t;
            }
            a.wrapping_abs()
        }

        pub(super) fn new(num: i128, den: i128) -> Option<Pair> {
            if den == 0 {
                return None;
            }
            let g = gcd(num, den);
            let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
            if den < 0 {
                num = num.checked_neg()?;
                den = den.checked_neg()?;
            }
            Some((num, den))
        }

        pub(super) fn add((a, b): Pair, (c, d): Pair) -> Option<Pair> {
            let n = a.checked_mul(d)?.checked_add(c.checked_mul(b)?)?;
            new(n, b.checked_mul(d)?)
        }

        pub(super) fn sub(x: Pair, (c, d): Pair) -> Option<Pair> {
            add(x, (c.checked_neg()?, d))
        }

        pub(super) fn mul((a, b): Pair, (c, d): Pair) -> Option<Pair> {
            let g1 = gcd(a, d).max(1);
            let g2 = gcd(c, b).max(1);
            let n = (a / g1).checked_mul(c / g2)?;
            let m = (b / g2).checked_mul(d / g1)?;
            new(n, m)
        }

        pub(super) fn div(x: Pair, (c, d): Pair) -> Option<Pair> {
            if c == 0 {
                return None;
            }
            mul(x, new(d, c)?)
        }

        /// `x·y` as (negative, high 128 bits, low 128 bits) of the magnitude.
        fn wide_mul(x: i128, y: i128) -> (bool, u128, u128) {
            const LO: u128 = u64::MAX as u128;
            let (p, q) = (x.unsigned_abs(), y.unsigned_abs());
            let (p1, p0, q1, q0) = (p >> 64, p & LO, q >> 64, q & LO);
            let (p00, p01, p10, p11) = (p0 * q0, p0 * q1, p1 * q0, p1 * q1);
            let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
            let lo = (p00 & LO) | ((mid & LO) << 64);
            let hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
            ((x < 0) != (y < 0) && p != 0 && q != 0, hi, lo)
        }

        pub(super) fn cmp((a, b): Pair, (c, d): Pair) -> Ordering {
            let (ln, lh, ll) = wide_mul(a, d);
            let (rn, rh, rl) = wide_mul(c, b);
            match (ln, rn) {
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
                (false, false) => (lh, ll).cmp(&(rh, rl)),
                (true, true) => (rh, rl).cmp(&(lh, ll)),
            }
        }

        pub(super) fn floor((a, b): Pair) -> i128 {
            a.div_euclid(b)
        }

        /// Truncation toward zero of a negative magnitude is its ceiling.
        pub(super) fn ceil((a, b): Pair) -> i128 {
            if a >= 0 {
                a / b + i128::from(a % b != 0)
            } else {
                let m = a.unsigned_abs() / b.unsigned_abs();
                0i128
                    .checked_sub_unsigned(m)
                    .expect("|a| / b fits below zero")
            }
        }
    }

    fn pair(r: Rat) -> reference::Pair {
        (r.num(), r.den())
    }

    /// Holds every operation on `x` and `y` (valid lowest-terms values) to
    /// the reference.
    fn agrees(x: Rat, y: Rat) {
        let (px, py) = (pair(x), pair(y));
        let ctx = || format!("{x} and {y}");
        assert_eq!(
            x.checked_add(y).map(pair),
            reference::add(px, py),
            "add {}",
            ctx()
        );
        assert_eq!(
            x.checked_sub(y).map(pair),
            reference::sub(px, py),
            "sub {}",
            ctx()
        );
        assert_eq!(
            x.checked_mul(y).map(pair),
            reference::mul(px, py),
            "mul {}",
            ctx()
        );
        assert_eq!(
            x.checked_div(y).map(pair),
            reference::div(px, py),
            "div {}",
            ctx()
        );
        assert_eq!(x.cmp(&y), reference::cmp(px, py), "cmp {}", ctx());
        assert_eq!(x.floor(), reference::floor(px), "floor {x}");
        assert_eq!(x.ceil(), reference::ceil(px), "ceil {x}");
    }

    /// Numerators and denominators near the edges the fast paths and the
    /// `u64` gcd switch on.
    fn edge(rng: &mut SmallRng) -> i128 {
        let base = match rng.gen_range(0..6) {
            0 => i128::MAX,
            1 => i128::MIN,
            2 => i128::from(i64::MAX),
            3 => i128::from(u64::MAX),
            4 => 1i128 << rng.gen_range(1..127),
            _ => i128::from(rng.gen::<i64>()) * i128::from(rng.gen::<i64>()),
        };
        let nudged = base.saturating_add(i128::from(rng.gen_range(-3i64..4)));
        if rng.gen_bool(0.5) {
            nudged
        } else {
            nudged.saturating_neg()
        }
    }

    #[test]
    fn fast_paths_equal_the_general_formulas() {
        for n in -30..=30 {
            for d in -30..=30 {
                assert_eq!(
                    Rat::new(n, d).map(pair),
                    reference::new(n, d),
                    "new {n}/{d}"
                );
            }
        }
        let small: Vec<Rat> = (-8..=8)
            .flat_map(|n| (1..=8).filter_map(move |d| Rat::new(n, d)))
            .collect();
        for &x in &small {
            for &y in &small {
                agrees(x, y);
            }
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200_000 {
            let num = match rng.gen_range(0..3) {
                0 => edge(&mut rng),
                1 => i128::from(rng.gen::<i64>()),
                _ => i128::from(rng.gen_range(-9i64..10)),
            };
            let den = match rng.gen_range(0..4) {
                0 => edge(&mut rng),
                1 => i128::from(rng.gen::<i64>()),
                2 => 1,
                _ => i128::from(rng.gen_range(-9i64..10)),
            };
            assert_eq!(
                Rat::new(num, den).map(pair),
                reference::new(num, den),
                "new {num}/{den}"
            );
        }
        let mut values: Vec<Rat> = Vec::new();
        while values.len() < 600 {
            let num = if rng.gen_bool(0.5) {
                edge(&mut rng)
            } else {
                i128::from(rng.gen::<i64>())
            };
            let den = match rng.gen_range(0..3) {
                0 => edge(&mut rng),
                1 => i128::from(rng.gen::<i64>()),
                _ => 1,
            };
            values.extend(Rat::new(num, den));
        }
        values.extend([Rat::ZERO, Rat::ONE, Rat::int(-1)]);
        values.extend([Rat::int(i128::MIN), Rat::int(i128::MAX)]);
        for &x in &values {
            for &y in &values {
                agrees(x, y);
            }
            agrees(x, small[rng.gen_range(0..small.len())]);
            agrees(small[rng.gen_range(0..small.len())], x);
        }
    }
}
