//! One-dimensional strided intervals — the `lo : hi : stride` triplets of
//! bounded regular section analysis.

/// A strided interval `{ lo, lo + stride, lo + 2*stride, ... } ∩ [lo, hi]`.
///
/// Invariants (enforced by constructors and maintained by all operations):
///
/// * `lo <= hi`, except in the one empty interval, the canonical sentinel
///   [`Interval::empty`] (`lo = 0`, `hi = -1`).
/// * `stride >= 1`.
/// * `hi` is *aligned*: `(hi - lo) % stride == 0`, so `hi` is the actual
///   last element, not just an upper bound.
/// * Singletons (`lo == hi`) always have `stride == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: i64,
    hi: i64,
    stride: i64,
}

impl Interval {
    /// The canonical empty interval.
    pub const fn empty() -> Self {
        Interval {
            lo: 0,
            hi: -1,
            stride: 1,
        }
    }

    /// A dense (stride-1) interval covering `lo ..= hi`.
    ///
    /// Returns the empty interval if `lo > hi`.
    pub fn dense(lo: i64, hi: i64) -> Self {
        Self::new(lo, hi, 1)
    }

    /// A strided interval; `hi` is clamped down to the last reachable
    /// element. Returns the empty interval if `lo > hi`. `stride` must be
    /// at least 1.
    ///
    /// # Panics
    /// Panics if `stride < 1`.
    pub fn new(lo: i64, hi: i64, stride: i64) -> Self {
        assert!(stride >= 1, "interval stride must be >= 1, got {stride}");
        if lo > hi {
            return Self::empty();
        }
        let span = hi - lo;
        let hi = lo + (span / stride) * stride;
        let stride = if lo == hi { 1 } else { stride };
        Interval { lo, hi, stride }
    }

    /// Lower bound (meaningless for empty intervals).
    #[inline]
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Last element (meaningless for empty intervals).
    #[inline]
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Stride between consecutive elements.
    #[inline]
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// True if the interval contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// True if the interval is dense (stride 1) or empty.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.is_empty() || self.stride == 1
    }

    /// Number of elements in the interval.
    pub fn count(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            ((self.hi - self.lo) / self.stride + 1) as u64
        }
    }

    /// True if `x` is a member of the interval.
    pub fn contains(&self, x: i64) -> bool {
        !self.is_empty() && x >= self.lo && x <= self.hi && (x - self.lo) % self.stride == 0
    }

    /// True if every element of `other` is an element of `self`.
    ///
    /// Exact for all stride combinations.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        // Endpoints must be members.
        if !self.contains(other.lo) || !self.contains(other.hi) {
            return false;
        }
        if other.lo == other.hi {
            return true;
        }
        // All of other's elements are hit iff other's stride is a multiple
        // of ours (their lattice is a sub-lattice of ours).
        other.stride % self.stride == 0
    }

    /// Exact intersection of two strided intervals.
    ///
    /// The intersection of two arithmetic progressions is itself an
    /// arithmetic progression (with stride `lcm(s1, s2)`), so this is always
    /// exact.
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return Interval::empty();
        }
        if self.stride == 1 && other.stride == 1 {
            return Interval::dense(lo, hi);
        }
        // Solve x ≡ self.lo (mod s1), x ≡ other.lo (mod s2) via CRT.
        let (g, _, _) = ext_gcd(self.stride, other.stride);
        let diff = other.lo - self.lo;
        if diff.rem_euclid(g) != 0 {
            return Interval::empty(); // lattices never meet
        }
        let l = lcm(self.stride, other.stride);
        // Find the smallest member of both lattices that is >= lo.
        let step = self.stride;
        let (_, m1, _) = ext_gcd(step / g, other.stride / g);
        // x = self.lo + step * k where k ≡ (diff/g) * m1 (mod other.stride/g)
        let modulus = other.stride / g;
        let k0 = ((diff / g) % modulus * (m1 % modulus)) % modulus;
        let k0 = k0.rem_euclid(modulus);
        let x0 = self.lo + step * k0; // smallest common member >= self.lo
        let first = if x0 >= lo {
            x0
        } else {
            x0 + ((lo - x0 + l - 1) / l) * l
        };
        if first > hi {
            return Interval::empty();
        }
        Interval::new(first, hi, l)
    }

    /// True if the two intervals share at least one element. Exact.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Exact subtraction for dense intervals: `self \ other` as 0–2 dense
    /// pieces.
    ///
    /// Only defined when both intervals are dense; strided callers must
    /// go through [`crate::SectionSet`], which falls back to conservative
    /// handling.
    ///
    /// # Panics
    /// Panics if either interval is non-dense.
    pub fn subtract_dense(&self, other: &Interval) -> (Interval, Interval) {
        assert!(
            self.is_dense() && other.is_dense(),
            "subtract_dense requires stride-1 intervals"
        );
        if self.is_empty() {
            return (Interval::empty(), Interval::empty());
        }
        if other.is_empty() || other.hi < self.lo || other.lo > self.hi {
            return (*self, Interval::empty());
        }
        let left = if other.lo > self.lo {
            Interval::dense(self.lo, other.lo - 1)
        } else {
            Interval::empty()
        };
        let right = if other.hi < self.hi {
            Interval::dense(other.hi + 1, self.hi)
        } else {
            Interval::empty()
        };
        (left, right)
    }

    /// Iterate over the members (for tests and small sections only).
    pub fn iter(&self) -> impl Iterator<Item = i64> + 'static {
        let (lo, hi, stride, empty) = (self.lo, self.hi, self.stride, self.is_empty());
        (0..)
            .map(move |k| lo + k * stride)
            .take_while(move |&x| !empty && x <= hi)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else if self.stride == 1 {
            write!(f, "[{}:{}]", self.lo, self.hi)
        } else {
            write!(f, "[{}:{}:{}]", self.lo, self.hi, self.stride)
        }
    }
}

/// Greatest common divisor (inputs must be positive).
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple.
pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    a / gcd(a, b) * b
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g`.
fn ext_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_properties() {
        let e = Interval::empty();
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        assert!(!e.contains(0));
        assert_eq!(e.to_string(), "∅");
    }

    #[test]
    fn dense_count_and_contains() {
        let i = Interval::dense(3, 7);
        assert_eq!(i.count(), 5);
        assert!(i.contains(3) && i.contains(7) && i.contains(5));
        assert!(!i.contains(2) && !i.contains(8));
        assert_eq!(i.to_string(), "[3:7]");
    }

    #[test]
    fn strided_alignment_clamps_hi() {
        let i = Interval::new(0, 10, 4);
        assert_eq!(i.hi(), 8); // 0, 4, 8
        assert_eq!(i.count(), 3);
        assert!(i.contains(8) && !i.contains(10));
        assert_eq!(i.to_string(), "[0:8:4]");
    }

    #[test]
    fn singleton_normalizes_stride() {
        let i = Interval::new(5, 5, 100);
        assert_eq!(i.stride(), 1);
        assert_eq!(i.count(), 1);
    }

    #[test]
    fn inverted_bounds_are_empty() {
        assert!(Interval::new(10, 3, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "stride must be >= 1")]
    fn zero_stride_panics() {
        let _ = Interval::new(0, 10, 0);
    }

    #[test]
    fn intersect_dense() {
        let a = Interval::dense(0, 10);
        let b = Interval::dense(5, 20);
        assert_eq!(a.intersect(&b), Interval::dense(5, 10));
        assert_eq!(b.intersect(&a), Interval::dense(5, 10));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Interval::dense(0, 4);
        let b = Interval::dense(5, 9);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_strided_same_phase() {
        // {0,4,8,12,16} ∩ {0,6,12,18} = {0,12}
        let a = Interval::new(0, 16, 4);
        let b = Interval::new(0, 18, 6);
        let c = a.intersect(&b);
        assert_eq!(c, Interval::new(0, 12, 12));
    }

    #[test]
    fn intersect_strided_offset_phase() {
        // {1,4,7,10,13} ∩ {4,9,14} = {4} (lcm 15, only one in range)
        let a = Interval::new(1, 13, 3);
        let b = Interval::new(4, 14, 5);
        let c = a.intersect(&b);
        assert_eq!(c, Interval::dense(4, 4));
    }

    #[test]
    fn intersect_incompatible_lattices() {
        // Evens vs odds never meet.
        let a = Interval::new(0, 100, 2);
        let b = Interval::new(1, 99, 2);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_brute_force_agreement() {
        // Exhaustively check against brute-force sets for a grid of shapes.
        for s1 in 1..5i64 {
            for s2 in 1..5i64 {
                for o1 in 0..4i64 {
                    for o2 in 0..4i64 {
                        let a = Interval::new(o1, o1 + 20, s1);
                        let b = Interval::new(o2, o2 + 15, s2);
                        let c = a.intersect(&b);
                        let sa: Vec<i64> = a.iter().collect();
                        let sb: Vec<i64> = b.iter().collect();
                        let expect: Vec<i64> =
                            sa.iter().copied().filter(|x| sb.contains(x)).collect();
                        let got: Vec<i64> = c.iter().collect();
                        assert_eq!(got, expect, "a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn contains_interval_cases() {
        let big = Interval::dense(0, 100);
        assert!(big.contains_interval(&Interval::new(0, 100, 5)));
        assert!(big.contains_interval(&Interval::empty()));
        assert!(!big.contains_interval(&Interval::dense(50, 101)));
        let evens = Interval::new(0, 100, 2);
        assert!(evens.contains_interval(&Interval::new(0, 100, 4)));
        assert!(!evens.contains_interval(&Interval::new(0, 100, 3)));
        assert!(!evens.contains_interval(&Interval::dense(1, 1)));
    }

    #[test]
    fn subtract_dense_middle_splits() {
        let a = Interval::dense(0, 10);
        let b = Interval::dense(3, 6);
        let (l, r) = a.subtract_dense(&b);
        assert_eq!(l, Interval::dense(0, 2));
        assert_eq!(r, Interval::dense(7, 10));
    }

    #[test]
    fn subtract_dense_disjoint_keeps_all() {
        let a = Interval::dense(0, 4);
        let (l, r) = a.subtract_dense(&Interval::dense(10, 20));
        assert_eq!(l, a);
        assert!(r.is_empty());
    }

    #[test]
    fn subtract_dense_covering_removes_all() {
        let a = Interval::dense(5, 9);
        let (l, r) = a.subtract_dense(&Interval::dense(0, 20));
        assert!(l.is_empty() && r.is_empty());
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(4, 6), 12);
    }
}
