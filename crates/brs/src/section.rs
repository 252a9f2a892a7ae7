//! Multi-dimensional bounded regular sections: cartesian products of
//! strided intervals.

use crate::interval::Interval;
use std::ops::{Deref, DerefMut};

/// How many dimensions a [`Section`] keeps inline: sections of arrays up
/// to this rank are built and cloned without touching the heap.
const INLINE_DIMS: usize = 2;

/// A section's per-dimension intervals, inline up to [`INLINE_DIMS`] and on
/// the heap beyond. The form is canonical (a rank never changes form, and
/// unused inline slots stay empty), so the derived comparisons hold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Dims {
    Inline(u8, [Interval; INLINE_DIMS]),
    Heap(Vec<Interval>),
}

impl FromIterator<Interval> for Dims {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Dims {
        let mut iter = iter.into_iter();
        let mut buf = [Interval::empty(); INLINE_DIMS];
        for (len, slot) in buf.iter_mut().enumerate() {
            match iter.next() {
                Some(d) => *slot = d,
                None => return Dims::Inline(len as u8, buf),
            }
        }
        match iter.next() {
            None => Dims::Inline(INLINE_DIMS as u8, buf),
            Some(d) => Dims::Heap(buf.into_iter().chain([d]).chain(iter).collect()),
        }
    }
}

impl Deref for Dims {
    type Target = [Interval];
    fn deref(&self) -> &[Interval] {
        match self {
            Dims::Inline(len, buf) => &buf[..*len as usize],
            Dims::Heap(v) => v,
        }
    }
}

impl DerefMut for Dims {
    fn deref_mut(&mut self) -> &mut [Interval] {
        match self {
            Dims::Inline(len, buf) => &mut buf[..*len as usize],
            Dims::Heap(v) => v,
        }
    }
}

/// A multi-dimensional bounded regular section: one [`Interval`] per array
/// dimension, denoting their cartesian product.
///
/// A `Section` with zero dimensions denotes a scalar (exactly one element).
/// A `Section` is empty iff any of its dimensions is empty; empty sections
/// are canonicalized so that *all* dimensions are the empty interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Section {
    dims: Dims,
}

impl Section {
    /// Builds a section from per-dimension intervals, canonicalizing
    /// emptiness.
    pub fn new(dims: impl IntoIterator<Item = Interval>) -> Self {
        let mut dims: Dims = dims.into_iter().collect();
        if dims.iter().any(Interval::is_empty) {
            dims.fill(Interval::empty());
        }
        Section { dims }
    }

    /// A dense section from `(lo, hi)` bounds per dimension.
    pub fn dense(bounds: &[(i64, i64)]) -> Self {
        Section::new(bounds.iter().map(|&(lo, hi)| Interval::dense(lo, hi)))
    }

    /// A scalar section (zero dimensions, one element).
    pub fn scalar() -> Self {
        Section::new([])
    }

    /// An empty section of the given dimensionality.
    pub fn empty(ndims: usize) -> Self {
        Section::new((0..ndims).map(|_| Interval::empty()))
    }

    /// The per-dimension intervals.
    #[inline]
    pub fn dims(&self) -> &[Interval] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// True if the section contains no elements.
    ///
    /// Note a zero-dimensional section is a scalar and is *not* empty.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Interval::is_empty)
    }

    /// True if every dimension is dense (stride 1).
    pub fn is_dense(&self) -> bool {
        self.dims.iter().all(Interval::is_dense)
    }

    /// Exact number of elements in the section.
    pub fn element_count(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        self.dims.iter().map(Interval::count).product()
    }

    /// True if the point (one coordinate per dimension) lies in the section.
    ///
    /// # Panics
    /// Panics if `point.len() != self.ndims()`.
    pub fn contains_point(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.ndims(), "point dimensionality mismatch");
        !self.is_empty() && self.dims.iter().zip(point).all(|(d, &x)| d.contains(x))
    }

    /// True if `other` is entirely contained in `self`. Exact.
    pub fn contains_section(&self, other: &Section) -> bool {
        assert_eq!(
            self.ndims(),
            other.ndims(),
            "section dimensionality mismatch"
        );
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.dims
            .iter()
            .zip(other.dims())
            .all(|(a, b)| a.contains_interval(b))
    }

    /// Exact intersection (`INTERSECT` of the paper): the cartesian product
    /// of per-dimension intersections.
    ///
    /// # Panics
    /// Panics if dimensionalities differ.
    pub fn intersect(&self, other: &Section) -> Section {
        assert_eq!(
            self.ndims(),
            other.ndims(),
            "section dimensionality mismatch"
        );
        Section::new(
            self.dims
                .iter()
                .zip(other.dims())
                .map(|(a, b)| a.intersect(b)),
        )
    }

    /// True if the sections share at least one element. Exact.
    pub fn overlaps(&self, other: &Section) -> bool {
        assert_eq!(
            self.ndims(),
            other.ndims(),
            "section dimensionality mismatch"
        );
        // The intersection is empty exactly when one dimension's is.
        self.dims
            .iter()
            .zip(other.dims())
            .all(|(a, b)| a.overlaps(b))
    }

    /// Exact subtraction `self \ other` for **dense** sections, returned as
    /// a list of disjoint dense sections (at most `2 * ndims` pieces).
    ///
    /// Uses the standard hyper-rectangle splitting: peel off the part of
    /// `self` outside `other` one dimension at a time.
    ///
    /// # Panics
    /// Panics if either section is non-dense or dimensionalities differ.
    pub fn subtract_dense(&self, other: &Section) -> Vec<Section> {
        assert_eq!(
            self.ndims(),
            other.ndims(),
            "section dimensionality mismatch"
        );
        assert!(
            self.is_dense() && other.is_dense(),
            "subtract_dense requires dense sections"
        );
        if self.is_empty() {
            return Vec::new();
        }
        if !self.overlaps(other) {
            return vec![self.clone()];
        }
        if other.contains_section(self) {
            return Vec::new();
        }
        let mut pieces = Vec::with_capacity(2 * self.ndims());
        // `remaining` shrinks toward the overlap as we peel each dimension.
        let mut remaining = self.dims.clone();
        for d in 0..self.ndims() {
            let overlap = self.dims[d].intersect(&other.dims[d]);
            let (left, right) = remaining[d].subtract_dense(&overlap);
            for part in [left, right] {
                if !part.is_empty() {
                    let mut dims = remaining.clone();
                    dims[d] = part;
                    pieces.push(Section::new(dims.iter().copied()));
                }
            }
            remaining[d] = overlap;
        }
        pieces
    }
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Section::scalar();
        assert_eq!(s.element_count(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.ndims(), 0);
    }

    #[test]
    fn emptiness_canonicalization() {
        let s = Section::new(vec![Interval::dense(0, 5), Interval::empty()]);
        assert!(s.is_empty());
        assert!(s.dims().iter().all(Interval::is_empty));
        assert_eq!(s, Section::empty(2));
    }

    #[test]
    fn contains_point_2d() {
        let s = Section::dense(&[(0, 3), (2, 5)]);
        assert!(s.contains_point(&[0, 2]));
        assert!(s.contains_point(&[3, 5]));
        assert!(!s.contains_point(&[4, 2]));
        assert!(!s.contains_point(&[0, 1]));
    }

    #[test]
    fn intersect_2d() {
        let a = Section::dense(&[(0, 10), (0, 10)]);
        let b = Section::dense(&[(5, 15), (8, 20)]);
        let c = a.intersect(&b);
        assert_eq!(c, Section::dense(&[(5, 10), (8, 10)]));
        assert_eq!(c.element_count(), 6 * 3);
    }

    #[test]
    fn intersect_disjoint_in_one_dim_is_empty() {
        let a = Section::dense(&[(0, 10), (0, 3)]);
        let b = Section::dense(&[(0, 10), (4, 9)]);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn subtract_dense_interior_hole() {
        // 10x10 minus interior 4x4 leaves 100-16=84 elements in 4 pieces.
        let a = Section::dense(&[(0, 9), (0, 9)]);
        let b = Section::dense(&[(3, 6), (3, 6)]);
        let pieces = a.subtract_dense(&b);
        assert_eq!(pieces.len(), 4);
        let total: u64 = pieces.iter().map(Section::element_count).sum();
        assert_eq!(total, 84);
        // Pieces must be disjoint from b and from each other.
        for p in &pieces {
            assert!(!p.overlaps(&b));
        }
        for i in 0..pieces.len() {
            for j in (i + 1)..pieces.len() {
                assert!(!pieces[i].overlaps(&pieces[j]), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn subtract_dense_disjoint_returns_self() {
        let a = Section::dense(&[(0, 4), (0, 4)]);
        let b = Section::dense(&[(10, 14), (0, 4)]);
        let pieces = a.subtract_dense(&b);
        assert_eq!(pieces, vec![a]);
    }

    #[test]
    fn subtract_dense_covered_returns_nothing() {
        let a = Section::dense(&[(2, 4), (2, 4)]);
        let b = Section::dense(&[(0, 9), (0, 9)]);
        assert!(a.subtract_dense(&b).is_empty());
    }

    #[test]
    fn subtract_dense_edge_overlap() {
        // Strip off the left 3 columns.
        let a = Section::dense(&[(0, 9), (0, 9)]);
        let b = Section::dense(&[(0, 9), (0, 2)]);
        let pieces = a.subtract_dense(&b);
        let total: u64 = pieces.iter().map(Section::element_count).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn display_formats() {
        let s = Section::dense(&[(0, 3), (1, 7)]);
        assert_eq!(s.to_string(), "([0:3], [1:7])");
        assert_eq!(Section::empty(2).to_string(), "∅");
    }
}
