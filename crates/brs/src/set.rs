//! Sets of bounded regular sections with exact union semantics for dense
//! sections.
//!
//! The paper's analysis needs the `UNION` of all read-but-not-written
//! sections (host→device traffic) and the `UNION` of all written sections
//! (device→host traffic), with exact element counts so that transfer sizes —
//! and hence transfer-time predictions — are correct. A single regular
//! section cannot represent an arbitrary union, so [`SectionSet`] maintains a
//! list of **pairwise-disjoint** sections and counts elements by summing.

use crate::section::Section;

/// A union of bounded regular sections over one array.
///
/// Invariant: the stored sections are dense and pairwise disjoint, so
/// [`element_count`](SectionSet::element_count) is an exact sum.
///
/// Inserting a **strided** section inserts its dense bounding box, a
/// superset (see the crate docs). The set keeps no record of that: what
/// a reference's section over-approximates is decided where the section
/// is made, and the caller carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionSet {
    ndims: usize,
    parts: Vec<Section>,
}

impl SectionSet {
    /// An empty set over arrays of `ndims` dimensions.
    pub fn empty(ndims: usize) -> Self {
        SectionSet {
            ndims,
            parts: Vec::new(),
        }
    }

    /// A set containing one section.
    pub fn from_section(s: Section) -> Self {
        let mut set = SectionSet::empty(s.ndims());
        set.insert(s);
        set
    }

    /// Dimensionality of member sections.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.ndims
    }

    /// The disjoint pieces making up the union.
    #[inline]
    pub fn parts(&self) -> &[Section] {
        &self.parts
    }

    /// True if no element is in the set.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Inserts a section, keeping parts disjoint (`UNION`).
    ///
    /// Dense sections are decomposed exactly. A strided section is widened
    /// to its dense bounding box first: the Havlak–Kennedy merge
    /// direction, a superset.
    pub fn insert(&mut self, s: Section) {
        assert_eq!(s.ndims(), self.ndims, "section dimensionality mismatch");
        if s.is_empty() {
            return;
        }
        let s = if s.is_dense() { s } else { densify(&s) };
        if !self.parts.iter().any(|p| p.overlaps(&s)) {
            self.parts.push(s);
            return;
        }
        // Insert s minus everything already present; pieces stay disjoint.
        let mut incoming = vec![s];
        for existing in &self.parts {
            subtract_each(&mut incoming, existing);
            if incoming.is_empty() {
                return;
            }
        }
        self.parts.extend(incoming);
    }

    /// Empties the set, keeping its storage for reuse.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    /// Unions another set into this one.
    pub fn union_with(&mut self, other: &SectionSet) {
        for p in &other.parts {
            self.insert(p.clone());
        }
    }

    /// Removes every element of the **dense** section `s` from the set.
    /// Exact.
    ///
    /// # Panics
    /// Panics if `s` is strided: removing its bounding box would remove
    /// elements `s` lacks.
    pub fn subtract_section(&mut self, s: &Section) {
        assert_eq!(s.ndims(), self.ndims, "section dimensionality mismatch");
        assert!(s.is_dense(), "subtract_section requires a dense section");
        if !s.is_empty() {
            subtract_each(&mut self.parts, s);
        }
    }

    /// Removes every element of `other` from the set. Exact: the parts of
    /// a set are dense.
    pub fn subtract(&mut self, other: &SectionSet) {
        for p in &other.parts {
            subtract_each(&mut self.parts, p);
        }
    }

    /// True if the point lies in the union.
    pub fn contains_point(&self, point: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains_point(point))
    }

    /// True if the whole section `s` is covered by the union.
    ///
    /// Implemented as `s \ set == ∅`; exact for dense `s`.
    pub fn covers(&self, s: &Section) -> bool {
        if s.is_empty() {
            return true;
        }
        if !s.is_dense() {
            // Conservative: only report covered if the bounding box is.
            return self.covers(&densify(s));
        }
        // Without allocating: a part holds all of `s`, or none meets it.
        if self.parts.iter().any(|p| p.contains_section(s)) {
            return true;
        }
        if !self.overlaps(s) {
            return false;
        }
        let mut rest = vec![s.clone()];
        for p in &self.parts {
            subtract_each(&mut rest, p);
            if rest.is_empty() {
                return true;
            }
        }
        false
    }

    /// True if `s` overlaps any element of the union. Exact.
    pub fn overlaps(&self, s: &Section) -> bool {
        self.parts.iter().any(|p| p.overlaps(s))
    }

    /// Exact element count.
    pub fn element_count(&self) -> u64 {
        self.parts.iter().map(Section::element_count).sum()
    }

    /// Byte count given the element width.
    pub fn byte_count(&self, elem_bytes: usize) -> u64 {
        self.element_count() * elem_bytes as u64
    }

    /// Number of disjoint pieces.
    pub fn piece_count(&self) -> usize {
        self.parts.len()
    }
}

impl std::fmt::Display for SectionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "∅");
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Replaces each of `pieces` (dense, non-empty) by its dense difference
/// with `cut`, in place and in order. A piece that `cut` misses stays as it
/// is, without being copied.
fn subtract_each(pieces: &mut Vec<Section>, cut: &Section) {
    let mut i = 0;
    while i < pieces.len() {
        if !pieces[i].overlaps(cut) {
            i += 1;
            continue;
        }
        let rest = pieces[i].subtract_dense(cut);
        let n = rest.len();
        pieces.splice(i..=i, rest);
        i += n;
    }
}

/// Dense bounding box of a (possibly strided) section.
fn densify(s: &Section) -> Section {
    Section::new(s.dims().iter().map(|d| {
        if d.is_empty() {
            crate::Interval::empty()
        } else {
            crate::Interval::dense(d.lo(), d.hi())
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(b: &[(i64, i64)]) -> Section {
        Section::dense(b)
    }

    #[test]
    fn empty_set() {
        let s = SectionSet::empty(2);
        assert!(s.is_empty());
        assert_eq!(s.element_count(), 0);
        assert_eq!(s.to_string(), "∅");
    }

    #[test]
    fn insert_disjoint_sums() {
        let mut s = SectionSet::empty(1);
        s.insert(sec(&[(0, 9)]));
        s.insert(sec(&[(20, 29)]));
        assert_eq!(s.element_count(), 20);
        assert_eq!(s.piece_count(), 2);
    }

    #[test]
    fn insert_overlapping_counts_once() {
        let mut s = SectionSet::empty(1);
        s.insert(sec(&[(0, 9)]));
        s.insert(sec(&[(5, 14)]));
        assert_eq!(s.element_count(), 15);
    }

    #[test]
    fn insert_contained_is_noop() {
        let mut s = SectionSet::empty(2);
        s.insert(sec(&[(0, 9), (0, 9)]));
        s.insert(sec(&[(2, 4), (3, 7)]));
        assert_eq!(s.element_count(), 100);
        assert_eq!(s.piece_count(), 1);
    }

    #[test]
    fn overlapping_2d_union_exact() {
        // Two 10x10 squares overlapping in a 5x5 corner: 100+100-25.
        let mut s = SectionSet::empty(2);
        s.insert(sec(&[(0, 9), (0, 9)]));
        s.insert(sec(&[(5, 14), (5, 14)]));
        assert_eq!(s.element_count(), 175);
    }

    #[test]
    fn three_way_union_brute_force() {
        let boxes = [
            sec(&[(0, 6), (0, 6)]),
            sec(&[(4, 10), (2, 8)]),
            sec(&[(2, 12), (5, 5)]),
        ];
        let mut s = SectionSet::empty(2);
        for b in &boxes {
            s.insert(b.clone());
        }
        // Brute-force count over the bounding grid.
        let mut n = 0u64;
        for x in 0..=12i64 {
            for y in 0..=8i64 {
                if boxes.iter().any(|b| b.contains_point(&[x, y])) {
                    n += 1;
                }
            }
        }
        assert_eq!(s.element_count(), n);
    }

    #[test]
    fn subtract_section_exact() {
        let mut s = SectionSet::from_section(sec(&[(0, 9), (0, 9)]));
        s.subtract_section(&sec(&[(0, 9), (0, 4)]));
        assert_eq!(s.element_count(), 50);
        s.subtract_section(&sec(&[(0, 4), (0, 9)]));
        assert_eq!(s.element_count(), 25);
    }

    #[test]
    fn covers_detects_full_coverage_across_pieces() {
        let mut s = SectionSet::empty(1);
        s.insert(sec(&[(0, 4)]));
        s.insert(sec(&[(5, 9)]));
        assert!(s.covers(&sec(&[(2, 7)])));
        assert!(!s.covers(&sec(&[(8, 12)])));
        assert!(s.covers(&Section::empty(1)));
    }

    #[test]
    fn union_with_merges_sets() {
        let mut a = SectionSet::from_section(sec(&[(0, 9)]));
        let b = SectionSet::from_section(sec(&[(5, 19)]));
        a.union_with(&b);
        assert_eq!(a.element_count(), 20);
    }

    #[test]
    fn strided_insert_widens_to_its_box() {
        let strided = Section::new(vec![crate::Interval::new(0, 98, 2)]);
        let mut s = SectionSet::empty(1);
        s.insert(strided);
        // Upper bound: the bounding box has 99 elements, the section 50.
        assert_eq!(s.element_count(), 99);
    }

    #[test]
    #[should_panic(expected = "requires a dense section")]
    fn strided_subtract_section_panics() {
        let mut s = SectionSet::from_section(sec(&[(0, 99)]));
        s.subtract_section(&Section::new(vec![crate::Interval::new(0, 98, 2)]));
    }

    #[test]
    fn contains_point_across_pieces() {
        let mut s = SectionSet::empty(1);
        s.insert(sec(&[(0, 2)]));
        s.insert(sec(&[(10, 12)]));
        assert!(s.contains_point(&[1]));
        assert!(s.contains_point(&[11]));
        assert!(!s.contains_point(&[5]));
    }

    #[test]
    fn scalar_sections_behave_as_single_elements() {
        let mut s = SectionSet::empty(0);
        s.insert(Section::scalar());
        assert_eq!(s.element_count(), 1);
        s.insert(Section::scalar()); // idempotent: same single point
        assert_eq!(s.element_count(), 1);
        assert!(s.covers(&Section::scalar()));
        s.subtract_section(&Section::scalar());
        assert!(s.is_empty());
    }

    #[test]
    fn overlaps_across_pieces() {
        let mut s = SectionSet::empty(1);
        s.insert(sec(&[(0, 4)]));
        s.insert(sec(&[(10, 14)]));
        assert!(s.overlaps(&sec(&[(3, 11)])));
        assert!(!s.overlaps(&sec(&[(5, 9)])));
    }

    #[test]
    fn insert_empty_is_noop() {
        let mut s = SectionSet::empty(3);
        s.insert(Section::empty(3));
        assert!(s.is_empty());
    }
}
