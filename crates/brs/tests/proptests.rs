//! Property-based tests for the BRS algebra.
//!
//! These check the algebraic laws the data-usage analyzer relies on:
//! intersection exactness, exact disjoint-union counting for dense
//! sections, and, for strided ones, unions that lose no element and
//! subtractions of a set that remove none the set lacks.

use gpp_brs::{Interval, Section, SectionSet};
use proptest::prelude::*;

/// Strategy for arbitrary strided intervals over a small universe so that
/// brute-force enumeration stays cheap.
fn interval() -> impl Strategy<Value = Interval> {
    (0i64..40, 0i64..40, 1i64..6)
        .prop_map(|(lo, span, stride)| Interval::new(lo, lo + span, stride))
}

/// Strategy for dense 2-D sections.
fn dense_section2() -> impl Strategy<Value = Section> {
    ((0i64..20, 0i64..10), (0i64..20, 0i64..10))
        .prop_map(|((l0, s0), (l1, s1))| Section::dense(&[(l0, l0 + s0), (l1, l1 + s1)]))
}

/// Strategy for 2-D sections whose dimensions may be strided.
fn section2() -> impl Strategy<Value = Section> {
    ((0i64..20, 0i64..12, 1i64..5), (0i64..20, 0i64..12, 1i64..5)).prop_map(
        |((l0, s0, t0), (l1, s1, t1))| {
            Section::new([
                Interval::new(l0, l0 + s0, t0),
                Interval::new(l1, l1 + s1, t1),
            ])
        },
    )
}

/// Every point of the 40x40 universe the sections live in.
fn universe() -> impl Iterator<Item = [i64; 2]> {
    (0..40i64).flat_map(|x| (0..40i64).map(move |y| [x, y]))
}

fn members(i: &Interval) -> Vec<i64> {
    i.iter().collect()
}

proptest! {
    #[test]
    fn intersect_is_exact(a in interval(), b in interval()) {
        let c = a.intersect(&b);
        let sa = members(&a);
        let sb = members(&b);
        let expect: Vec<i64> = sa.iter().copied().filter(|x| sb.contains(x)).collect();
        prop_assert_eq!(members(&c), expect);
    }

    #[test]
    fn intersect_commutative(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn intersect_with_self_is_identity(a in interval()) {
        prop_assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn contains_interval_matches_membership(a in interval(), b in interval()) {
        let expect = members(&b).iter().all(|&x| a.contains(x));
        prop_assert_eq!(a.contains_interval(&b), expect);
    }

    #[test]
    fn count_matches_iteration(a in interval()) {
        prop_assert_eq!(a.count() as usize, members(&a).len());
    }

    #[test]
    fn section_intersect_exact(a in dense_section2(), b in dense_section2()) {
        let c = a.intersect(&b);
        let mut n = 0u64;
        for x in 0..40i64 {
            for y in 0..40i64 {
                if a.contains_point(&[x, y]) && b.contains_point(&[x, y]) {
                    n += 1;
                }
            }
        }
        prop_assert_eq!(c.element_count(), n);
    }

    #[test]
    fn subtract_dense_partitions(a in dense_section2(), b in dense_section2()) {
        // a = (a \ b) ⊎ (a ∩ b), all pieces disjoint.
        let pieces = a.subtract_dense(&b);
        let inter = a.intersect(&b);
        let total: u64 =
            pieces.iter().map(Section::element_count).sum::<u64>() + inter.element_count();
        prop_assert_eq!(total, a.element_count());
        for p in &pieces {
            prop_assert!(!p.overlaps(&b));
            prop_assert!(a.contains_section(p));
        }
        for i in 0..pieces.len() {
            for j in (i + 1)..pieces.len() {
                prop_assert!(!pieces[i].overlaps(&pieces[j]));
            }
        }
    }

    #[test]
    fn set_union_counts_exactly(sections in prop::collection::vec(dense_section2(), 1..6)) {
        let mut set = SectionSet::empty(2);
        for s in &sections {
            set.insert(s.clone());
        }
        let mut n = 0u64;
        for x in 0..40i64 {
            for y in 0..40i64 {
                if sections.iter().any(|s| s.contains_point(&[x, y])) {
                    n += 1;
                }
            }
        }
        prop_assert_eq!(set.element_count(), n);
    }

    #[test]
    fn set_insert_idempotent(s in dense_section2()) {
        let mut set = SectionSet::empty(2);
        set.insert(s.clone());
        let once = set.element_count();
        set.insert(s);
        prop_assert_eq!(set.element_count(), once);
    }

    #[test]
    fn set_subtract_then_count(a in dense_section2(), b in dense_section2()) {
        let mut set = SectionSet::from_section(a.clone());
        set.subtract_section(&b);
        let expect = a.element_count() - a.intersect(&b).element_count();
        prop_assert_eq!(set.element_count(), expect);
    }

    #[test]
    fn set_covers_iff_no_remainder(a in dense_section2(), b in dense_section2()) {
        let set = SectionSet::from_section(a.clone());
        let covered = set.covers(&b);
        let expect = a.contains_section(&b);
        prop_assert_eq!(covered, expect);
    }

    #[test]
    fn set_union_order_independent(
        sections in prop::collection::vec(dense_section2(), 1..5),
    ) {
        let mut fwd = SectionSet::empty(2);
        for s in &sections {
            fwd.insert(s.clone());
        }
        let mut rev = SectionSet::empty(2);
        for s in sections.iter().rev() {
            rev.insert(s.clone());
        }
        prop_assert_eq!(fwd.element_count(), rev.element_count());
    }

    #[test]
    fn strided_union_loses_no_element(sections in prop::collection::vec(section2(), 1..5)) {
        let mut set = SectionSet::empty(2);
        for s in &sections {
            set.insert(s.clone());
        }
        for p in universe() {
            if sections.iter().any(|s| s.contains_point(&p)) {
                prop_assert!(set.contains_point(&p), "{} lost {:?}", set, p);
            }
        }
        prop_assert!(set.element_count() >= sections.iter().map(Section::element_count).max().unwrap());
    }

    #[test]
    fn strided_subtract_removes_only_the_subtrahends_elements(
        a in prop::collection::vec(section2(), 1..4),
        b in prop::collection::vec(section2(), 1..4),
    ) {
        // The subtrahend holds the union of `b`, each strided section
        // widened to its box.
        let (mut set, mut cut) = (SectionSet::empty(2), SectionSet::empty(2));
        a.iter().for_each(|s| set.insert(s.clone()));
        b.iter().for_each(|s| cut.insert(s.clone()));
        let before = set.clone();
        set.subtract(&cut);
        for p in universe() {
            let kept = before.contains_point(&p) && !cut.contains_point(&p);
            prop_assert_eq!(set.contains_point(&p), kept, "{:?}", p);
        }
    }

    #[test]
    fn strided_covers_only_what_it_holds(
        a in prop::collection::vec(section2(), 1..4),
        b in section2(),
    ) {
        let mut set = SectionSet::empty(2);
        a.iter().for_each(|s| set.insert(s.clone()));
        if set.covers(&b) {
            for p in universe().filter(|p| b.contains_point(p)) {
                prop_assert!(set.contains_point(&p), "{} covers {} but lacks {:?}", set, b, p);
            }
        }
    }
}
