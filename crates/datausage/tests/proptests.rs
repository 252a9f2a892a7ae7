//! Property tests for the data usage analyzer over randomly generated
//! kernel sequences. The umbrella crate's `tests/transfer_oracle.rs`
//! checks the plan's soundness element by element.

use gpp_datausage::{analyze, Hints};
use gpp_skeleton::builder::{idx, ProgramBuilder};
use gpp_skeleton::{ElemType, Program};
use proptest::prelude::*;

/// A tiny random program: up to 3 arrays of up to 64 elements, up to 3
/// kernels, each reading/writing random offset windows of random arrays.
fn random_program() -> impl Strategy<Value = Program> {
    let ref_strategy = (0usize..3, 0i64..16, any::<bool>());
    (
        1usize..4, // arrays
        prop::collection::vec(
            prop::collection::vec(ref_strategy, 1..5), // refs per kernel
            1..4,                                      // kernels
        ),
    )
        .prop_map(|(narrays, kernels)| {
            let mut p = ProgramBuilder::new("random");
            let ids: Vec<_> = (0..narrays)
                .map(|a| p.array(format!("a{a}"), ElemType::F32, &[64]))
                .collect();
            for (ki, refs) in kernels.into_iter().enumerate() {
                let mut k = p.kernel(format!("k{ki}"));
                let i = k.parallel_loop("i", 32);
                let mut s = k.statement();
                let mut wrote = false;
                for (arr, off, is_write) in refs {
                    let arr = ids[arr % ids.len()];
                    if is_write {
                        s = s.write(arr, &[idx(i) + off]);
                        wrote = true;
                    } else {
                        s = s.read(arr, &[idx(i) + off]);
                    }
                }
                // Ensure the kernel does something observable.
                if !wrote {
                    s = s.write(ids[0], &[idx(i)]);
                }
                s.finish();
                k.finish();
            }
            p.build().expect("random program is structurally valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transfer sizes never exceed the allocations.
    #[test]
    fn transfers_bounded_by_allocations(program in random_program()) {
        let plan = analyze(&program, &Hints::new());
        for t in plan.all() {
            prop_assert!(t.bytes <= program.array(t.array).byte_count());
        }
    }

    /// Hints are monotone: marking any array temporary never increases
    /// any transfer, and strictly removes it from the output set.
    #[test]
    fn temporary_hints_are_monotone(program in random_program(), victim in 0usize..3) {
        let base = analyze(&program, &Hints::new());
        let arrays: Vec<_> = program.arrays.iter().map(|a| a.id).collect();
        let victim = arrays[victim % arrays.len()];
        let hinted = analyze(&program, &Hints::new().temporary(victim));
        prop_assert!(hinted.d2h_bytes() <= base.d2h_bytes());
        prop_assert_eq!(hinted.h2d_bytes(), base.h2d_bytes());
        prop_assert!(hinted.d2h.iter().all(|t| t.array != victim));
    }

    /// Batching is byte-preserving and transfer-count-reducing.
    #[test]
    fn batching_invariants(program in random_program()) {
        let plan = analyze(&program, &Hints::new());
        let batched = plan.batched();
        prop_assert_eq!(batched.total_bytes(), plan.total_bytes());
        prop_assert!(batched.transfer_count() <= plan.transfer_count());
        prop_assert!(batched.transfer_count() <= 2);
    }

    /// The analyzer is deterministic.
    #[test]
    fn analysis_is_deterministic(program in random_program()) {
        let a = analyze(&program, &Hints::new());
        let b = analyze(&program, &Hints::new());
        prop_assert_eq!(a, b);
    }
}
