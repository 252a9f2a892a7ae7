//! Heap allocations per `project` request, as budgets: a memo miss, a
//! text-index hit, and three of a miss's stages alone (the parse, lint
//! and the data-usage analysis), for every committed skeleton.
//! Each request runs on this thread (serving never enters the pool), so a
//! thread-local count sees all of its allocations.

use gpp_datausage::{analyze, Hints};
use gpp_lint::lint_program;
use gpp_serve::{ServeConfig, ServiceState};
use gpp_skeleton::text;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts this thread's allocations, then defers to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count is a const-initialized thread-local
// `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, and the
        // caller upholds `new_size`'s obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `f`.
fn count(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

/// A program that calibrates a seed without making the measured entry.
const WARM: &str = "program warm\narray a f32 [64]\nkernel k\n  parallel i 64\n  stmt adds=1\n    read a [i]\n    write a [i]\n";

/// (skeleton, text, memo miss, text-index hit, `parse_with_spans`,
/// `lint_program`, `analyze`): the most allocations (and reallocations)
/// each may make.
const BUDGETS: [(&str, &str, u64, u64, u64, u64, u64); 4] = [
    (
        "hotspot_1024",
        include_str!("../../../skeletons/hotspot_1024.gsk"),
        147,
        3,
        44,
        13,
        26,
    ),
    (
        "pipelined_vadd",
        include_str!("../../../skeletons/pipelined_vadd.gsk"),
        85,
        3,
        28,
        16,
        5,
    ),
    (
        "spmm_stassuij",
        include_str!("../../../skeletons/spmm_stassuij.gsk"),
        131,
        3,
        48,
        12,
        21,
    ),
    (
        "vector_add",
        include_str!("../../../skeletons/vector_add.gsk"),
        78,
        3,
        26,
        13,
        13,
    ),
];

#[test]
fn project_requests_stay_within_their_allocation_budgets() {
    gpp_par::set_threads(1);
    let mut over = Vec::new();
    for (name, skeleton, miss_budget, hit_budget, parse_budget, lint_budget, analyze_budget) in
        BUDGETS
    {
        let s = ServiceState::new(ServeConfig::default());
        // Seed 1 warms the per-machine and per-kernel memos; seed 2's
        // calibration comes from another program, so the measured request
        // misses the projection memo and nothing else.
        let warm = s.handle(&format!("gpp/1 project seed=1\n{skeleton}"), 0);
        assert!(warm.contains("\"cached\":false"), "{name}: {warm}");
        s.handle(&format!("gpp/1 project seed=2\n{WARM}"), 0);
        let payload = format!("gpp/1 project seed=2\n{skeleton}");
        let mut reply = String::new();
        let miss = count(|| reply = s.handle(&payload, 0));
        assert!(reply.contains("\"cached\":false"), "{name}: {reply}");
        let hit = count(|| reply = s.handle(&payload, 0));
        assert!(reply.contains("\"cached\":true"), "{name}: {reply}");
        let parse = count(|| {
            black_box(text::parse_with_spans(skeleton).unwrap());
        });
        let (program, map) = text::parse_with_spans(skeleton).unwrap();
        let hints = Hints::for_program(&program);
        let lint = count(|| {
            black_box(lint_program(&program, Some(&map), &hints));
        });
        let analysis = count(|| {
            black_box(analyze(&program, &hints));
        });
        println!(
            "{name}: miss {miss}, text-index hit {hit}, parse_with_spans {parse}, \
             lint_program {lint}, analyze {analysis}"
        );
        for (what, n, budget) in [
            ("memo miss", miss, miss_budget),
            ("text-index hit", hit, hit_budget),
            ("parse_with_spans", parse, parse_budget),
            ("lint_program", lint, lint_budget),
            ("analyze", analysis, analyze_budget),
        ] {
            if n > budget {
                over.push(format!("{name} {what}: {n} > {budget}"));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
