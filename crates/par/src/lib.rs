//! Deterministic data parallelism for offline fan-out.
//!
//! The evaluation sweeps, the cross-fleet matrix and `repro` — work whose
//! tasks each take milliseconds — run through [`par_map`]. A single
//! projection does not: its searches take about a microsecond each, less
//! than a hand-off to a helper costs, so `Grophecy::project` runs them on
//! the calling thread and `gpp-serve` never touches this pool.
//! [`par_map`] is a work-stealing map over an index range built on
//! `std::thread::scope` workers pulling index-chunked tasks from an atomic
//! cursor. No external crates, no unsafe, no persistent threads.
//!
//! # Determinism
//!
//! `par_map(n, f)` calls `f(i)` for every `i in 0..n` exactly once and
//! returns the results **in index order**, regardless of which worker
//! computed what and in which interleaving. As long as `f` is a pure
//! function of its index, the output is bit-identical to the serial loop
//! `(0..n).map(f).collect()` at any thread count. Callers keep their
//! *reductions* serial and index-ordered (the pool never reduces), so
//! float summation order can never drift between thread counts.
//!
//! # The global token pool
//!
//! One process-wide pool ([`Pool::global`]) owns `threads - 1` helper
//! tokens, where `threads` comes from the `GPP_THREADS` environment
//! variable (default: available parallelism; `1` forces the exact serial
//! code path everywhere). Every `par_map` region acquires as many tokens
//! as it can use and returns them when the region ends:
//!
//! * a lone big region gets every token — one large sweep saturates the
//!   machine;
//! * concurrent regions (e.g. a nested `par_map` inside a task) share the
//!   fixed budget, so the process never oversubscribes the machine no
//!   matter how work nests;
//! * the calling thread always participates, so a region that gets zero
//!   tokens degrades to the serial path instead of deadlocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on the thread count accepted from the environment — a
/// typo guard, not a real limit.
const MAX_THREADS: usize = 1024;

/// Process-wide thread-count override installed by [`set_threads`]
/// (0 = none; fall back to `GPP_THREADS` / available parallelism).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The `GPP_THREADS` environment value, read once.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("GPP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if (1..=MAX_THREADS).contains(&n) => n,
            _ => {
                eprintln!("gpp: ignoring invalid GPP_THREADS={v:?} (want 1..={MAX_THREADS})");
                default_threads()
            }
        },
        Err(_) => default_threads(),
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The effective thread count: [`set_threads`] override, else
/// `GPP_THREADS`, else the machine's available parallelism.
pub fn configured_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Overrides the thread count process-wide (tests, `--threads`).
/// `set_threads(1)` forces the exact serial code path; `set_threads(0)`
/// removes the override. Results are bit-identical at any setting.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Utilization counters of the global pool (for `gpp-serve` stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The configured thread count regions size themselves against.
    pub threads: usize,
    /// Workers (helpers + participating callers) running right now.
    pub busy_workers: usize,
    /// Total `f(i)` invocations executed through the pool, ever.
    pub tasks_executed: u64,
    /// Total parallel regions entered (serial fast paths included).
    pub parallel_regions: u64,
}

/// The global token pool. See the module docs for semantics.
pub struct Pool {
    /// Helper tokens currently on loan to running regions.
    outstanding: AtomicUsize,
    busy: AtomicUsize,
    tasks: AtomicU64,
    regions: AtomicU64,
}

impl Pool {
    /// The process-wide pool.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            outstanding: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            regions: AtomicU64::new(0),
        })
    }

    /// A point-in-time copy of the utilization counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: configured_threads(),
            busy_workers: self.busy.load(Ordering::Relaxed),
            tasks_executed: self.tasks.load(Ordering::Relaxed),
            parallel_regions: self.regions.load(Ordering::Relaxed),
        }
    }

    /// Borrows up to `want` helper tokens without blocking; returns the
    /// number granted (possibly 0 — the caller still runs its own work).
    fn acquire_helpers(&self, want: usize) -> usize {
        let budget = configured_threads().saturating_sub(1);
        let mut out = self.outstanding.load(Ordering::Relaxed);
        loop {
            let got = want.min(budget.saturating_sub(out));
            if got == 0 {
                return 0;
            }
            match self.outstanding.compare_exchange_weak(
                out,
                out + got,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return got,
                Err(seen) => out = seen,
            }
        }
    }

    fn release_helpers(&self, n: usize) {
        self.outstanding.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Chunk size for the atomic-cursor queue: small enough that workers
/// steal evenly when task costs vary, large enough that the cursor is
/// not contended for cheap tasks.
fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).clamp(1, 64)
}

/// Maps `f` over `0..n` in parallel on the global pool and returns the
/// results in index order. Bit-identical to `(0..n).map(f).collect()`
/// for pure `f`, at any thread count — see the module docs.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let pool = Pool::global();
    pool.regions.fetch_add(1, Ordering::Relaxed);
    if n <= 1 || configured_threads() <= 1 {
        return serial_map(pool, n, &f);
    }
    let helpers = pool.acquire_helpers((n - 1).min(configured_threads() - 1));
    if helpers == 0 {
        return serial_map(pool, n, &f);
    }

    let workers = helpers + 1;
    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(n, workers);
    let run_worker = |expect: usize| -> Vec<(usize, T)> {
        pool.busy.fetch_add(1, Ordering::Relaxed);
        let mut got: Vec<(usize, T)> = Vec::with_capacity(expect);
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for i in start..(start + chunk).min(n) {
                got.push((i, f(i)));
            }
        }
        pool.tasks.fetch_add(got.len() as u64, Ordering::Relaxed);
        pool.busy.fetch_sub(1, Ordering::Relaxed);
        got
    };

    let per_worker = n.div_ceil(workers);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(|| run_worker(per_worker)))
            .collect();
        // The caller is a worker too; placement happens by index, so the
        // interleaving of who computed what cannot affect the output.
        for (i, v) in run_worker(per_worker) {
            slots[i] = Some(v);
        }
        for h in handles {
            for (i, v) in h.join().expect("gpp-par worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    pool.release_helpers(helpers);
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// The exact serial code path (`GPP_THREADS=1`): a plain in-order loop.
fn serial_map<T, F: Fn(usize) -> T>(pool: &Pool, n: usize, f: &F) -> Vec<T> {
    pool.busy.fetch_add(1, Ordering::Relaxed);
    let out = (0..n).map(f).collect();
    pool.tasks.fetch_add(n as u64, Ordering::Relaxed);
    pool.busy.fetch_sub(1, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            set_threads(threads);
            let out = par_map(1000, |i| i * i);
            assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn float_results_are_bit_identical_to_serial() {
        // A float pipeline whose value depends on nothing but the index.
        let f = |i: usize| ((i as f64) * 1.000000007).sin() / (i as f64 + 0.1);
        let serial: Vec<f64> = (0..777).map(f).collect();
        for threads in [2, 5, 16] {
            set_threads(threads);
            let par = par_map(777, f);
            assert!(serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        set_threads(0);
    }

    #[test]
    fn nested_regions_share_the_budget_and_complete() {
        set_threads(4);
        let out = par_map(16, |i| {
            par_map(16, move |j| i * 16 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..16).map(|i| (0..16).map(|j| i * 16 + j).sum()).collect();
        assert_eq!(out, expect);
        set_threads(0);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn pool_counts_tasks() {
        let before = Pool::global().stats().tasks_executed;
        let _ = par_map(100, |i| i);
        let after = Pool::global().stats().tasks_executed;
        assert!(after >= before + 100);
        assert!(Pool::global().stats().threads >= 1);
    }

    #[test]
    fn chunking_covers_the_range() {
        for (n, w) in [(1, 1), (7, 3), (64, 2), (10_000, 8)] {
            let c = chunk_size(n, w);
            assert!((1..=64).contains(&c));
        }
    }
}
