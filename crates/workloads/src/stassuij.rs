//! Stassuij: sparse-real × dense-complex matrix product from Green's
//! Function Monte Carlo.
//!
//! "Stassuij lies in the core of Green's Function Monte Carlo, which
//! performs Monte Carlo calculations for light nuclei. It multiplies a
//! 132×132 sparse matrix of real numbers with a 132×2048 dense matrix of
//! complex numbers. The sparse matrix is represented in CSR format with
//! three vectors." (§IV-B)
//!
//! The production matrix is proprietary (INCITE application); we generate
//! a seeded synthetic CSR matrix of the same shape and density class. The
//! values do not affect timing — only `nnz` does, and that is the
//! quantity the paper's sparse hint communicates to the analyzer.
//!
//! This is the paper's star witness: the kernel-only projection predicts
//! a 1.10× speedup, but transfers make the real outcome a 0.39× slowdown
//! (§V-B-4) — only the transfer-aware model gets the port/don't-port
//! verdict right.

use crate::par::{par_chunks, REFERENCE_THREADS};
use crate::WorkloadCase;
use gpp_datausage::Hints;
use gpp_skeleton::builder::{idx, irrb, ProgramBuilder};
use gpp_skeleton::{AffineExpr, ElemType, Flops, IndexExpr, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse matrix rows/cols.
pub const N: usize = 132;
/// Dense matrix columns.
pub const M: usize = 2048;

/// A CSR sparse matrix of real numbers.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row pointers, length `N + 1`.
    pub row_ptr: Vec<u32>,
    /// Column indices, length `nnz`.
    pub col_idx: Vec<u32>,
    /// Values, length `nnz`.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Synthetic N×N matrix with ~`avg_nnz_per_row` entries per row
    /// (seeded, banded-ish like a nuclear-structure operator).
    pub fn synthetic(avg_nnz_per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(N + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for r in 0..N {
            let k = rng
                .gen_range(avg_nnz_per_row / 2..=avg_nnz_per_row * 3 / 2)
                .max(1);
            let mut cols: Vec<u32> = (0..k)
                .map(|_| {
                    // Band-biased column choice.
                    let span = N / 4;
                    let lo = r.saturating_sub(span);
                    let hi = (r + span).min(N - 1);
                    rng.gen_range(lo..=hi) as u32
                })
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col_idx.push(c);
                vals.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr {
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Mean entries per row.
    pub fn avg_row_nnz(&self) -> f64 {
        self.nnz() as f64 / N as f64
    }
}

/// Complex number as (re, im) pairs; a dense matrix is row-major
/// `N × M` of these.
pub type C64 = (f64, f64);

/// `C += A · B` where A is `N×N` CSR real and B, C are `N×M` complex.
/// Sequential reference.
pub fn spmm_seq(a: &Csr, b: &[C64], c: &mut [C64]) {
    assert_eq!(b.len(), N * M);
    assert_eq!(c.len(), N * M);
    for r in 0..N {
        for k in a.row_ptr[r] as usize..a.row_ptr[r + 1] as usize {
            let col = a.col_idx[k] as usize;
            let v = a.vals[k];
            for j in 0..M {
                let (br, bi) = b[col * M + j];
                let t = &mut c[r * M + j];
                t.0 += v * br;
                t.1 += v * bi;
            }
        }
    }
}

/// `C += A · B`, parallel over rows of C (the OpenMP analogue).
pub fn spmm_par(a: &Csr, b: &[C64], c: &mut [C64]) {
    assert_eq!(b.len(), N * M);
    assert_eq!(c.len(), N * M);
    par_chunks(c, REFERENCE_THREADS, M, |start, chunk| {
        debug_assert_eq!(start % M, 0);
        let r0 = start / M;
        for (rk, row) in chunk.chunks_mut(M).enumerate() {
            let r = r0 + rk;
            for k in a.row_ptr[r] as usize..a.row_ptr[r + 1] as usize {
                let col = a.col_idx[k] as usize;
                let v = a.vals[k];
                for (j, t) in row.iter_mut().enumerate() {
                    let (br, bi) = b[col * M + j];
                    t.0 += v * br;
                    t.1 += v * bi;
                }
            }
        }
    });
}

/// Dense reference multiply for validation.
pub fn dense_reference(a: &Csr, b: &[C64]) -> Vec<C64> {
    // Expand A to dense, then naive triple loop.
    let mut ad = vec![0.0f64; N * N];
    for r in 0..N {
        for k in a.row_ptr[r] as usize..a.row_ptr[r + 1] as usize {
            ad[r * N + a.col_idx[k] as usize] += a.vals[k];
        }
    }
    let mut c = vec![(0.0, 0.0); N * M];
    for r in 0..N {
        for col in 0..N {
            let v = ad[r * N + col];
            if v == 0.0 {
                continue;
            }
            for j in 0..M {
                let (br, bi) = b[col * M + j];
                c[r * M + j].0 += v * br;
                c[r * M + j].1 += v * bi;
            }
        }
    }
    c
}

/// Seeded dense complex input.
pub fn synthetic_dense(seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N * M)
        .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// The Stassuij workload.
#[derive(Debug, Clone)]
pub struct Stassuij {
    /// The sparse operator.
    pub csr: Csr,
}

impl Stassuij {
    /// The paper's single configuration.
    pub fn paper() -> Self {
        Stassuij {
            csr: Csr::synthetic(5, 2013),
        }
    }

    /// Data-size label (the paper prints none; we use the shape).
    pub fn label(&self) -> String {
        format!("{N}x{N} x {N}x{M}")
    }

    /// The skeleton: one kernel, threads over (row, col) of C, serial loop
    /// over the row's nonzeros.
    ///
    /// Access-pattern notes: CSR metadata (`vals`, `col_idx`, `row_ptr`)
    /// is uniform across a warp (all threads of a warp share `r`), so it
    /// broadcasts; the gathered B row is coalesced along the thread axis
    /// `c` at a data-dependent row address (bounded by the operator's
    /// band). The complex-double arithmetic is costed with the heavy
    /// weights double emulation takes on a G80 (no native f64).
    pub fn program(&self) -> Program {
        let avg = self.csr.avg_row_nnz().round().max(1.0) as u64;
        let mut p = ProgramBuilder::new("stassuij");
        let b = p.array("b_dense", ElemType::C128, &[N, M]);
        let c = p.array("c_out", ElemType::C128, &[N, M]);
        let vals = p.sparse_array("csr_vals", ElemType::F64, &[self.csr.nnz()]);
        let cols = p.sparse_array("csr_col", ElemType::I32, &[self.csr.nnz()]);
        let ptr = p.sparse_array("csr_ptr", ElemType::I32, &[N + 1]);

        let mut k = p.kernel("spmm");
        // Double-precision complex arithmetic has no native path on a G80
        // (compute capability 1.0 has no f64 units): every flop expands
        // into a long emulation sequence.
        k.gpu_compute_scale(38.0);
        // The unit-stride complex inner loop vectorizes well on SSE2.
        k.cpu_compute_scale(0.45);
        let r = k.parallel_loop("r", N as u64);
        let cj = k.parallel_loop("c", M as u64);
        let kk = k.serial_loop("k", avg);

        // Row pointers: two broadcast loads per thread (start, end).
        k.statement()
            .read(ptr, &[idx(r)])
            .read(ptr, &[idx(r) + 1])
            .finish();

        // The nonzero loop: vals/col broadcast (warp-uniform,
        // data-dependent base — modeled as an affine walk of the sparse
        // stream, which the sparse flag already makes conservative for
        // sections), B gathered by column index, C accumulated in
        // registers then written once — but the paper's kernel re-reads C
        // to accumulate, so we model the read too.
        let warp_uniform = idx(r) * avg as i64 + idx(kk);
        k.statement()
            .read(vals, std::slice::from_ref(&warp_uniform))
            .read(cols, &[warp_uniform])
            .read_ix(
                b,
                &[irrb((N / 4) as u32), IndexExpr::Affine(AffineExpr::var(cj))],
            )
            .flops(Flops {
                adds: 4,
                muls: 4,
                ..Flops::default()
            })
            .finish();

        k.statement()
            .read(c, &[idx(r), idx(cj)])
            .write(c, &[idx(r), idx(cj)])
            .flops(Flops {
                adds: 4,
                ..Flops::default()
            })
            .active(1.0)
            .finish();

        k.finish();
        p.build().expect("stassuij skeleton is well-formed")
    }

    /// The paper's sparse hints: the analyzer would otherwise transfer
    /// whole allocations; the user bounds them by the actual nnz.
    pub fn hints(&self) -> Hints {
        let prog = self.program();
        let id = |name: &str| prog.array_by_name(name).expect("array exists").id;
        Hints::new()
            .sparse_bound(id("csr_vals"), self.csr.nnz() as u64 * 8)
            .sparse_bound(id("csr_col"), self.csr.nnz() as u64 * 4)
            .sparse_bound(id("csr_ptr"), (N as u64 + 1) * 4)
    }

    /// Bundles skeleton + hints as one evaluation case.
    pub fn case(&self) -> WorkloadCase {
        WorkloadCase {
            app: "Stassuij",
            dataset: self.label(),
            program: self.program(),
            hints: self.hints(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let s = Stassuij::paper();
        let b = synthetic_dense(5);
        let mut c1 = vec![(0.0, 0.0); N * M];
        let mut c2 = vec![(0.0, 0.0); N * M];
        spmm_seq(&s.csr, &b, &mut c1);
        spmm_par(&s.csr, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn matches_dense_reference() {
        let s = Stassuij::paper();
        let b = synthetic_dense(6);
        let mut c = vec![(0.0, 0.0); N * M];
        spmm_par(&s.csr, &b, &mut c);
        let reference = dense_reference(&s.csr, &b);
        for (x, y) in c.iter().zip(&reference) {
            assert!((x.0 - y.0).abs() < 1e-9 && (x.1 - y.1).abs() < 1e-9);
        }
    }

    #[test]
    fn accumulation_adds_onto_existing_c() {
        let s = Stassuij::paper();
        let b = synthetic_dense(7);
        let mut c = vec![(1.0, -1.0); N * M];
        spmm_par(&s.csr, &b, &mut c);
        let mut fresh = vec![(0.0, 0.0); N * M];
        spmm_par(&s.csr, &b, &mut fresh);
        for (x, y) in c.iter().zip(&fresh) {
            assert!((x.0 - (y.0 + 1.0)).abs() < 1e-9);
            assert!((x.1 - (y.1 - 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_shape_is_sane() {
        let csr = Csr::synthetic(5, 2013);
        assert_eq!(csr.row_ptr.len(), N + 1);
        assert_eq!(csr.col_idx.len(), csr.vals.len());
        assert!(csr.avg_row_nnz() >= 2.0 && csr.avg_row_nnz() <= 10.0);
        assert!(csr.col_idx.iter().all(|&c| (c as usize) < N));
        assert!(csr.row_ptr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn transfer_plan_matches_paper_shape() {
        // Paper Table I: input 8.5 MB, output 4.1 MB. Ours: B (4.3 MB) +
        // C (4.3 MB, read for accumulation) + CSR vectors in; C out.
        let s = Stassuij::paper();
        let plan = gpp_datausage::analyze(&s.program(), &s.hints());
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        assert!(
            (8.0..9.5).contains(&mb(plan.h2d_bytes())),
            "in {}",
            mb(plan.h2d_bytes())
        );
        assert!(
            (4.0..4.5).contains(&mb(plan.d2h_bytes())),
            "out {}",
            mb(plan.d2h_bytes())
        );
    }

    #[test]
    fn without_hints_sparse_fallback_is_conservative() {
        let s = Stassuij::paper();
        let with = gpp_datausage::analyze(&s.program(), &s.hints());
        let without = gpp_datausage::analyze(&s.program(), &Hints::new());
        // Whole allocations are transferred; with our synthetic nnz the
        // allocations equal nnz exactly, so sizes match, but only the
        // hints make the sparse arrays exact. `b_dense` is gathered at
        // data-dependent rows, so its upload is conservative either way.
        let exact = |plan: &gpp_datausage::TransferPlan, sparse: bool| {
            let prog = s.program();
            let mut ts = plan.all().filter(|t| prog.array(t.array).sparse == sparse);
            ts.all(|t| t.exact)
        };
        assert!(exact(&with, true));
        assert!(!exact(&without, true));
        let b_dense = |plan: &gpp_datausage::TransferPlan| {
            (plan.h2d.iter())
                .find(|t| t.name == "b_dense")
                .unwrap()
                .exact
        };
        assert!(!b_dense(&with) && !b_dense(&without));
        assert!(without.h2d_bytes() >= with.h2d_bytes());
    }

    #[test]
    fn skeleton_classifies_access_patterns() {
        use gpp_skeleton::CoalesceClass;
        let s = Stassuij::paper();
        let prog = s.program();
        let chars = prog.kernels[0].characteristics(&prog);
        let by_name = |name: &str| {
            let id = prog.array_by_name(name).unwrap().id;
            chars.accesses.iter().find(|a| a.array == id).unwrap().class
        };
        assert_eq!(by_name("csr_vals"), CoalesceClass::Broadcast);
        assert_eq!(by_name("csr_ptr"), CoalesceClass::Broadcast);
        assert_eq!(by_name("b_dense"), CoalesceClass::Coalesced);
        assert_eq!(by_name("c_out"), CoalesceClass::Coalesced);
    }
}
