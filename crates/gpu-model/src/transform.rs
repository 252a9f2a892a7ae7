//! The transformation space GROPHECY explores.
//!
//! "With the code skeleton, GROPHECY is able to explore various code
//! transformations, synthesize performance characteristics for each
//! transformation, and then supply the characteristics to a GPU
//! performance model" (§II-C). We model the three transformations that
//! matter most on G80-class hardware:
//!
//! * **thread-block geometry** — trades occupancy against per-block
//!   resources,
//! * **shared-memory staging** — stencil-style reusable loads are staged
//!   into shared memory by the block cooperatively, converting redundant
//!   (and typically misaligned) global loads into cheap on-chip accesses
//!   at the price of shared-memory capacity, barriers, and a few extra
//!   registers,
//! * **unrolling** — removes loop bookkeeping at the price of registers.

use crate::spec::GpuSpec;
use gpp_skeleton::{CoalesceClass, KernelCharacteristics, MemAccessChar};

/// One candidate code transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transformation {
    /// Threads per block.
    pub block_threads: u32,
    /// Stage reusable loads through shared memory.
    pub use_shared: bool,
    /// Unroll factor of the per-thread serial loop (1 = none).
    pub unroll: u8,
    /// Loop-interchange choice: which parallel loop maps to consecutive
    /// thread IDs. `None` = the kernel's innermost parallel loop (the
    /// default mapping). The characteristics fed to
    /// [`synthesize_transformed`] must have been synthesized with this
    /// same axis.
    pub thread_axis: Option<gpp_skeleton::LoopId>,
}

impl std::fmt::Display for Transformation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Sequential conditional writes: formatting a candidate never
        // allocates (no `format!` temporaries for absent options), so
        // labels cost nothing until a winner is actually displayed.
        write!(f, "block={}", self.block_threads)?;
        if self.use_shared {
            f.write_str(", smem")?;
        }
        if self.unroll > 1 {
            write!(f, ", unroll={}", self.unroll)?;
        }
        if let Some(l) = self.thread_axis {
            write!(f, ", axis=i{}", l.0)?;
        }
        Ok(())
    }
}

/// Baseline per-thread register estimate for a skeleton-derived kernel.
pub const BASE_REGS: u32 = 10;

/// The smallest block size the search tries. On a spec that allows
/// blocks this large, every kernel's candidate space contains a
/// `MIN_BLOCK_THREADS` × [`BASE_REGS`] launch without shared memory, so a
/// spec that can run that launch can project any kernel.
pub const MIN_BLOCK_THREADS: u32 = 64;

/// Enumerates the candidate transformations for a kernel.
///
/// Shared-memory staging is only proposed when the kernel actually has
/// reusable loads; unrolling only when there is a serial loop to unroll.
pub fn candidate_space(chars: &KernelCharacteristics, spec: &GpuSpec) -> Vec<Transformation> {
    let mut out = Vec::new();
    let shared_options: &[bool] = if chars.sharable_load_fraction > 0.0 {
        &[false, true]
    } else {
        &[false]
    };
    let unroll_options: &[u8] = if chars.serial_iters > 1 {
        &[1, 2, 4]
    } else {
        &[1]
    };
    for &block_threads in &[MIN_BLOCK_THREADS, 128, 192, 256, 384, 512] {
        if block_threads > spec.max_threads_per_block {
            continue;
        }
        // Don't launch blocks larger than the whole grid — except the
        // smallest size, so even a grid of a few threads can launch.
        if block_threads > MIN_BLOCK_THREADS && (block_threads as u64) > chars.threads.max(1) * 2 {
            continue;
        }
        for &use_shared in shared_options {
            for &unroll in unroll_options {
                out.push(Transformation {
                    block_threads,
                    use_shared,
                    unroll,
                    thread_axis: None,
                });
            }
        }
    }
    out
}

/// The characteristics of a kernel *after* a transformation is applied —
/// what both the analytic projection and (via the core crate's lowering)
/// the measured implementation execute.
#[derive(Debug, Clone)]
pub struct SynthesizedKernel {
    /// The transformation applied.
    pub config: Transformation,
    /// Total GPU threads.
    pub threads: u64,
    /// Weighted ALU slots per thread (after unrolling savings).
    pub compute_slots: f64,
    /// Shared-memory accesses per thread (staged reads + cooperative
    /// fills).
    pub shared_accesses: f64,
    /// Remaining global access streams.
    pub global_ops: Vec<MemAccessChar>,
    /// Barriers per thread.
    pub syncs: u32,
    /// Mean active fraction (divergence).
    pub active_fraction: f64,
    /// Register demand per thread.
    pub regs_per_thread: u32,
    /// Shared memory per block, bytes.
    pub shared_per_block: u32,
    /// Number of reuse groups staged into shared memory (0 when staging
    /// is off or nothing qualified). Together with [`Self::tile_bytes`]
    /// this lets the SoA batch projector recompute `shared_per_block`
    /// for *other* block sizes without re-synthesizing.
    pub staged_groups: usize,
    /// Widest staged element size, bytes (0 when nothing is staged).
    pub tile_bytes: usize,
}

/// Applies a transformation to a kernel's characteristics.
pub fn synthesize_transformed(
    chars: &KernelCharacteristics,
    config: Transformation,
) -> SynthesizedKernel {
    let mut compute_slots = chars.weighted_ops_per_thread;
    let mut regs = BASE_REGS + 2 * (config.unroll as f64).log2() as u32;
    let mut shared_accesses = 0.0;
    let mut shared_per_block = 0u32;
    let mut syncs = 0u32;
    let mut global_ops = Vec::with_capacity(chars.accesses.len());

    if config.unroll > 1 {
        // Unrolling eliminates a fraction of loop bookkeeping.
        compute_slots *= 1.0 - 0.04 * (config.unroll as f64).log2();
    }

    // Reuse groups with at least two member loads get staged: every member
    // becomes a shared-memory access and the group is fetched once by a
    // cooperative tile fill.
    let staged_groups: std::collections::BTreeMap<u32, usize> = if config.use_shared {
        let mut sizes = std::collections::BTreeMap::new();
        for acc in &chars.accesses {
            if let Some(g) = acc.reuse_group {
                *sizes.entry(g).or_insert(0usize) += 1;
            }
        }
        sizes.retain(|_, &mut n| n >= 2);
        sizes
    } else {
        Default::default()
    };

    let mut tile_bytes = 0usize;
    let mut fill_aligned = true;
    for acc in &chars.accesses {
        let staged = acc
            .reuse_group
            .is_some_and(|g| staged_groups.contains_key(&g));
        if staged {
            // Served from shared memory after the cooperative fill.
            shared_accesses += acc.per_thread;
            tile_bytes = tile_bytes.max(acc.elem_bytes);
            // A stencil group with offset members forces the tile fill to
            // start at an offset row (the halo), so the fill itself is
            // misaligned on strict-coalescing hardware — the classic
            // unpadded-stencil penalty.
            fill_aligned &= acc.aligned;
        } else {
            global_ops.push(acc.clone());
        }
    }

    if !staged_groups.is_empty() {
        // One cooperative, coalesced, aligned tile fill per staged group:
        // ~1.15 loads per thread (the halo ring costs the extra 15%),
        // plus a barrier before use and one after.
        for _ in staged_groups.keys() {
            global_ops.push(MemAccessChar {
                array: gpp_skeleton::ArrayId(u32::MAX),
                kind: gpp_skeleton::AccessKind::Read,
                elem_bytes: tile_bytes.max(4),
                class: CoalesceClass::Coalesced,
                per_thread: 1.15,
                sharable: false,
                aligned: fill_aligned,
                reuse_group: None,
            });
        }
        syncs = 2;
        regs += 4;
        // Tile: one element per thread plus a ~30% halo ring, per group.
        shared_per_block = (config.block_threads as f64
            * tile_bytes.max(4) as f64
            * 1.3
            * staged_groups.len() as f64) as u32;
    }

    SynthesizedKernel {
        config,
        threads: chars.threads,
        compute_slots,
        shared_accesses,
        global_ops,
        syncs,
        active_fraction: chars.avg_active_fraction,
        regs_per_thread: regs,
        shared_per_block,
        staged_groups: staged_groups.len(),
        tile_bytes,
    }
}

/// A kernel's characteristics fingerprint: half of the search memo's
/// key. Computing it walks every access, so the search computes it once
/// per kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CharsKey(u128);

impl CharsKey {
    /// Fingerprints the characteristics.
    pub fn of(chars: &KernelCharacteristics) -> CharsKey {
        CharsKey(chars_fingerprint(chars))
    }

    /// The raw 128-bit fingerprint value. Stable across processes (the
    /// hash has no per-run seeding), so it doubles as a wire-observable
    /// identity: served `project` replies expose it in hex, and the
    /// gateway routes and coalesces on it.
    pub fn value(self) -> u128 {
        self.0
    }
}

/// A 128-bit structural fingerprint of a whole program: the per-kernel
/// characteristics fingerprints folded in kernel order (FNV-128 style).
/// Formatting-only differences between two skeleton texts produce the
/// same fingerprint; any structural change (shapes, accesses, kernel
/// order) changes it. This is the consistent-hash routing and
/// single-flight coalescing key used by `gpp gateway`.
pub fn program_fingerprint(program: &gpp_skeleton::Program) -> u128 {
    ProgramChars::of(program).fingerprint()
}

/// Every kernel's characteristics under its default thread axis, with
/// their fingerprints: what [`program_fingerprint`] folds and what the
/// default-axis search of each kernel starts from. A server synthesizes
/// them once per request and hands them to both.
pub struct ProgramChars {
    kernels: Vec<(KernelCharacteristics, CharsKey)>,
}

impl ProgramChars {
    /// Synthesizes and fingerprints every kernel of `program`.
    pub fn of(program: &gpp_skeleton::Program) -> ProgramChars {
        let kernels = program
            .kernels
            .iter()
            .map(|kernel| {
                let chars = kernel.characteristics(program);
                let key = CharsKey::of(&chars);
                (chars, key)
            })
            .collect();
        ProgramChars { kernels }
    }

    /// Kernel `k`'s default-axis characteristics and their fingerprint.
    pub fn kernel(&self, k: usize) -> (&KernelCharacteristics, CharsKey) {
        let (chars, key) = &self.kernels[k];
        (chars, *key)
    }

    /// The program's structural fingerprint (see [`program_fingerprint`]).
    pub fn fingerprint(&self) -> u128 {
        // FNV-128 offset basis / prime.
        let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        h = (h ^ self.kernels.len() as u128).wrapping_mul(PRIME);
        for (_, key) in &self.kernels {
            h = (h ^ key.value()).wrapping_mul(PRIME);
        }
        h
    }
}

/// A 128-bit structural fingerprint of the characteristics (two FNV-1a
/// streams over a canonical field encoding; the kernel name is excluded
/// so same-shape kernels share entries). Collisions would need both
/// 64-bit halves to collide on the same spec.
fn chars_fingerprint(chars: &KernelCharacteristics) -> u128 {
    // FNV-1a over whole 64-bit words, both streams folded in one pass
    // with no staging buffer — this runs once per transformation search,
    // but a search over a hot kernel is itself only microseconds.
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut push = |v: u64| {
        h1 = (h1 ^ v).wrapping_mul(0x100_0000_01b3);
        h2 = (h2 ^ v).wrapping_mul(0x100_0000_01b3);
    };
    push(chars.threads);
    push(chars.serial_iters);
    push(chars.flops_per_thread.to_bits());
    push(chars.weighted_ops_per_thread.to_bits());
    push(chars.avg_active_fraction.to_bits());
    push(chars.sharable_load_fraction.to_bits());
    push(chars.accesses.len() as u64);
    for a in &chars.accesses {
        push(a.array.0 as u64);
        push(a.kind.is_read() as u64);
        push(a.elem_bytes as u64);
        push(match a.class {
            CoalesceClass::Coalesced => 1,
            CoalesceClass::Broadcast => 2,
            CoalesceClass::Strided(s) => 0x100 + s as u64,
            CoalesceClass::Irregular => 3,
        });
        push(a.per_thread.to_bits());
        push(a.sharable as u64);
        push(a.aligned as u64);
        push(a.reuse_group.map_or(u64::MAX, |g| g as u64));
    }
    ((h1 as u128) << 64) | h2 as u128
}

impl SynthesizedKernel {
    /// Global bytes requested per thread (model view: useful bytes for
    /// streaming accesses, segment-wasteful for scattered ones).
    pub fn global_bytes_per_thread(&self, spec: &GpuSpec) -> f64 {
        let half = (spec.warp_size / 2) as f64;
        self.global_ops
            .iter()
            .map(|op| {
                let per_halfwarp = match op.class {
                    // Aligned coalesced accesses cost exactly their useful
                    // bytes; misaligned ones pay the documented
                    // per-transaction penalty of the target architecture.
                    CoalesceClass::Coalesced if op.aligned => half * op.elem_bytes as f64,
                    CoalesceClass::Coalesced => {
                        spec.misaligned_halfwarp_transactions.min(half) * spec.segment_bytes as f64
                    }
                    CoalesceClass::Broadcast => spec.segment_bytes as f64,
                    CoalesceClass::Strided(s) => (s as f64).min(half) * spec.segment_bytes as f64,
                    CoalesceClass::Irregular => half * spec.segment_bytes as f64,
                };
                op.per_thread * per_halfwarp / half
            })
            .sum()
    }

    /// Global memory instructions per thread.
    pub fn global_mem_insts(&self) -> f64 {
        self.global_ops.iter().map(|op| op.per_thread).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    fn stencil_chars() -> KernelCharacteristics {
        let mut p = ProgramBuilder::new("stencil");
        let n = 256usize;
        let a = p.array("in", ElemType::F32, &[n, n]);
        let b = p.array("out", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", (n - 2) as u64);
        let j = k.parallel_loop("j", (n - 2) as u64);
        k.statement()
            .read(a, &[idx(i), idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j)])
            .read(a, &[idx(i) + 1, idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j) + 2])
            .read(a, &[idx(i) + 2, idx(j) + 1])
            .write(b, &[idx(i) + 1, idx(j) + 1])
            .flops(Flops {
                adds: 6,
                muls: 4,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        prog.kernels[0].characteristics(&prog)
    }

    fn vadd_chars() -> KernelCharacteristics {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[1 << 20]);
        let b = p.array("b", ElemType::F32, &[1 << 20]);
        let c = p.array("c", ElemType::F32, &[1 << 20]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", 1 << 20);
        k.statement()
            .read(a, &[idx(i)])
            .read(b, &[idx(i)])
            .write(c, &[idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        prog.kernels[0].characteristics(&prog)
    }

    #[test]
    fn candidate_space_includes_shared_only_for_reuse() {
        let spec = GpuSpec::quadro_fx_5600();
        let stencil = candidate_space(&stencil_chars(), &spec);
        assert!(stencil.iter().any(|t| t.use_shared));
        let vadd = candidate_space(&vadd_chars(), &spec);
        assert!(!vadd.iter().any(|t| t.use_shared));
        // No serial loop in either: no unroll candidates.
        assert!(vadd.iter().all(|t| t.unroll == 1));
    }

    #[test]
    fn shared_staging_moves_loads_off_dram() {
        let chars = stencil_chars();
        let spec = GpuSpec::quadro_fx_5600();
        let plain = synthesize_transformed(
            &chars,
            Transformation {
                block_threads: 256,
                use_shared: false,
                unroll: 1,
                thread_axis: None,
            },
        );
        let staged = synthesize_transformed(
            &chars,
            Transformation {
                block_threads: 256,
                use_shared: true,
                unroll: 1,
                thread_axis: None,
            },
        );
        assert!(staged.global_bytes_per_thread(&spec) < plain.global_bytes_per_thread(&spec));
        assert!(staged.shared_accesses > 0.0);
        assert_eq!(staged.syncs, 2);
        assert!(staged.shared_per_block > 0);
        assert!(staged.regs_per_thread > plain.regs_per_thread);
    }

    #[test]
    fn unroll_trims_compute_and_costs_registers() {
        let chars = KernelCharacteristics {
            serial_iters: 8,
            ..stencil_chars()
        };
        let plain = synthesize_transformed(
            &chars,
            Transformation {
                block_threads: 128,
                use_shared: false,
                unroll: 1,
                thread_axis: None,
            },
        );
        let unrolled = synthesize_transformed(
            &chars,
            Transformation {
                block_threads: 128,
                use_shared: false,
                unroll: 4,
                thread_axis: None,
            },
        );
        assert!(unrolled.compute_slots < plain.compute_slots);
        assert!(unrolled.regs_per_thread > plain.regs_per_thread);
    }

    #[test]
    fn vadd_bytes_per_thread_is_exact() {
        let chars = vadd_chars();
        let spec = GpuSpec::quadro_fx_5600();
        let s = synthesize_transformed(
            &chars,
            Transformation {
                block_threads: 256,
                use_shared: false,
                unroll: 1,
                thread_axis: None,
            },
        );
        // 2 loads + 1 store of 4 B, all coalesced: 12 useful bytes.
        assert!((s.global_bytes_per_thread(&spec) - 12.0).abs() < 1e-12);
        assert_eq!(s.global_mem_insts(), 3.0);
    }

    #[test]
    fn display_mentions_options() {
        let t = Transformation {
            block_threads: 128,
            use_shared: true,
            unroll: 4,
            thread_axis: None,
        };
        let s = t.to_string();
        assert!(s.contains("128") && s.contains("smem") && s.contains("unroll=4"));
    }

    #[test]
    fn program_chars_are_what_the_default_axis_search_synthesizes() {
        let p = gpp_skeleton::text::parse(
            "program p\narray a f32 [64, 64]\narray b f32 [64, 64]\n\
             kernel k1\n  parallel i 64\n  parallel j 64\n  stmt adds=1\n    read a [j, i]\n    write b [i, j]\n\
             kernel k2\n  parallel i 64\n  serial t 4\n  stmt adds=1\n    read b [i, t]\n    write a [i, t]\n",
        )
        .unwrap();
        let chars = ProgramChars::of(&p);
        for (k, kernel) in p.kernels.iter().enumerate() {
            let (default, key) = chars.kernel(k);
            let axis = kernel.axis_candidates()[0];
            assert_eq!(*default, kernel.characteristics_with_axis(&p, axis));
            assert_eq!(key, CharsKey::of(default));
        }
        assert_eq!(chars.fingerprint(), program_fingerprint(&p));
    }
}
