//! The SoA batch projector — the transformation-search engine behind
//! [`crate::project::project_best`].
//!
//! Almost everything a candidate needs is invariant across the
//! block-geometry and unroll knobs: the access streams, shared-memory
//! traffic, barriers, and DRAM roofline depend *only* on whether reusable
//! loads are staged (see [`crate::transform::synthesize_transformed`]).
//! This module therefore synthesizes **once per staging class** (at most
//! twice per setup), folds each class into a small [`StagingAgg`] of
//! plain `f64`/integer aggregates, and precomputes the integer occupancy
//! and issue-cycle lanes of the whole candidate space. A search then runs
//! one pure-`f64` roofline pass and a masked index-ordered reduction over
//! those lanes.
//!
//! The precomputed setup lives in one process-wide search memo keyed by
//! (characteristics fingerprint, spec fingerprint), shared by every
//! thread, so a repeated search allocates nothing but the winner's name
//! `String`.
//!
//! # Bit-identity
//!
//! Every lane reproduces the scalar `project_inner` float expressions
//! *textually* — same associativity, same cast sites, same `clamp`/`max`
//! order — so an evaluated lane is bit-for-bit the scalar evaluation of
//! the same candidate, and the strict-minimum reduction in index order
//! picks exactly the candidate [`crate::project::project_all`] sorts
//! first. The determinism suites and the skeleton × machine proptests
//! hold the engine to that claim at every thread count.

use crate::occupancy::ModelOccupancy;
use crate::project::{KernelProjection, ProjectionBound, BARRIER_CYCLES};
use crate::spec::GpuSpec;
use crate::transform::{
    candidate_space, synthesize_transformed, CharsKey, SynthesizedKernel, Transformation, BASE_REGS,
};
use gpp_skeleton::KernelCharacteristics;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries the search memo holds before it is wiped (a safety valve for
/// unbounded what-if streams, not a tuning knob).
const MEMO_CAP: usize = 8192;

type MemoKey = (CharsKey, u64);
type Memo = Mutex<HashMap<MemoKey, Arc<SetupEntry>, BuildFnv>>;

/// FNV-1a for the memo map. The key is already two high-entropy
/// fingerprints, so SipHash's DoS resistance buys nothing here and costs
/// ~100 ns on every search.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

type BuildFnv = std::hash::BuildHasherDefault<FnvHasher>;

static MEMO: OnceLock<Memo> = OnceLock::new();
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the search memo since process start: one lookup
/// per [`crate::project::project_best`] call.
pub fn search_memo_stats() -> (u64, u64) {
    (
        MEMO_HITS.load(Ordering::Relaxed),
        MEMO_MISSES.load(Ordering::Relaxed),
    )
}

/// The memoized setup for `(chars, spec)`, built on a miss. The setup is
/// a pure function of the key, so a hit returns exactly what a miss
/// would build; two threads missing on one key both build it and the
/// later insert wins.
fn setup(
    chars: &KernelCharacteristics,
    chars_key: CharsKey,
    spec: &GpuSpec,
    consts: &KernelConsts,
) -> Arc<SetupEntry> {
    let key = (chars_key, spec_fingerprint(spec));
    let memo = MEMO.get_or_init(Default::default);
    if let Some(hit) = memo.lock().expect("search memo lock poisoned").get(&key) {
        MEMO_HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(build_entry(chars, spec, consts));
    let mut guard = memo.lock().expect("search memo lock poisoned");
    if guard.len() >= MEMO_CAP {
        guard.clear();
    }
    guard.insert(key, entry.clone());
    entry
}

/// One memoized search setup: everything `project_best_soa` derives from
/// `(chars, spec)` before the roofline arithmetic — the candidate space,
/// the per-staging-class aggregates, and the **static lanes**: per-
/// candidate issue cycles and occupancy, which depend only on the key.
/// All of it is a pure function of `(chars, spec)`, so a hit skips the
/// synthesis and integer passes and the search runs only the pure-`f64`
/// roofline lanes and the reduction.
struct SetupEntry {
    candidates: Vec<Transformation>,
    aggs: [Option<StagingAgg>; 2],
    /// Per-candidate `(slots + shared) * cpi * divergence + syncs *
    /// BARRIER_CYCLES` — the unroll-dependent issue cycles.
    warp_cycles: Vec<f64>,
    blocks_per_sm: Vec<u32>,
    /// `0` marks an unrunnable candidate (occupancy rules reject it).
    warps_per_sm: Vec<u32>,
}

/// FNV-1a over every field of the spec (the name included): any spec
/// that differs anywhere hashes differently, so a memo hit implies the
/// setup was computed from an identical spec.
fn spec_fingerprint(spec: &GpuSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for b in spec.name.bytes() {
        push(b as u64);
    }
    push(spec.sms as u64);
    push(spec.sps_per_sm as u64);
    push(spec.warp_size as u64);
    push(spec.clock_hz.to_bits());
    push(spec.mem_bw.to_bits());
    push(spec.bw_derate.to_bits());
    push(spec.mem_latency_cycles.to_bits());
    push(spec.segment_bytes as u64);
    push(spec.max_threads_per_sm as u64);
    push(spec.max_blocks_per_sm as u64);
    push(spec.max_threads_per_block as u64);
    push(spec.shared_per_sm as u64);
    push(spec.regs_per_sm as u64);
    push(spec.launch_overhead.to_bits());
    push(spec.misaligned_halfwarp_transactions.to_bits());
    h
}

/// Everything a lane needs that is constant across the whole search.
struct KernelConsts {
    /// `chars.weighted_ops_per_thread` — compute slots before unrolling.
    base_slots: f64,
    divergence: f64,
    cpi: f64,
    total_warps: f64,
    threads: u64,
    /// `sms_f * clock_hz`, the compute-bound denominator (a single
    /// product in the scalar path too, so pre-multiplying is exact).
    sm_clock: f64,
    sms_f: f64,
    clock_hz: f64,
    mem_latency_cycles: f64,
    launch_overhead: f64,
}

impl KernelConsts {
    fn of(chars: &KernelCharacteristics, spec: &GpuSpec) -> Self {
        let warp_size = spec.warp_size as f64;
        KernelConsts {
            base_slots: chars.weighted_ops_per_thread,
            divergence: 1.0 / chars.avg_active_fraction.clamp(1e-6, 1.0),
            cpi: spec.cycles_per_warp_inst(),
            total_warps: (chars.threads as f64 / warp_size).ceil(),
            threads: chars.threads,
            sm_clock: spec.sms as f64 * spec.clock_hz,
            sms_f: spec.sms as f64,
            clock_hz: spec.clock_hz,
            mem_latency_cycles: spec.mem_latency_cycles,
            launch_overhead: spec.launch_overhead,
        }
    }
}

/// Per-staging-class aggregates: one synthesis per class covers every
/// block size and unroll factor in that class (memory traffic, barriers,
/// and shared accesses are geometry-invariant).
struct StagingAgg {
    shared_accesses: f64,
    syncs_f: f64,
    /// Extra registers the cooperative fill costs (4 when anything is
    /// staged, matching `synthesize_transformed`).
    reg_bonus: u32,
    staged_groups: usize,
    tile_bytes: usize,
    mem_insts: f64,
    dram_bytes: f64,
    memory_time: f64,
}

impl StagingAgg {
    fn of(synth: &SynthesizedKernel, spec: &GpuSpec) -> Self {
        let bytes_per_thread = synth.global_bytes_per_thread(spec);
        let dram_bytes = synth.threads as f64 * bytes_per_thread;
        let memory_time = dram_bytes / spec.assumed_mem_bw();
        StagingAgg {
            shared_accesses: synth.shared_accesses,
            syncs_f: synth.syncs as f64,
            reg_bonus: if synth.staged_groups > 0 { 4 } else { 0 },
            staged_groups: synth.staged_groups,
            tile_bytes: synth.tile_bytes,
            mem_insts: synth.global_mem_insts(),
            dram_bytes,
            memory_time,
        }
    }
}

/// One synthesis per staging class present in the space, folded into
/// the per-class aggregates.
fn build_aggs(
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
    candidates: &[Transformation],
) -> [Option<StagingAgg>; 2] {
    let mut aggs: [Option<StagingAgg>; 2] = [None, None];
    for use_shared in [false, true] {
        if candidates.iter().any(|c| c.use_shared == use_shared) {
            let probe = Transformation {
                use_shared,
                unroll: 1,
                thread_axis: None,
                ..candidates[0]
            };
            let synth = synthesize_transformed(chars, probe);
            aggs[use_shared as usize] = Some(StagingAgg::of(&synth, spec));
        }
    }
    aggs
}

/// Builds the full search setup for `(chars, spec)`: candidate space,
/// per-class aggregates, and the static lanes — the per-lane resource and
/// occupancy rules `synthesize_transformed` + `ModelOccupancy::compute`
/// apply, derived from the class aggregates without re-synthesizing.
fn build_entry(chars: &KernelCharacteristics, spec: &GpuSpec, consts: &KernelConsts) -> SetupEntry {
    let candidates = candidate_space(chars, spec);
    let aggs = build_aggs(chars, spec, &candidates);
    let n = candidates.len();
    let mut warp_cycles = vec![0.0; n];
    let mut blocks_per_sm = vec![0u32; n];
    let mut warps_per_sm = vec![0u32; n];
    for (i, &c) in candidates.iter().enumerate() {
        let agg = aggs[c.use_shared as usize].as_ref().expect("class present");
        let mut slots = consts.base_slots;
        if c.unroll > 1 {
            slots *= 1.0 - 0.04 * (c.unroll as f64).log2();
        }
        let regs = BASE_REGS + 2 * (c.unroll as f64).log2() as u32 + agg.reg_bonus;
        let shared_per_block = if agg.staged_groups > 0 {
            (c.block_threads as f64 * agg.tile_bytes.max(4) as f64 * 1.3 * agg.staged_groups as f64)
                as u32
        } else {
            0
        };
        if let Some(occ) = ModelOccupancy::compute_parts(
            spec,
            c.block_threads,
            regs,
            shared_per_block,
            consts.threads,
        ) {
            blocks_per_sm[i] = occ.blocks_per_sm;
            warps_per_sm[i] = occ.warps_per_sm;
            warp_cycles[i] = (slots + agg.shared_accesses) * consts.cpi * consts.divergence
                + agg.syncs_f * BARRIER_CYCLES;
        }
    }
    SetupEntry {
        candidates,
        aggs,
        warp_cycles,
        blocks_per_sm,
        warps_per_sm,
    }
}

/// The roofline of runnable lane `i`: projected time and the dominating
/// bound, from the same expressions and comparisons as the scalar
/// `project_inner`.
fn roofline(entry: &SetupEntry, consts: &KernelConsts, i: usize) -> (f64, ProjectionBound) {
    let agg = entry.aggs[entry.candidates[i].use_shared as usize]
        .as_ref()
        .expect("class present");
    let warp_cycles = entry.warp_cycles[i];
    let compute_time = consts.total_warps * warp_cycles / consts.sm_clock;
    let critical_path = agg.mem_insts * consts.mem_latency_cycles + warp_cycles;
    let latency_time = consts.total_warps * critical_path
        / (entry.warps_per_sm[i] as f64 * consts.sms_f * consts.clock_hz);
    let exec = compute_time.max(agg.memory_time).max(latency_time);
    let bound = if exec == compute_time && compute_time >= agg.memory_time {
        ProjectionBound::Compute
    } else if exec == agg.memory_time {
        ProjectionBound::Memory
    } else {
        ProjectionBound::Latency
    };
    (exec + consts.launch_overhead, bound)
}

/// A search winner: `(lane, time, bound)`.
type Best = Option<(usize, f64, ProjectionBound)>;

/// The index-ordered strict minimum over the runnable lanes.
fn eval_entry(entry: &SetupEntry, consts: &KernelConsts) -> Best {
    let mut best: Best = None;
    for i in 0..entry.candidates.len() {
        if entry.warps_per_sm[i] == 0 {
            continue;
        }
        let (time, bound) = roofline(entry, consts, i);
        if best.is_none_or(|(_, bt, _)| time < bt) {
            best = Some((i, time, bound));
        }
    }
    best
}

/// The SoA search. The search memo supplies the static lanes (built on
/// a miss) and only the roofline arithmetic runs, serially on the calling
/// thread: one search takes about a microsecond, less than a hand-off to
/// another thread costs.
pub(crate) fn project_best_soa(
    name: &str,
    chars: &KernelCharacteristics,
    chars_key: CharsKey,
    spec: &GpuSpec,
) -> KernelProjection {
    let consts = KernelConsts::of(chars, spec);
    let entry = setup(chars, chars_key, spec, &consts);
    let (i, time, bound) = eval_entry(&entry, &consts).unwrap_or_else(|| {
        panic!("no runnable transformation for kernel `{name}` — block sizes exhausted")
    });
    let config = entry.candidates[i];
    let agg = entry.aggs[config.use_shared as usize]
        .as_ref()
        .expect("class present");
    KernelProjection {
        name: name.to_string(),
        config,
        time,
        bound,
        occupancy: ModelOccupancy {
            blocks_per_sm: entry.blocks_per_sm[i],
            warps_per_sm: entry.warps_per_sm[i],
        },
        dram_bytes: agg.dram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{project_all, project_best};
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    fn vadd_chars(n: u64) -> KernelCharacteristics {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[n as usize]);
        let c = p.array("c", ElemType::F32, &[n as usize]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", n);
        k.statement()
            .read(a, &[idx(i)])
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

    fn assert_matches_oracle(chars: &KernelCharacteristics, spec: &GpuSpec) {
        assert_eq!(
            format!("{:?}", project_best("add", chars, spec)),
            format!("{:?}", project_all("add", chars, spec).0),
            "spec {spec:?}"
        );
    }

    /// The search memo keys on the whole spec, is shared across threads,
    /// and a clear at the cap changes no answer.
    #[test]
    fn search_memo_keys_on_the_whole_spec_is_shared_and_survives_a_clear() {
        // Two specs that differ in one field never share an entry, in
        // either lookup order.
        let chars = vadd_chars(1 << 20);
        let base = GpuSpec::quadro_fx_5600();
        let derated = GpuSpec {
            bw_derate: base.bw_derate * 0.5,
            ..base.clone()
        };
        for spec in [&base, &derated, &derated, &base] {
            assert_matches_oracle(&chars, spec);
        }

        // A search on another thread hits the entry this thread built.
        let chars = vadd_chars((1 << 20) + 4096);
        let consts = KernelConsts::of(&chars, &base);
        let built = setup(&chars, CharsKey::of(&chars), &base, &consts);
        let (hits_before, _) = search_memo_stats();
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                project_best("add", &chars, &base);
                setup(&chars, CharsKey::of(&chars), &base, &consts)
            })
            .join()
            .unwrap()
        });
        assert!(
            Arc::ptr_eq(&built, &seen),
            "the other thread rebuilt the setup"
        );
        assert!(search_memo_stats().0 >= hits_before + 2);

        // Fill the memo to its cap with distinct specs; the next insert
        // clears it, and answers still equal the oracle's.
        let memo = MEMO.get().expect("memo in use");
        let mut k = 0u32;
        while memo.lock().unwrap().len() < MEMO_CAP {
            let spec = GpuSpec {
                launch_overhead: base.launch_overhead + f64::from(k) * 1e-9,
                ..base.clone()
            };
            project_best("add", &chars, &spec);
            k += 1;
        }
        let fresh = vadd_chars((1 << 20) + 8192);
        assert_matches_oracle(&fresh, &base);
        assert!(
            memo.lock().unwrap().len() < MEMO_CAP / 2,
            "no clear at the cap"
        );
        assert_matches_oracle(&chars, &base);
        assert_matches_oracle(&chars, &derated);
    }
}
