//! The core skeleton IR: arrays, loops, statements, kernels, programs.

use crate::expr::{IndexExpr, LoopId};
use gpp_brs::{AccessKind, ArrayId};
use serde::{Deserialize, Serialize};

/// Element types of modeled arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemType {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// Single-precision complex (two f32).
    C64,
    /// Double-precision complex (two f64) — Stassuij's dense matrix.
    C128,
}

impl ElemType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            ElemType::F32 | ElemType::I32 => 4,
            ElemType::F64 | ElemType::I64 | ElemType::C64 => 8,
            ElemType::C128 => 16,
        }
    }

    /// True for complex types (each flop counts double: real + imaginary).
    pub fn is_complex(self) -> bool {
        matches!(self, ElemType::C64 | ElemType::C128)
    }
}

/// Declaration of an array referenced by kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Identity within the program.
    pub id: ArrayId,
    /// Human-readable name (for reports).
    pub name: String,
    /// Element type.
    pub elem: ElemType,
    /// Extent per dimension (row-major).
    pub extents: Vec<usize>,
    /// True for irregular (e.g. CSR-indexed) arrays whose referenced
    /// sections cannot be bounded statically.
    pub sparse: bool,
    /// True for arrays declared as device-side temporaries: their
    /// contents never need to return to the host, so the data usage
    /// analyzer skips the D2H transfer (paper §III-B "hints"). Declaring
    /// it in the skeleton keeps the knowledge with the program instead of
    /// requiring a `--temporary` flag on every invocation.
    pub temporary: bool,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn element_count(&self) -> u64 {
        self.extents.iter().map(|&e| e as u64).product()
    }

    /// Total size in bytes.
    pub fn byte_count(&self) -> u64 {
        self.element_count() * self.elem.bytes() as u64
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.extents.len()
    }
}

/// One loop of a kernel's nest, outermost first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// Name for diagnostics (`i`, `j`, ...).
    pub name: String,
    /// Trip count (iterations), assumed to start at 0 with step 1.
    pub trip: u64,
    /// True if iterations are independent and may become GPU threads.
    pub parallel: bool,
}

/// Floating-point operation counts per innermost iteration of a statement.
///
/// Weighted according to G80-era instruction throughput when converted to
/// compute cycles: adds/muls are single-issue, divides and special functions
/// (sqrt, exp, pow) run on the SFU at a fraction of the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Flops {
    /// Additions / subtractions.
    pub adds: u32,
    /// Multiplications (and fused multiply-adds counted once).
    pub muls: u32,
    /// Divisions.
    pub divs: u32,
    /// Special-function ops: sqrt, exp, log, pow, sin...
    pub specials: u32,
    /// Comparisons / min / max / abs.
    pub compares: u32,
}

impl Flops {
    /// Raw flop count (each op = 1 flop; used for arithmetic-intensity
    /// reporting).
    pub fn total(&self) -> u64 {
        (self.adds + self.muls + self.divs + self.specials + self.compares) as u64
    }

    /// Throughput-weighted operation count: how many single-cycle
    /// instruction slots the statement occupies per thread. Divides cost
    /// ~8 slots and specials ~4 on G80-class hardware; compares 1.
    pub fn weighted(&self) -> f64 {
        self.adds as f64
            + self.muls as f64
            + 8.0 * self.divs as f64
            + 4.0 * self.specials as f64
            + self.compares as f64
    }

    /// Component-wise sum.
    pub fn plus(&self, o: &Flops) -> Flops {
        Flops {
            adds: self.adds + o.adds,
            muls: self.muls + o.muls,
            divs: self.divs + o.divs,
            specials: self.specials + o.specials,
            compares: self.compares + o.compares,
        }
    }
}

/// One array reference within a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayRef {
    /// Which array.
    pub array: ArrayId,
    /// One index expression per array dimension.
    pub index: Vec<IndexExpr>,
    /// Load or store.
    pub kind: AccessKind,
}

impl ArrayRef {
    /// True if any index is data-dependent.
    pub fn is_irregular(&self) -> bool {
        self.index.iter().any(IndexExpr::is_irregular)
    }
}

/// A statement: a bundle of array references plus arithmetic, executed once
/// per point of the surrounding loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Array references (reads and writes).
    pub refs: Vec<ArrayRef>,
    /// Arithmetic per execution.
    pub flops: Flops,
    /// Fraction of loop iterations that actually execute the statement
    /// (1.0 = unconditional). Models control-flow divergence: on a GPU,
    /// a warp pays for the statement if *any* lane is active, so divergent
    /// statements waste lanes.
    pub active_fraction: f64,
}

/// A computational kernel: a loop nest over statements.
///
/// Kernels are the unit of GPU offload; a [`Program`] is a sequence of
/// kernels with dataflow between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// Loop nest, outermost first. Parallel loops become the GPU thread
    /// grid; sequential loops run inside each thread.
    pub loops: Vec<Loop>,
    /// Statements in the innermost body.
    pub statements: Vec<Statement>,
    /// Architecture-specific arithmetic expansion on the GPU: how many
    /// native instruction slots one skeleton flop costs when the
    /// operations don't map 1:1 to GPU hardware (e.g. double-precision
    /// complex arithmetic software-emulated on a G80, which has no f64
    /// units). 1.0 for ordinary single-precision code. The CPU side is
    /// unaffected — it executes the raw flops natively.
    pub gpu_compute_scale: f64,
    /// CPU-side issue-efficiency scale relative to the scalar baseline
    /// (default 1.0). Below 1.0 for loops the host compiler vectorizes
    /// well (e.g. Stassuij's unit-stride complex SAXPY inner loop); a
    /// code skeleton carries this as part of its computation-intensity
    /// description.
    pub cpu_compute_scale: f64,
}

impl Kernel {
    /// Product of parallel-loop trip counts: the number of data-parallel
    /// tasks (GPU threads) available.
    pub fn parallel_tasks(&self) -> u64 {
        self.loops
            .iter()
            .filter(|l| l.parallel)
            .map(|l| l.trip)
            .product()
    }

    /// Product of sequential-loop trip counts: work per task.
    pub fn serial_iters(&self) -> u64 {
        self.loops
            .iter()
            .filter(|l| !l.parallel)
            .map(|l| l.trip)
            .product()
    }

    /// Total innermost-body executions.
    pub fn total_iterations(&self) -> u64 {
        self.loops.iter().map(|l| l.trip).product()
    }

    /// Raw flops across the whole kernel (weighted by active fractions).
    pub fn total_flops(&self) -> f64 {
        let per_iter: f64 = self
            .statements
            .iter()
            .map(|s| s.flops.total() as f64 * s.active_fraction)
            .sum();
        per_iter * self.total_iterations() as f64
    }

    /// The innermost *parallel* loop — the dimension GROPHECY maps to
    /// consecutive thread IDs, which determines coalescing.
    pub fn thread_axis(&self) -> Option<LoopId> {
        self.loops
            .iter()
            .enumerate()
            .rev()
            .find(|(_, l)| l.parallel)
            .map(|(i, _)| LoopId(i as u32))
    }

    /// The thread-axis choices a loop-interchange transformation may
    /// explore: every parallel loop, innermost (the default mapping)
    /// first.
    pub fn axis_candidates(&self) -> Vec<LoopId> {
        self.loops
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, l)| l.parallel)
            .map(|(i, _)| LoopId(i as u32))
            .collect()
    }

    /// Per-kernel performance characteristics (see
    /// [`crate::characteristics`]).
    pub fn characteristics(&self, program: &Program) -> crate::KernelCharacteristics {
        crate::characteristics::synthesize(self, program)
    }

    /// Characteristics with an explicit thread-axis choice (loop
    /// interchange).
    pub fn characteristics_with_axis(
        &self,
        program: &Program,
        axis: LoopId,
    ) -> crate::KernelCharacteristics {
        crate::characteristics::synthesize_with_axis(self, program, Some(axis))
    }
}

/// Direction of an explicit transfer directive (`h2d` / `d2h` in `.gsk`).
///
/// Kept in the skeleton crate (rather than reusing the analyzer's
/// direction type) so the IR stays dependency-free; `gpp-datausage` maps
/// between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferKind {
    /// Host → device upload (`h2d`).
    HostToDevice,
    /// Device → host download (`d2h`).
    DeviceToHost,
}

/// One explicit whole-array transfer in the kernel/transfer sequence.
///
/// Most skeletons carry no explicit transfers and let the data usage
/// analyzer derive the minimal plan (paper §III-B). A skeleton that spells
/// its schedule out with `h2d`/`d2h` directives is priced *as written*,
/// which is what lets `gpp lint`'s whole-program passes find cross-kernel
/// transfer waste and quantify the headroom of fixing it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferDecl {
    /// The array moved (whole allocation).
    pub array: ArrayId,
    /// Upload or download.
    pub kind: TransferKind,
    /// Number of kernels that execute before this transfer: 0 places it
    /// before the first kernel, `kernels.len()` after the last. Must be
    /// non-decreasing across `Program::transfers`.
    pub pos: usize,
    /// Stream the transfer is enqueued on. Stream 0 is the default
    /// synchronous stream: the transfer serializes with adjacent kernels.
    /// A non-zero stream (`stream N` or `async` in `.gsk`) declares the
    /// copy asynchronous — the projector overlaps it with the adjacent
    /// kernel and the linter treats same-position transfers on different
    /// streams as concurrent.
    pub stream: u32,
    /// Pipelining hint: number of chunks the copy is split into for
    /// double-buffering (`chunks=K` in `.gsk`). 1 = one unchunked copy.
    pub chunks: u32,
}

impl TransferDecl {
    /// True when the directive carries no stream/pipelining annotations —
    /// i.e. it behaves exactly like a pre-stream-semantics transfer.
    pub fn is_plain(&self) -> bool {
        self.stream == 0 && self.chunks <= 1
    }
}

/// A whole modeled application region: arrays plus an ordered sequence of
/// kernels (the part of the CPU code being considered for GPU offload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Application/region name.
    pub name: String,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Kernels in execution order.
    pub kernels: Vec<Kernel>,
    /// Explicit transfer schedule, in program order (empty = derived by
    /// the data usage analyzer).
    pub transfers: Vec<TransferDecl>,
}

impl Program {
    /// Looks up an array declaration.
    ///
    /// # Panics
    /// Panics if the id is out of range (a validation error upstream).
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Finds an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Finds a kernel by name.
    pub fn kernel_by_name(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Total bytes across all declared arrays.
    pub fn total_array_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayDecl::byte_count).sum()
    }

    /// True if the skeleton spells out its transfer schedule with
    /// `h2d`/`d2h` directives instead of leaving it to the analyzer.
    pub fn has_explicit_transfers(&self) -> bool {
        !self.transfers.is_empty()
    }

    /// True if any transfer carries a stream or pipelining annotation —
    /// the trigger for the event-timeline projection path. Annotation-free
    /// programs take the legacy scalar-sum path and project bit-identically
    /// to pre-stream-semantics builds.
    pub fn has_stream_annotations(&self) -> bool {
        self.transfers.iter().any(|t| !t.is_plain())
    }

    /// A 64-bit hash of everything the program says: names, types,
    /// extents, loops, arithmetic, references and the transfer schedule,
    /// with `f64` fields taken by their bits. Equal programs hash equal, so
    /// formatting-only variants of one skeleton share the value without
    /// being rendered back to text. Changing any one field changes the
    /// hash: each word enters through a step that is a bijection of the
    /// running state.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher(0xcbf2_9ce4_8422_2325);
        h.str(&self.name);
        h.word(self.arrays.len() as u64);
        for a in &self.arrays {
            h.str(&a.name);
            h.word(a.elem as u64 | (a.sparse as u64) << 8 | (a.temporary as u64) << 9);
            h.word(a.extents.len() as u64);
            for &e in &a.extents {
                h.word(e as u64);
            }
        }
        h.word(self.kernels.len() as u64);
        for k in &self.kernels {
            h.str(&k.name);
            h.word(k.gpu_compute_scale.to_bits());
            h.word(k.cpu_compute_scale.to_bits());
            h.word(k.loops.len() as u64);
            for l in &k.loops {
                h.str(&l.name);
                h.word(l.trip);
                h.word(l.parallel as u64);
            }
            h.word(k.statements.len() as u64);
            for st in &k.statements {
                let f = &st.flops;
                h.word(u64::from(f.adds) | u64::from(f.muls) << 32);
                h.word(u64::from(f.divs) | u64::from(f.specials) << 32);
                h.word(u64::from(f.compares));
                h.word(st.active_fraction.to_bits());
                h.word(st.refs.len() as u64);
                for r in &st.refs {
                    h.word(u64::from(r.array.0) | (r.kind.is_read() as u64) << 32);
                    h.word(r.index.len() as u64);
                    for ix in &r.index {
                        match ix {
                            IndexExpr::Irregular => h.word(0),
                            IndexExpr::IrregularBounded(span) => {
                                h.word(1);
                                h.word(u64::from(*span));
                            }
                            IndexExpr::Affine(e) => {
                                h.word(2);
                                h.word(e.offset as u64);
                                h.word(e.terms.len() as u64);
                                for &(l, c) in &e.terms {
                                    h.word(u64::from(l.0));
                                    h.word(c as u64);
                                }
                            }
                        }
                    }
                }
            }
        }
        h.word(self.transfers.len() as u64);
        for t in &self.transfers {
            h.word(u64::from(t.array.0) | (t.kind as u64) << 32);
            h.word(t.pos as u64);
            h.word(u64::from(t.stream) | u64::from(t.chunks) << 32);
        }
        h.0
    }
}

/// The running state of [`Program::content_hash`].
struct ContentHasher(u64);

impl ContentHasher {
    /// Folds in one word. Every step (xor, multiply by an odd constant,
    /// xor-shift) is invertible, so two states stay distinct.
    fn word(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    /// A string: its length, then its bytes eight at a time.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;

    fn simple_kernel() -> Kernel {
        Kernel {
            name: "k".into(),
            loops: vec![
                Loop {
                    name: "i".into(),
                    trip: 100,
                    parallel: true,
                },
                Loop {
                    name: "t".into(),
                    trip: 4,
                    parallel: false,
                },
                Loop {
                    name: "j".into(),
                    trip: 50,
                    parallel: true,
                },
            ],
            statements: vec![Statement {
                refs: vec![ArrayRef {
                    array: ArrayId(0),
                    index: vec![AffineExpr::var(LoopId(0)).into()],
                    kind: AccessKind::Read,
                }],
                flops: Flops {
                    adds: 2,
                    muls: 1,
                    ..Flops::default()
                },
                active_fraction: 0.5,
            }],
            gpu_compute_scale: 1.0,
            cpu_compute_scale: 1.0,
        }
    }

    #[test]
    fn elem_type_sizes() {
        assert_eq!(ElemType::F32.bytes(), 4);
        assert_eq!(ElemType::F64.bytes(), 8);
        assert_eq!(ElemType::C128.bytes(), 16);
        assert!(ElemType::C128.is_complex());
        assert!(!ElemType::F32.is_complex());
    }

    #[test]
    fn array_decl_counts() {
        let a = ArrayDecl {
            id: ArrayId(0),
            name: "x".into(),
            elem: ElemType::F64,
            extents: vec![10, 20],
            sparse: false,
            temporary: false,
        };
        assert_eq!(a.element_count(), 200);
        assert_eq!(a.byte_count(), 1600);
        assert_eq!(a.ndims(), 2);
    }

    #[test]
    fn flops_weighting() {
        let f = Flops {
            adds: 2,
            muls: 3,
            divs: 1,
            specials: 1,
            compares: 2,
        };
        assert_eq!(f.total(), 9);
        assert_eq!(f.weighted(), 2.0 + 3.0 + 8.0 + 4.0 + 2.0);
        let g = f.plus(&Flops {
            adds: 1,
            ..Flops::default()
        });
        assert_eq!(g.adds, 3);
    }

    #[test]
    fn kernel_task_counts() {
        let k = simple_kernel();
        assert_eq!(k.parallel_tasks(), 100 * 50);
        assert_eq!(k.serial_iters(), 4);
        assert_eq!(k.total_iterations(), 100 * 4 * 50);
    }

    #[test]
    fn kernel_total_flops_respects_active_fraction() {
        let k = simple_kernel();
        // 3 flops * 0.5 active * 20000 iterations
        assert_eq!(k.total_flops(), 3.0 * 0.5 * 20_000.0);
    }

    #[test]
    fn thread_axis_is_innermost_parallel() {
        let k = simple_kernel();
        assert_eq!(k.thread_axis(), Some(LoopId(2)));
        let serial = Kernel {
            name: "s".into(),
            loops: vec![Loop {
                name: "t".into(),
                trip: 5,
                parallel: false,
            }],
            statements: vec![],
            gpu_compute_scale: 1.0,
            cpu_compute_scale: 1.0,
        };
        assert_eq!(serial.thread_axis(), None);
    }

    #[test]
    fn program_lookups() {
        let p = Program {
            name: "app".into(),
            arrays: vec![ArrayDecl {
                id: ArrayId(0),
                name: "grid".into(),
                elem: ElemType::F32,
                extents: vec![8],
                sparse: false,
                temporary: false,
            }],
            kernels: vec![simple_kernel()],
            transfers: vec![],
        };
        assert_eq!(p.array(ArrayId(0)).name, "grid");
        assert!(p.array_by_name("grid").is_some());
        assert!(p.array_by_name("nope").is_none());
        assert!(p.kernel_by_name("k").is_some());
        assert_eq!(p.total_array_bytes(), 32);
        assert!(!p.has_explicit_transfers());
    }

    #[test]
    fn explicit_transfers_are_carried() {
        let p = Program {
            name: "app".into(),
            arrays: vec![ArrayDecl {
                id: ArrayId(0),
                name: "grid".into(),
                elem: ElemType::F32,
                extents: vec![8],
                sparse: false,
                temporary: false,
            }],
            kernels: vec![simple_kernel()],
            transfers: vec![
                TransferDecl {
                    array: ArrayId(0),
                    kind: TransferKind::HostToDevice,
                    pos: 0,
                    stream: 0,
                    chunks: 1,
                },
                TransferDecl {
                    array: ArrayId(0),
                    kind: TransferKind::DeviceToHost,
                    pos: 1,
                    stream: 1,
                    chunks: 4,
                },
            ],
        };
        assert!(p.has_explicit_transfers());
        assert_eq!(p.transfers[0].kind, TransferKind::HostToDevice);
        assert_eq!(p.transfers[1].pos, 1);
        // Annotation predicates see through to the stream/chunk fields.
        assert!(p.transfers[0].is_plain());
        assert!(!p.transfers[1].is_plain());
        assert!(p.has_stream_annotations());
    }
}
