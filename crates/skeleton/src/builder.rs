//! Fluent construction of code skeletons.
//!
//! The builder mirrors how a GROPHECY++ user transcribes their CPU code:
//! declare the arrays, then for each candidate kernel describe its loop
//! nest, the array references of its body, and the arithmetic per
//! iteration. [`ProgramBuilder::build`] validates the result (index
//! dimensionality, loop references, trip counts) so malformed skeletons are
//! rejected at construction time rather than producing nonsense
//! projections.

use crate::expr::{AffineExpr, IndexExpr, LoopId};
use crate::ir::{
    ArrayDecl, ArrayRef, ElemType, Flops, Kernel, Loop, Program, Statement, TransferDecl,
    TransferKind,
};
use crate::validate::{validate, ValidationErrors};
use gpp_brs::{AccessKind, ArrayId};

/// Shorthand for the affine expression `1·loop + 0`, for use in index
/// lists: `&[idx(i), idx(j) + 1]`.
pub fn idx(loop_id: LoopId) -> AffineExpr {
    AffineExpr::var(loop_id)
}

/// Shorthand for a constant index.
pub fn cst(c: i64) -> AffineExpr {
    AffineExpr::constant(c)
}

/// Shorthand for a data-dependent (irregular) index.
pub fn irr() -> IndexExpr {
    IndexExpr::Irregular
}

/// Shorthand for a data-dependent index with locality: consecutive
/// threads land within `span` rows of each other.
pub fn irrb(span: u32) -> IndexExpr {
    IndexExpr::IrregularBounded(span)
}

/// Builds a [`Program`] incrementally.
pub struct ProgramBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    kernels: Vec<Kernel>,
    transfers: Vec<TransferDecl>,
}

impl ProgramBuilder {
    /// Starts a new program skeleton.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            arrays: Vec::new(),
            kernels: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// Declares a dense array and returns its id.
    pub fn array(&mut self, name: impl Into<String>, elem: ElemType, extents: &[usize]) -> ArrayId {
        self.declare(name.into(), elem, extents.to_vec(), false)
    }

    /// Declares a sparse/irregular array (CSR values, index vectors...).
    /// The data usage analyzer falls back to whole-array transfers for
    /// these unless hints narrow them (paper §III-B).
    pub fn sparse_array(
        &mut self,
        name: impl Into<String>,
        elem: ElemType,
        extents: &[usize],
    ) -> ArrayId {
        self.declare(name.into(), elem, extents.to_vec(), true)
    }

    /// Declares a device-side temporary: an array whose final contents
    /// never return to the host, so the analyzer skips its D2H transfer
    /// without needing a per-invocation `--temporary` hint.
    pub fn temporary_array(
        &mut self,
        name: impl Into<String>,
        elem: ElemType,
        extents: &[usize],
    ) -> ArrayId {
        let id = self.declare(name.into(), elem, extents.to_vec(), false);
        self.arrays[id.index()].temporary = true;
        id
    }

    /// Declares an array from owned parts.
    pub(crate) fn declare(
        &mut self,
        name: String,
        elem: ElemType,
        extents: Vec<usize>,
        sparse: bool,
    ) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            id,
            name,
            elem,
            extents,
            sparse,
            temporary: false,
        });
        id
    }

    /// Resolves a declared array id by name (for callers scheduling
    /// explicit transfers).
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().find(|a| a.name == name).map(|a| a.id)
    }

    /// Appends an explicit whole-array transfer at the current program
    /// position (after every kernel finished so far).
    pub fn transfer(&mut self, array: ArrayId, kind: TransferKind) {
        let pos = self.kernels.len();
        self.transfer_at(array, kind, pos);
    }

    /// Appends an explicit transfer at an explicit position (number of
    /// kernels preceding it). Positions must be non-decreasing across
    /// calls so the schedule stays in program order.
    pub fn transfer_at(&mut self, array: ArrayId, kind: TransferKind, pos: usize) {
        self.transfer_with(array, kind, pos, 0, 1);
    }

    /// [`ProgramBuilder::transfer_at`] with stream/pipelining annotations:
    /// `stream` 0 is the default synchronous stream, `chunks` 1 a single
    /// unchunked copy (see [`TransferDecl`]).
    pub fn transfer_with(
        &mut self,
        array: ArrayId,
        kind: TransferKind,
        pos: usize,
        stream: u32,
        chunks: u32,
    ) {
        self.transfers.push(TransferDecl {
            array,
            kind,
            pos,
            stream,
            chunks,
        });
    }

    /// Opens a kernel builder. Call [`KernelBuilder::finish`] to append the
    /// kernel to the program.
    pub fn kernel(&mut self, name: impl Into<String>) -> KernelBuilder<'_> {
        KernelBuilder {
            program: self,
            name: name.into(),
            loops: Vec::new(),
            statements: Vec::new(),
            gpu_compute_scale: 1.0,
            cpu_compute_scale: 1.0,
        }
    }

    /// Validates and produces the program. On failure, **every**
    /// structural problem is returned, not just the first.
    pub fn build(self) -> Result<Program, ValidationErrors> {
        let p = self.build_unchecked();
        validate(&p)?;
        Ok(p)
    }

    /// Produces the program without validating it. Used by tooling that
    /// wants to analyze malformed programs (the linter reports structural
    /// errors itself, with source spans).
    pub fn build_unchecked(self) -> Program {
        Program {
            name: self.name,
            arrays: self.arrays,
            kernels: self.kernels,
            transfers: self.transfers,
        }
    }
}

/// Builds one [`Kernel`]; created by [`ProgramBuilder::kernel`].
pub struct KernelBuilder<'p> {
    program: &'p mut ProgramBuilder,
    name: String,
    loops: Vec<Loop>,
    statements: Vec<Statement>,
    gpu_compute_scale: f64,
    cpu_compute_scale: f64,
}

impl<'p> KernelBuilder<'p> {
    /// Adds a parallel loop (iterations independent — GPU thread dimension).
    pub fn parallel_loop(&mut self, name: impl Into<String>, trip: u64) -> LoopId {
        self.add_loop(name, trip, true)
    }

    /// Adds a sequential loop (runs inside each GPU thread).
    pub fn serial_loop(&mut self, name: impl Into<String>, trip: u64) -> LoopId {
        self.add_loop(name, trip, false)
    }

    fn add_loop(&mut self, name: impl Into<String>, trip: u64, parallel: bool) -> LoopId {
        let id = LoopId(self.loops.len() as u32);
        self.loops.push(Loop {
            name: name.into(),
            trip,
            parallel,
        });
        id
    }

    /// Sets the GPU arithmetic expansion factor (see
    /// [`Kernel::gpu_compute_scale`]). Default 1.0.
    ///
    /// # Panics
    /// Panics if `scale < 1.0`.
    pub fn gpu_compute_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "gpu_compute_scale must be >= 1, got {scale}");
        self.gpu_compute_scale = scale;
    }

    /// Sets the CPU issue-efficiency scale (see
    /// [`Kernel::cpu_compute_scale`]). Default 1.0.
    ///
    /// # Panics
    /// Panics if `scale <= 0`.
    pub fn cpu_compute_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0,
            "cpu_compute_scale must be positive, got {scale}"
        );
        self.cpu_compute_scale = scale;
    }

    /// Opens a statement builder.
    pub fn statement(&mut self) -> StatementBuilder<'_, 'p> {
        StatementBuilder {
            kernel: self,
            refs: Vec::new(),
            flops: Flops::default(),
            active_fraction: 1.0,
        }
    }

    /// Appends the kernel to the program.
    pub fn finish(self) {
        self.program.kernels.push(Kernel {
            name: self.name,
            loops: self.loops,
            statements: self.statements,
            gpu_compute_scale: self.gpu_compute_scale,
            cpu_compute_scale: self.cpu_compute_scale,
        });
    }
}

/// Builds one [`Statement`]; created by [`KernelBuilder::statement`].
pub struct StatementBuilder<'k, 'p> {
    kernel: &'k mut KernelBuilder<'p>,
    refs: Vec<ArrayRef>,
    flops: Flops,
    active_fraction: f64,
}

impl StatementBuilder<'_, '_> {
    /// Adds a read of `array` at the given affine indices.
    pub fn read(mut self, array: ArrayId, index: &[AffineExpr]) -> Self {
        self.refs.push(ArrayRef {
            array,
            index: index.iter().cloned().map(IndexExpr::Affine).collect(),
            kind: AccessKind::Read,
        });
        self
    }

    /// Adds a write of `array` at the given affine indices.
    pub fn write(mut self, array: ArrayId, index: &[AffineExpr]) -> Self {
        self.refs.push(ArrayRef {
            array,
            index: index.iter().cloned().map(IndexExpr::Affine).collect(),
            kind: AccessKind::Write,
        });
        self
    }

    /// Adds a read with arbitrary (possibly irregular) indices.
    pub fn read_ix(self, array: ArrayId, index: &[IndexExpr]) -> Self {
        self.access(array, AccessKind::Read, index.to_vec())
    }

    /// Adds a write with arbitrary (possibly irregular) indices.
    pub fn write_ix(self, array: ArrayId, index: &[IndexExpr]) -> Self {
        self.access(array, AccessKind::Write, index.to_vec())
    }

    /// Adds a reference of either kind, taking its indices as they are.
    pub(crate) fn access(
        mut self,
        array: ArrayId,
        kind: AccessKind,
        index: Vec<IndexExpr>,
    ) -> Self {
        self.refs.push(ArrayRef { array, index, kind });
        self
    }

    /// Sets the arithmetic performed per execution.
    pub fn flops(mut self, flops: Flops) -> Self {
        self.flops = flops;
        self
    }

    /// Sets the fraction of iterations that execute the statement
    /// (models control-flow divergence; default 1.0).
    ///
    /// # Panics
    /// Panics if outside `(0, 1]`.
    pub fn active(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "active fraction must be in (0, 1], got {fraction}"
        );
        self.active_fraction = fraction;
        self
    }

    /// Appends the statement to the kernel.
    pub fn finish(self) {
        self.kernel.statements.push(Statement {
            refs: self.refs,
            flops: self.flops,
            active_fraction: self.active_fraction,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_valid_program() {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[1024]);
        let b = p.array("b", ElemType::F32, &[1024]);
        let c = p.array("c", ElemType::F32, &[1024]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", 1024);
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
        assert_eq!(prog.kernels.len(), 1);
        assert_eq!(prog.arrays.len(), 3);
        assert_eq!(prog.kernels[0].statements[0].refs.len(), 3);
        assert_eq!(prog.kernels[0].parallel_tasks(), 1024);
    }

    #[test]
    fn irregular_reads_via_read_ix() {
        let mut p = ProgramBuilder::new("spmv");
        let x = p.array("x", ElemType::F64, &[132]);
        let mut k = p.kernel("gather");
        let i = k.parallel_loop("i", 132);
        k.statement()
            .read_ix(x, &[irr()])
            .write(x, &[idx(i)])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        assert!(prog.kernels[0].statements[0].refs[0].is_irregular());
    }

    #[test]
    fn sparse_array_flag() {
        let mut p = ProgramBuilder::new("s");
        let v = p.sparse_array("vals", ElemType::F64, &[500]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(v, &[idx(i)]).finish();
        k.finish();
        let prog = p.build().unwrap();
        assert!(prog.array(v).sparse);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut p = ProgramBuilder::new("bad");
        let a = p.array("a", ElemType::F32, &[10, 10]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(a, &[idx(i)]).finish(); // 1 index for 2-D array
        k.finish();
        assert!(p.build().is_err());
    }

    #[test]
    fn zero_trip_rejected() {
        let mut p = ProgramBuilder::new("bad");
        let a = p.array("a", ElemType::F32, &[10]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 0);
        k.statement().read(a, &[idx(i)]).finish();
        k.finish();
        assert!(p.build().is_err());
    }

    #[test]
    #[should_panic(expected = "active fraction")]
    fn bad_active_fraction_panics() {
        let mut p = ProgramBuilder::new("bad");
        let a = p.array("a", ElemType::F32, &[10]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(a, &[idx(i)]).active(1.5).finish();
    }

    #[test]
    fn explicit_transfers_record_position() {
        let mut p = ProgramBuilder::new("xfer");
        let a = p.array("a", ElemType::F32, &[16]);
        let b = p.array("b", ElemType::F32, &[16]);
        assert_eq!(p.array_id("a"), Some(a));
        assert_eq!(p.array_id("nope"), None);
        p.transfer(a, TransferKind::HostToDevice); // pos 0
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 16);
        k.statement()
            .read(a, &[idx(i)])
            .write(b, &[idx(i)])
            .finish();
        k.finish();
        p.transfer(b, TransferKind::DeviceToHost); // pos 1
        let prog = p.build().unwrap();
        assert_eq!(prog.transfers.len(), 2);
        assert_eq!(prog.transfers[0].pos, 0);
        assert_eq!(prog.transfers[0].kind, TransferKind::HostToDevice);
        assert_eq!(prog.transfers[1].pos, 1);
        assert_eq!(prog.transfers[1].array, b);
    }

    #[test]
    fn helpers() {
        assert_eq!(idx(LoopId(2)).coeff(LoopId(2)), 1);
        assert_eq!(cst(9).offset, 9);
        assert!(irr().is_irregular());
    }
}
