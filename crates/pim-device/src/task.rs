//! The `PimTask` programming interface (paper §IV-D, Figure 16).
//!
//! A task collects matrix operands and operations, then — at `run()` time,
//! once the whole computation graph is known — chooses placement, lowers
//! every operation to rounds of Vector Processing Commands with the
//! configured `distribute`/`unblock` optimizations, prices the schedule on
//! the device, and computes the functional results.
//!
//! ## Lowering rules (validated against the paper's Table IV)
//!
//! * **MatMul** `C = A·B` — one round per column `j` of `B`: broadcast
//!   `B_j` once per PIM bank (the bank-internal bus reaches all its
//!   subarrays), one `MUL` per row of `A`, one scalar collect per result.
//!   `#PIM = m·n`, `#move ≈ m·n` — matching Table IV's gemm/syrk/syr2k
//!   counts exactly.
//! * **MatVec** `y = A·x` — the operand (or, for chained kernels, the
//!   scattered intermediate it was produced from) is staged per dot
//!   product: one operand `TRAN` + one collect per `MUL`, i.e. `#move ≈
//!   2·#PIM`, matching Table IV's atax/bicg/mvt counts.
//! * **MatAdd / ScalarMul** — row-wise `ADD`/`SMUL` commands; `ADD` pays an
//!   operand alignment move and a collect, `SMUL` scales in place and pays
//!   only the collect.

use crate::device::StreamPim;
use crate::error::PimError;
use crate::instruments::Instruments;
use crate::matrix::Matrix;
use crate::placement::Placement;
use crate::report::ExecReport;
use crate::schedule::{Round, Schedule};
use crate::vpc::{VecRef, Vpc};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Handle to a matrix registered with a [`PimTask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatHandle(usize);

impl MatHandle {
    /// The handle's index within its task.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A matrix operation offloaded to StreamPIM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixOp {
    /// `dst = a · b`.
    MatMul {
        /// Left operand.
        a: MatHandle,
        /// Right operand.
        b: MatHandle,
        /// Destination.
        dst: MatHandle,
    },
    /// `dst = a · x` where `x` (and `dst`) are column vectors.
    MatVec {
        /// Matrix operand.
        a: MatHandle,
        /// Vector operand (n×1).
        x: MatHandle,
        /// Destination vector (m×1).
        dst: MatHandle,
    },
    /// `dst = a + b` (element-wise).
    MatAdd {
        /// First operand.
        a: MatHandle,
        /// Second operand.
        b: MatHandle,
        /// Destination.
        dst: MatHandle,
    },
    /// `dst = alpha * a`.
    ScalarMul {
        /// Scalar factor.
        alpha: i64,
        /// Matrix operand.
        a: MatHandle,
        /// Destination.
        dst: MatHandle,
    },
    /// Fused `dst = alpha * a + beta * b`.
    ///
    /// Lowered as two row-wise `SMUL` passes; the addition folds into the
    /// second pass because the RM processor's circle adder accumulates the
    /// freshly scaled row onto the previously scaled one before writing
    /// back — one of the intermediate-result eliminations the customized
    /// processor enables (paper §III-C).
    Axpby {
        /// Factor on `a`.
        alpha: i64,
        /// First operand.
        a: MatHandle,
        /// Factor on `b`.
        beta: i64,
        /// Second operand.
        b: MatHandle,
        /// Destination.
        dst: MatHandle,
    },
}

/// The result of running a task: functional outputs plus the execution
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    matrices: Vec<Matrix>,
    /// Timing/energy report from the execution engine.
    pub report: ExecReport,
    /// The schedule that was priced (for inspection and tests).
    pub schedule: Schedule,
}

impl TaskOutcome {
    /// The final contents of a task matrix.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownMatrix`] for a foreign handle.
    pub fn matrix(&self, handle: MatHandle) -> Result<&Matrix> {
        self.matrices
            .get(handle.0)
            .ok_or(PimError::UnknownMatrix { handle: handle.0 })
    }
}

/// A shape-only view of a task: matrix dimensions plus operations, with no
/// element data.
///
/// Lowering depends only on operand shapes, so a `ShapeTask` produces a
/// [`Schedule`] **identical** to the [`PimTask`] it mirrors — `PimTask::lower`
/// delegates here, making this the single source of truth for lowering. The
/// runtime's incremental re-pricing path uses it to price a near-miss request
/// (same computation graph, different dimensions) without allocating the
/// matrices or cloning element data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeTask {
    shapes: Vec<(usize, usize)>,
    ops: Vec<MatrixOp>,
}

impl ShapeTask {
    /// Creates an empty shape task.
    pub fn new() -> Self {
        ShapeTask::default()
    }

    /// Registers a matrix by shape alone.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` to mirror
    /// [`PimTask::add_matrix`].
    pub fn add_shape(&mut self, rows: usize, cols: usize) -> Result<MatHandle> {
        self.shapes.push((rows, cols));
        Ok(MatHandle(self.shapes.len() - 1))
    }

    /// Appends an operation, with the same shape checking as
    /// [`PimTask::add_operation`].
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownMatrix`] for foreign handles or
    /// [`PimError::ShapeMismatch`] for incompatible operand shapes.
    pub fn add_operation(&mut self, op: MatrixOp) -> Result<()> {
        check_op_shapes(&self.shapes, op)?;
        self.ops.push(op);
        Ok(())
    }

    /// Number of queued operations.
    pub fn operation_count(&self) -> usize {
        self.ops.len()
    }

    /// The registered shapes, in handle order.
    pub fn shapes(&self) -> &[(usize, usize)] {
        &self.shapes
    }

    /// Lowers the task to a schedule for `device`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if no operations were added.
    pub fn lower(&self, device: &StreamPim) -> Result<Schedule> {
        if self.ops.is_empty() {
            return Err(PimError::EmptyTask);
        }
        let cfg = device.config();
        let mut placement = Placement::new(cfg.opt.placement(), &cfg.device);
        let ids: Vec<usize> = self
            .shapes
            .iter()
            .map(|&(r, c)| placement.register_matrix(r as u32, c as u32))
            .collect();
        let banks = cfg.device.pim_banks.max(1);
        let mut schedule = Schedule::new();
        for &op in &self.ops {
            self.lower_op(op, &placement, &ids, banks, &mut schedule);
        }
        Ok(schedule)
    }

    /// Lowers and prices the task on `device` without functional execution.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if no operations were added.
    pub fn price(&self, device: &StreamPim) -> Result<ExecReport> {
        Ok(device.execute(&self.lower(device)?, &Instruments::NONE))
    }

    fn lower_op(
        &self,
        op: MatrixOp,
        placement: &Placement,
        ids: &[usize],
        banks: u32,
        schedule: &mut Schedule,
    ) {
        match op {
            MatrixOp::MatMul { a, b, dst } => {
                let (m, k) = self.shapes[a.0];
                let n = self.shapes[b.0].1;
                let slices = placement.slices_for(k as u64) as u32;
                let slice_len = (k as u32).div_ceil(slices);
                // One prototype round (column j), repeated n times.
                let mut round = Round::new().repeated(n as u64);
                // Broadcast B_j to every PIM bank's subarrays.
                let src = placement.home_of_row(ids[b.0], 0);
                for bank in 0..banks {
                    round.broadcasts.push(Vpc::Tran {
                        src,
                        dst: bank * (placement.pim_subarrays() / banks.max(1)),
                        len: k as u32,
                    });
                }
                for i in 0..m {
                    let home = placement.home_of_row(ids[a.0], i as u32);
                    let dst_home = placement.home_of_row(ids[dst.0], i as u32);
                    if slices == 1 {
                        let v = VecRef::new(home, k as u32);
                        round.computes.push(Vpc::Mul { src1: v, src2: v });
                        // The result C[i][j] lands in row i's home of C.
                        round.collects.push(Vpc::Tran {
                            src: home,
                            dst: dst_home,
                            len: 1,
                        });
                    } else {
                        // §IV-C slicing: the oversized row is split across
                        // `slices` subarrays; partials are gathered and
                        // reduced at the destination.
                        for sl in 0..slices {
                            let sub = (home + sl) % placement.pim_subarrays();
                            let v = VecRef::new(sub, slice_len);
                            round.computes.push(Vpc::Mul { src1: v, src2: v });
                            round.collects.push(Vpc::Tran {
                                src: sub,
                                dst: dst_home,
                                len: 1,
                            });
                        }
                        round.computes.push(Vpc::Add {
                            src1: VecRef::new(dst_home, slices),
                            src2: VecRef::new(dst_home, slices),
                        });
                        round.collects.push(Vpc::Tran {
                            src: dst_home,
                            dst: dst_home,
                            len: 1,
                        });
                    }
                }
                schedule.push(round);
            }
            MatrixOp::MatVec { a, x, dst } => {
                let (m, k) = self.shapes[a.0];
                let slices = placement.slices_for(k as u64) as u32;
                let slice_len = (k as u32).div_ceil(slices);
                let x_home = placement.home_of_row(ids[x.0], 0);
                let mut round = Round::new();
                for i in 0..m {
                    let home = placement.home_of_row(ids[a.0], i as u32);
                    let dst_home = placement.home_of_row(ids[dst.0], i as u32);
                    if slices == 1 {
                        // Operand staging: x (or the scattered intermediate
                        // it came from) is moved to the dot's subarray.
                        round.broadcasts.push(Vpc::Tran {
                            src: x_home,
                            dst: home,
                            len: k as u32,
                        });
                        let v = VecRef::new(home, k as u32);
                        round.computes.push(Vpc::Mul { src1: v, src2: v });
                        round.collects.push(Vpc::Tran {
                            src: home,
                            dst: dst_home,
                            len: 1,
                        });
                    } else {
                        // §IV-C slicing for rows beyond a subarray's
                        // capacity: each slice computes a partial dot where
                        // its part of the row lives; one reduction follows.
                        for sl in 0..slices {
                            let sub = (home + sl) % placement.pim_subarrays();
                            round.broadcasts.push(Vpc::Tran {
                                src: x_home,
                                dst: sub,
                                len: slice_len,
                            });
                            let v = VecRef::new(sub, slice_len);
                            round.computes.push(Vpc::Mul { src1: v, src2: v });
                            round.collects.push(Vpc::Tran {
                                src: sub,
                                dst: dst_home,
                                len: 1,
                            });
                        }
                        round.computes.push(Vpc::Add {
                            src1: VecRef::new(dst_home, slices),
                            src2: VecRef::new(dst_home, slices),
                        });
                        round.collects.push(Vpc::Tran {
                            src: dst_home,
                            dst: dst_home,
                            len: 1,
                        });
                    }
                }
                schedule.push(round);
            }
            MatrixOp::MatAdd { a, b, dst } => {
                let (m, n) = self.shapes[a.0];
                let mut round = Round::new();
                for i in 0..m {
                    let home = placement.home_of_row(ids[a.0], i as u32);
                    let other = placement.home_of_row(ids[b.0], i as u32);
                    // Align the B row into A's subarray, add, collect.
                    round.broadcasts.push(Vpc::Tran {
                        src: other,
                        dst: home,
                        len: n as u32,
                    });
                    let v = VecRef::new(home, n as u32);
                    round.computes.push(Vpc::Add { src1: v, src2: v });
                    let dst_home = placement.home_of_row(ids[dst.0], i as u32);
                    round.collects.push(Vpc::Tran {
                        src: home,
                        dst: dst_home,
                        len: n as u32,
                    });
                }
                schedule.push(round);
            }
            MatrixOp::ScalarMul { a, dst, .. } => {
                let (m, n) = self.shapes[a.0];
                let mut round = Round::new();
                for i in 0..m {
                    let home = placement.home_of_row(ids[a.0], i as u32);
                    round.computes.push(Vpc::Smul {
                        src: VecRef::new(home, n as u32),
                    });
                    let dst_home = placement.home_of_row(ids[dst.0], i as u32);
                    round.collects.push(Vpc::Tran {
                        src: home,
                        dst: dst_home,
                        len: n as u32,
                    });
                }
                schedule.push(round);
            }
            MatrixOp::Axpby { a, b, dst, .. } => {
                let (m, n) = self.shapes[a.0];
                let mut round = Round::new();
                for i in 0..m {
                    // Two SMUL passes per row; the second accumulates onto
                    // the first through the circle adder.
                    let home_a = placement.home_of_row(ids[a.0], i as u32);
                    let home_b = placement.home_of_row(ids[b.0], i as u32);
                    round.computes.push(Vpc::Smul {
                        src: VecRef::new(home_a, n as u32),
                    });
                    round.computes.push(Vpc::Smul {
                        src: VecRef::new(home_b, n as u32),
                    });
                    let dst_home = placement.home_of_row(ids[dst.0], i as u32);
                    round.collects.push(Vpc::Tran {
                        src: home_a,
                        dst: home_b,
                        len: n as u32,
                    });
                    round.collects.push(Vpc::Tran {
                        src: home_b,
                        dst: dst_home,
                        len: n as u32,
                    });
                }
                schedule.push(round);
            }
        }
    }
}

fn check_op_shapes(shapes: &[(usize, usize)], op: MatrixOp) -> Result<()> {
    let get = |h: MatHandle| -> Result<(usize, usize)> {
        shapes
            .get(h.0)
            .copied()
            .ok_or(PimError::UnknownMatrix { handle: h.0 })
    };
    match op {
        MatrixOp::MatMul { a, b, dst } => {
            let (am, ak) = get(a)?;
            let (bk, bn) = get(b)?;
            let (dm, dn) = get(dst)?;
            if ak != bk || dm != am || dn != bn {
                return Err(PimError::ShapeMismatch {
                    detail: format!("matmul {am}x{ak} * {bk}x{bn} -> {dm}x{dn}"),
                });
            }
        }
        MatrixOp::MatVec { a, x, dst } => {
            let (am, ak) = get(a)?;
            let (xk, xc) = get(x)?;
            let (dm, dc) = get(dst)?;
            if xc != 1 || dc != 1 || ak != xk || dm != am {
                return Err(PimError::ShapeMismatch {
                    detail: format!("matvec {am}x{ak} * {xk}x{xc} -> {dm}x{dc}"),
                });
            }
        }
        MatrixOp::MatAdd { a, b, dst } => {
            let sa = get(a)?;
            let sb = get(b)?;
            let sd = get(dst)?;
            if sa != sb || sa != sd {
                return Err(PimError::ShapeMismatch {
                    detail: format!("add {sa:?} + {sb:?} -> {sd:?}"),
                });
            }
        }
        MatrixOp::ScalarMul { a, dst, .. } => {
            let sa = get(a)?;
            let sd = get(dst)?;
            if sa != sd {
                return Err(PimError::ShapeMismatch {
                    detail: format!("scale {sa:?} -> {sd:?}"),
                });
            }
        }
        MatrixOp::Axpby { a, b, dst, .. } => {
            let sa = get(a)?;
            let sb = get(b)?;
            let sd = get(dst)?;
            if sa != sb || sa != sd {
                return Err(PimError::ShapeMismatch {
                    detail: format!("axpby {sa:?}, {sb:?} -> {sd:?}"),
                });
            }
        }
    }
    Ok(())
}

/// A StreamPIM computation task (paper Figure 16).
///
/// ```
/// use pim_device::matrix::Matrix;
/// use pim_device::{MatrixOp, PimTask, StreamPim, StreamPimConfig};
///
/// # fn main() -> Result<(), pim_device::PimError> {
/// let device = StreamPim::new(StreamPimConfig::default())?;
/// let a = Matrix::from_fn(4, 4, |i, j| (i + j) as i64);
///
/// let mut task = PimTask::new();
/// let ha = task.add_matrix(&a)?;
/// let hi = task.add_matrix(&Matrix::identity(4))?;
/// let hc = task.add_output(4, 4)?;
/// task.add_operation(MatrixOp::MatMul { a: ha, b: hi, dst: hc })?;
///
/// let outcome = task.run(&device)?;
/// assert_eq!(outcome.matrix(hc)?, &a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PimTask {
    matrices: Vec<Matrix>,
    ops: Vec<MatrixOp>,
}

impl PimTask {
    /// Creates an empty task (paper's `create_pim_task()`).
    pub fn new() -> Self {
        PimTask::default()
    }

    /// Registers an input matrix (paper's `task.add_matrix`).
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility
    /// with device-side allocation limits.
    pub fn add_matrix(&mut self, m: &Matrix) -> Result<MatHandle> {
        self.matrices.push(m.clone());
        Ok(MatHandle(self.matrices.len() - 1))
    }

    /// Registers a zero-initialized output matrix.
    ///
    /// # Errors
    ///
    /// See [`Self::add_matrix`].
    pub fn add_output(&mut self, rows: usize, cols: usize) -> Result<MatHandle> {
        self.add_matrix(&Matrix::zeros(rows, cols))
    }

    /// Appends an operation (paper's `task.add_operation`).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownMatrix`] for foreign handles or
    /// [`PimError::ShapeMismatch`] for incompatible operand shapes.
    pub fn add_operation(&mut self, op: MatrixOp) -> Result<()> {
        self.check_shapes(op)?;
        self.ops.push(op);
        Ok(())
    }

    /// Number of queued operations.
    pub fn operation_count(&self) -> usize {
        self.ops.len()
    }

    /// The shape-only view of this task. Lowering the returned
    /// [`ShapeTask`] yields a schedule identical to [`Self::lower`].
    pub fn shape_task(&self) -> ShapeTask {
        ShapeTask {
            shapes: self.matrices.iter().map(|m| m.shape()).collect(),
            ops: self.ops.clone(),
        }
    }

    /// Lowers the task to a schedule for `device` without running it
    /// (useful for trace statistics, Table IV).
    ///
    /// Delegates to [`ShapeTask::lower`] — lowering reads only operand
    /// shapes, never element data.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if no operations were added.
    pub fn lower(&self, device: &StreamPim) -> Result<Schedule> {
        self.shape_task().lower(device)
    }

    /// Lowers and prices the task on `device` *without* functional
    /// execution — the path used by full-size experiments, where only
    /// shapes matter and host-side matrix arithmetic would dominate.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if no operations were added.
    pub fn price(&self, device: &StreamPim) -> Result<ExecReport> {
        Ok(device.execute(&self.lower(device)?, &Instruments::NONE))
    }

    /// Runs the task on `device` (paper's `task.run()`): lowers, prices and
    /// functionally executes every operation.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if no operations were added.
    pub fn run(&self, device: &StreamPim) -> Result<TaskOutcome> {
        let schedule = self.lower(device)?;
        let report = device.execute(&schedule, &Instruments::NONE);
        // Functional execution in program order.
        let mut matrices = self.matrices.clone();
        for &op in &self.ops {
            match op {
                MatrixOp::MatMul { a, b, dst } => {
                    matrices[dst.0] = matrices[a.0].matmul(&matrices[b.0]);
                }
                MatrixOp::MatVec { a, x, dst } => {
                    matrices[dst.0] = matrices[a.0].matmul(&matrices[x.0]);
                }
                MatrixOp::MatAdd { a, b, dst } => {
                    matrices[dst.0] = matrices[a.0].add(&matrices[b.0]);
                }
                MatrixOp::ScalarMul { alpha, a, dst } => {
                    matrices[dst.0] = matrices[a.0].scale(alpha);
                }
                MatrixOp::Axpby {
                    alpha,
                    a,
                    beta,
                    b,
                    dst,
                } => {
                    matrices[dst.0] = matrices[a.0].scale(alpha).add(&matrices[b.0].scale(beta));
                }
            }
        }
        Ok(TaskOutcome {
            matrices,
            report,
            schedule,
        })
    }

    fn check_shapes(&self, op: MatrixOp) -> Result<()> {
        let shapes: Vec<(usize, usize)> = self.matrices.iter().map(|m| m.shape()).collect();
        check_op_shapes(&shapes, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{OptLevel, StreamPimConfig};

    fn device() -> StreamPim {
        StreamPim::new(StreamPimConfig::paper_default()).unwrap()
    }

    #[test]
    fn matmul_functional_result() {
        let a = Matrix::from_fn(5, 4, |i, j| (i + 2 * j) as i64);
        let b = Matrix::from_fn(4, 3, |i, j| (3 * i + j) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&b).unwrap();
        let hc = task.add_output(5, 3).unwrap();
        task.add_operation(MatrixOp::MatMul {
            a: ha,
            b: hb,
            dst: hc,
        })
        .unwrap();
        let out = task.run(&device()).unwrap();
        assert_eq!(out.matrix(hc).unwrap(), &a.matmul(&b));
        assert!(out.report.total_ns() > 0.0);
        assert!(out.report.total_pj() > 0.0);
    }

    #[test]
    fn chained_operations_apply_in_order() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_output(3, 3).unwrap();
        let hc = task.add_output(3, 3).unwrap();
        task.add_operation(MatrixOp::ScalarMul {
            alpha: 2,
            a: ha,
            dst: hb,
        })
        .unwrap();
        task.add_operation(MatrixOp::MatAdd {
            a: hb,
            b: ha,
            dst: hc,
        })
        .unwrap();
        let out = task.run(&device()).unwrap();
        assert_eq!(out.matrix(hc).unwrap(), &a.scale(3));
    }

    #[test]
    fn matvec_functional_result() {
        let a = Matrix::from_fn(4, 6, |i, j| (i + j) as i64);
        let x = Matrix::column(&[1, -1, 2, -2, 3, -3]);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hx = task.add_matrix(&x).unwrap();
        let hy = task.add_output(4, 1).unwrap();
        task.add_operation(MatrixOp::MatVec {
            a: ha,
            x: hx,
            dst: hy,
        })
        .unwrap();
        let out = task.run(&device()).unwrap();
        assert_eq!(out.matrix(hy).unwrap(), &a.matmul(&x));
    }

    #[test]
    fn matmul_vpc_counts_match_paper_model() {
        // #PIM = m*n dots; #move ≈ m*n collects + n*banks broadcasts.
        let (m, k, n) = (20usize, 30usize, 10usize);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&Matrix::zeros(m, k)).unwrap();
        let hb = task.add_matrix(&Matrix::zeros(k, n)).unwrap();
        let hc = task.add_output(m, n).unwrap();
        task.add_operation(MatrixOp::MatMul {
            a: ha,
            b: hb,
            dst: hc,
        })
        .unwrap();
        let schedule = task.lower(&device()).unwrap();
        let counts = schedule.counts();
        assert_eq!(counts.pim, (m * n) as u64);
        assert_eq!(counts.moves, (m * n + n * 8) as u64);
    }

    #[test]
    fn matvec_moves_are_two_per_dot() {
        let mut task = PimTask::new();
        let ha = task.add_matrix(&Matrix::zeros(50, 40)).unwrap();
        let hx = task.add_matrix(&Matrix::zeros(40, 1)).unwrap();
        let hy = task.add_output(50, 1).unwrap();
        task.add_operation(MatrixOp::MatVec {
            a: ha,
            x: hx,
            dst: hy,
        })
        .unwrap();
        let counts = task.lower(&device()).unwrap().counts();
        assert_eq!(counts.pim, 50);
        assert_eq!(counts.moves, 100);
    }

    #[test]
    fn shape_checking() {
        let mut task = PimTask::new();
        let ha = task.add_matrix(&Matrix::zeros(2, 3)).unwrap();
        let hb = task.add_matrix(&Matrix::zeros(2, 3)).unwrap();
        let hc = task.add_output(2, 2).unwrap();
        assert!(matches!(
            task.add_operation(MatrixOp::MatMul {
                a: ha,
                b: hb,
                dst: hc
            }),
            Err(PimError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            task.add_operation(MatrixOp::MatAdd {
                a: ha,
                b: hb,
                dst: hc
            }),
            Err(PimError::ShapeMismatch { .. })
        ));
        assert_eq!(task.operation_count(), 0);
    }

    #[test]
    fn unknown_handle_rejected() {
        let mut task = PimTask::new();
        let bogus = MatHandle(99);
        assert!(matches!(
            task.add_operation(MatrixOp::ScalarMul {
                alpha: 1,
                a: bogus,
                dst: bogus
            }),
            Err(PimError::UnknownMatrix { .. })
        ));
    }

    #[test]
    fn empty_task_rejected() {
        let task = PimTask::new();
        assert!(matches!(task.run(&device()), Err(PimError::EmptyTask)));
    }

    #[test]
    fn axpby_functional_and_counts() {
        let a = Matrix::from_fn(6, 5, |i, j| (i + j) as i64);
        let b = Matrix::from_fn(6, 5, |i, j| (2 * i + 3 * j) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&b).unwrap();
        let hd = task.add_output(6, 5).unwrap();
        task.add_operation(MatrixOp::Axpby {
            alpha: 2,
            a: ha,
            beta: -1,
            b: hb,
            dst: hd,
        })
        .unwrap();
        let dev = device();
        let counts = task.lower(&dev).unwrap().counts();
        assert_eq!(counts.pim, 12, "two SMUL per row");
        assert_eq!(counts.moves, 12, "two moves per row");
        let out = task.run(&dev).unwrap();
        assert_eq!(out.matrix(hd).unwrap(), &a.scale(2).add(&b.scale(-1)));
    }

    #[test]
    fn price_matches_run_report() {
        let a = Matrix::from_fn(8, 8, |i, j| (i * j) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hb = task.add_matrix(&a).unwrap();
        let hc = task.add_output(8, 8).unwrap();
        task.add_operation(MatrixOp::MatMul {
            a: ha,
            b: hb,
            dst: hc,
        })
        .unwrap();
        let dev = device();
        let priced = task.price(&dev).unwrap();
        let ran = task.run(&dev).unwrap();
        assert_eq!(priced, ran.report);
    }

    #[test]
    fn oversized_vectors_are_sliced() {
        // Shrink the subarray capacity so a 300-element row cannot fit:
        // tiny geometry has 2 mats x 64 rows x 1 byte = 128 bytes.
        let mut cfg = StreamPimConfig::paper_default();
        cfg.device.geometry = rm_core::Geometry::tiny();
        cfg.device.pim_banks = 1;
        let dev = StreamPim::new(cfg).unwrap();

        let a = Matrix::from_fn(3, 300, |i, j| ((i + j) % 5) as i64);
        let x = Matrix::from_fn(300, 1, |i, _| ((i * 3) % 5) as i64);
        let mut task = PimTask::new();
        let ha = task.add_matrix(&a).unwrap();
        let hx = task.add_matrix(&x).unwrap();
        let hy = task.add_output(3, 1).unwrap();
        task.add_operation(MatrixOp::MatVec {
            a: ha,
            x: hx,
            dst: hy,
        })
        .unwrap();

        let schedule = task.lower(&dev).unwrap();
        let counts = schedule.counts();
        // 300 bytes over 128-byte subarrays: 3 slices per row, plus one
        // reduction ADD per row.
        assert_eq!(counts.pim, 3 * (3 + 1));
        assert_eq!(counts.moves, 3 * (3 + 3 + 1));

        // And the functional result is still exact.
        let out = task.run(&dev).unwrap();
        assert_eq!(out.matrix(hy).unwrap(), &a.matmul(&x));
    }

    #[test]
    fn full_size_vectors_do_not_slice() {
        let dev = device();
        let mut task = PimTask::new();
        let ha = task.add_matrix(&Matrix::zeros(4, 2000)).unwrap();
        let hx = task.add_matrix(&Matrix::zeros(2000, 1)).unwrap();
        let hy = task.add_output(4, 1).unwrap();
        task.add_operation(MatrixOp::MatVec {
            a: ha,
            x: hx,
            dst: hy,
        })
        .unwrap();
        let counts = task.lower(&dev).unwrap().counts();
        assert_eq!(counts.pim, 4, "no slicing at paper capacity");
    }

    #[test]
    fn opt_levels_same_results_different_times() {
        let a = Matrix::from_fn(32, 32, |i, j| ((i * j) % 7) as i64);
        let run_with = |opt: OptLevel| {
            let dev = StreamPim::new(StreamPimConfig::paper_default().with_opt(opt)).unwrap();
            let mut task = PimTask::new();
            let ha = task.add_matrix(&a).unwrap();
            let hb = task.add_matrix(&a).unwrap();
            let hc = task.add_output(32, 32).unwrap();
            task.add_operation(MatrixOp::MatMul {
                a: ha,
                b: hb,
                dst: hc,
            })
            .unwrap();
            task.run(&dev).unwrap()
        };
        let base = run_with(OptLevel::Base);
        let unblock = run_with(OptLevel::Unblock);
        assert_eq!(
            base.matrices, unblock.matrices,
            "results independent of schedule"
        );
        assert!(base.report.total_ns() > unblock.report.total_ns());
    }
}
