//! TFIR instructions, operands, and block terminators.
//!
//! TFIR is deliberately CISC-flavoured: any single operand of an ALU
//! instruction (or a branch comparison) may be a memory reference, exactly
//! one per instruction, mirroring x86. The ThreadFuser warp-trace generator
//! later decomposes such instructions into RISC `load`/`alu`/`store`
//! sequences, as the paper describes for `add [mem]`.

use crate::ids::{BlockId, FuncId, GlobalId, Reg};
use serde::{Deserialize, Serialize};

/// Width in bytes of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl AccessSize {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }
}

/// Base of a memory reference address computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Base {
    /// No base (absolute displacement).
    None,
    /// A register value.
    Reg(Reg),
    /// The current function's frame pointer (stack-segment access).
    Frame,
    /// The address of a program global (heap-segment data).
    Global(GlobalId),
}

/// An x86-style memory reference: `base + index * scale + disp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Base of the address computation.
    pub base: Base,
    /// Optional scaled index register: `(reg, scale)`.
    pub index: Option<(Reg, u8)>,
    /// Constant displacement.
    pub disp: i64,
    /// Access width.
    pub size: AccessSize,
}

impl MemRef {
    /// A frame-relative (stack) reference at `disp` with width `size`.
    pub fn frame(disp: i64, size: AccessSize) -> Self {
        MemRef { base: Base::Frame, index: None, disp, size }
    }

    /// A global-relative reference: `global + index*scale + disp`.
    pub fn global(g: GlobalId, index: Option<(Reg, u8)>, disp: i64, size: AccessSize) -> Self {
        MemRef { base: Base::Global(g), index, disp, size }
    }

    /// A register-based reference: `reg + disp`.
    pub fn reg(base: Reg, disp: i64, size: AccessSize) -> Self {
        MemRef { base: Base::Reg(base), index: None, disp, size }
    }

    /// A register-based reference with a scaled index.
    pub fn reg_index(base: Reg, index: Reg, scale: u8, disp: i64, size: AccessSize) -> Self {
        MemRef { base: Base::Reg(base), index: Some((index, scale)), disp, size }
    }

    /// True when this reference targets the current thread's stack frame.
    pub fn is_frame(&self) -> bool {
        matches!(self.base, Base::Frame)
    }
}

/// Instruction or branch operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register value.
    Reg(Reg),
    /// An immediate constant.
    Imm(i64),
    /// A memory operand (at most one per instruction).
    Mem(MemRef),
}

impl Operand {
    /// Returns the memory reference if this operand is a memory operand.
    pub fn mem(&self) -> Option<&MemRef> {
        match self {
            Operand::Mem(m) => Some(m),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Binary ALU operations. All arithmetic is on `i64` with wrapping semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (`0` divisor traps at execution time).
    Div,
    /// Signed remainder (`0` divisor traps at execution time).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 63).
    Shl,
    /// Logical shift right (shift amount masked to 63).
    Shr,
    /// Arithmetic shift right (shift amount masked to 63).
    Sar,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl AluOp {
    /// Evaluates the operation on two `i64` inputs.
    ///
    /// Division and remainder by zero return `None` (the interpreter turns
    /// this into a trap).
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
            AluOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
            AluOp::Sar => a >> (b as u64 & 63),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        })
    }
}

/// Kind of I/O operation. I/O is opaque to the analysis: the tracer counts
/// but does not trace these instructions (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Read from an external source (socket/file).
    Read,
    /// Write to an external sink.
    Write,
}

/// A straight-line TFIR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = a <op> b`. At most one of `a`, `b` may be [`Operand::Mem`].
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = src`; a load when `src` is a memory operand.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `[addr] = src`; `src` must not be a memory operand (x86 forbids
    /// mem-to-mem moves).
    Store {
        /// Destination memory reference.
        addr: MemRef,
        /// Value stored.
        src: Operand,
    },
    /// `dst = &addr` — address computation without a memory access.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address computed.
        addr: MemRef,
    },
    /// Heap allocation: `dst = malloc(size)`. Models the C++ allocator the
    /// microservice workloads exercise.
    Alloc {
        /// Receives the allocated address.
        dst: Reg,
        /// Allocation size in bytes.
        size: Operand,
    },
    /// Releases a heap allocation made by [`Inst::Alloc`].
    Free {
        /// Address previously returned by `Alloc`.
        addr: Operand,
    },
    /// Opaque I/O; `cost` native instructions are *skipped* by the tracer
    /// but counted for the traced-vs-skipped breakdown (paper Fig. 8).
    Io {
        /// Direction.
        kind: IoKind,
        /// Number of native instructions this operation stands for.
        cost: u32,
    },
    /// No operation (used as an optimization tombstone).
    Nop,
}

impl Inst {
    /// Returns the memory reference this instruction reads, if any.
    pub fn mem_read(&self) -> Option<&MemRef> {
        match self {
            Inst::Alu { a, b, .. } => a.mem().or_else(|| b.mem()),
            Inst::Mov { src, .. } => src.mem(),
            _ => None,
        }
    }

    /// Returns the memory reference this instruction writes, if any.
    pub fn mem_write(&self) -> Option<&MemRef> {
        match self {
            Inst::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// True when executing this instruction touches memory.
    pub fn touches_memory(&self) -> bool {
        self.mem_read().is_some() || self.mem_write().is_some()
    }
}

/// Branch comparison predicates (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl Cond {
    /// Evaluates the predicate.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// The negated predicate.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// Block terminators. Control transfers happen only here, so a basic block
/// is always single-entry / single-exit, as the PIN tracer assumes.
///
/// Synchronization primitives are terminators (single successor) so the
/// analyzer can treat them as serialization points without splitting blocks,
/// mirroring how PIN ends a basic block at a syscall.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Two-way conditional branch; may carry one memory operand in `a`/`b`.
    Br {
        /// Predicate.
        cond: Cond,
        /// Left comparison operand.
        a: Operand,
        /// Right comparison operand.
        b: Operand,
        /// Successor when the predicate holds.
        taken: BlockId,
        /// Successor otherwise.
        fallthrough: BlockId,
    },
    /// Jump table: index `val - base` into `targets`, else `default`.
    Switch {
        /// Selector value.
        val: Operand,
        /// Value mapped to `targets[0]`.
        base: i64,
        /// Dense target table.
        targets: Vec<BlockId>,
        /// Out-of-range successor.
        default: BlockId,
    },
    /// Direct call; control resumes at `ret_to` after the callee returns.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument values copied into the callee's `r0..rN`.
        args: Vec<Operand>,
        /// Continuation block in the caller.
        ret_to: BlockId,
        /// Optional register receiving the callee's return value.
        dst: Option<Reg>,
    },
    /// Function return.
    Ret {
        /// Optional return value.
        val: Option<Operand>,
    },
    /// Acquire the mutex whose address is `lock`, then continue at `next`.
    Acquire {
        /// Lock address operand.
        lock: Operand,
        /// Single successor.
        next: BlockId,
    },
    /// Release the mutex whose address is `lock`, then continue at `next`.
    Release {
        /// Lock address operand.
        lock: Operand,
        /// Single successor.
        next: BlockId,
    },
    /// Program-wide barrier (all live threads must arrive).
    Barrier {
        /// Barrier identity.
        id: u32,
        /// Single successor.
        next: BlockId,
    },
}

impl Terminator {
    /// All static successor blocks, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(t) => vec![*t],
            Terminator::Br { taken, fallthrough, .. } => vec![*taken, *fallthrough],
            Terminator::Switch { targets, default, .. } => {
                let mut v = targets.clone();
                v.push(*default);
                v.dedup();
                v
            }
            // A call's intra-procedural successor is its continuation; the
            // callee is not a CFG edge (per-function DCFGs, paper §III).
            Terminator::Call { ret_to, .. } => vec![*ret_to],
            Terminator::Ret { .. } => vec![],
            Terminator::Acquire { next, .. }
            | Terminator::Release { next, .. }
            | Terminator::Barrier { next, .. } => vec![*next],
        }
    }

    /// Memory reference read by the terminator's comparison, if any.
    pub fn mem_read(&self) -> Option<&MemRef> {
        match self {
            Terminator::Br { a, b, .. } => a.mem().or_else(|| b.mem()),
            Terminator::Switch { val, .. } => val.mem(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), Some(5));
        assert_eq!(AluOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(AluOp::Mul.eval(-4, 3), Some(-12));
        assert_eq!(AluOp::Div.eval(7, 2), Some(3));
        assert_eq!(AluOp::Div.eval(7, 0), None);
        assert_eq!(AluOp::Rem.eval(7, 0), None);
        assert_eq!(AluOp::Shl.eval(1, 4), Some(16));
        assert_eq!(AluOp::Sar.eval(-8, 1), Some(-4));
        assert_eq!(AluOp::Shr.eval(-8, 1), Some(((-8i64) as u64 >> 1) as i64));
        assert_eq!(AluOp::Min.eval(3, -2), Some(-2));
        assert_eq!(AluOp::Max.eval(3, -2), Some(3));
    }

    #[test]
    fn alu_wrapping() {
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(AluOp::Mul.eval(i64::MAX, 2), Some(-2));
    }

    #[test]
    fn shift_amounts_masked() {
        assert_eq!(AluOp::Shl.eval(1, 64), Some(1));
        assert_eq!(AluOp::Shl.eval(1, 65), Some(2));
    }

    #[test]
    fn cond_eval_and_negate() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b), "{c:?} ({a},{b})");
            }
        }
    }

    #[test]
    fn inst_memory_classification() {
        let m = MemRef::frame(8, AccessSize::B8);
        let load = Inst::Mov { dst: Reg(0), src: Operand::Mem(m) };
        let store = Inst::Store { addr: m, src: Operand::Imm(1) };
        let alu_mem =
            Inst::Alu { op: AluOp::Add, dst: Reg(0), a: Operand::Reg(Reg(0)), b: Operand::Mem(m) };
        let pure = Inst::Mov { dst: Reg(0), src: Operand::Imm(3) };
        assert!(load.mem_read().is_some() && load.mem_write().is_none());
        assert!(store.mem_write().is_some() && store.mem_read().is_none());
        assert!(alu_mem.touches_memory());
        assert!(!pure.touches_memory());
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jmp(BlockId(3)).successors(), vec![BlockId(3)]);
        let br = Terminator::Br {
            cond: Cond::Lt,
            a: Operand::Imm(0),
            b: Operand::Imm(1),
            taken: BlockId(1),
            fallthrough: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        let call =
            Terminator::Call { callee: FuncId(7), args: vec![], ret_to: BlockId(9), dst: None };
        assert_eq!(call.successors(), vec![BlockId(9)]);
        assert!(Terminator::Ret { val: None }.successors().is_empty());
    }

    #[test]
    fn switch_successors_dedup_adjacent() {
        let sw = Terminator::Switch {
            val: Operand::Imm(0),
            base: 0,
            targets: vec![BlockId(1), BlockId(1), BlockId(2)],
            default: BlockId(2),
        };
        assert_eq!(sw.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn access_size_bytes() {
        assert_eq!(AccessSize::B1.bytes(), 1);
        assert_eq!(AccessSize::B2.bytes(), 2);
        assert_eq!(AccessSize::B4.bytes(), 4);
        assert_eq!(AccessSize::B8.bytes(), 8);
    }
}
