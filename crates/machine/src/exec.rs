//! The shared single-instruction executor.
//!
//! Both execution modes — the MIMD multicore machine (`mimd`) and the
//! lock-step warp-native executor (`lockstep`) — drive threads/lanes
//! through this module, guaranteeing identical instruction semantics on
//! both sides of the correlation study.

use crate::heap::{Heap, HeapError};
use crate::layout::{stack_floor, stack_top, NULL_GUARD};
use crate::memory::Memory;
use crate::predecode::ExecFunc;
use threadfuser_ir::{Base, BlockId, FuncId, Inst, MemRef, Operand, Reg, Terminator};

/// One dynamic memory access performed by an instruction or terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// Width in bytes.
    pub size: u32,
    /// Store (`true`) or load (`false`).
    pub is_store: bool,
}

/// Run-time faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Access below the null guard page.
    NullDeref(u64),
    /// Simulated heap exhausted.
    OutOfMemory,
    /// `free` of a non-live address.
    InvalidFree(u64),
    /// Thread stack exhausted.
    StackOverflow,
    /// Instruction budget exceeded (runaway program).
    Budget,
    /// A mutex was re-acquired by its owner.
    RecursiveLock(u64),
    /// A mutex was released by a non-owner.
    ReleaseUnheld(u64),
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::NullDeref(a) => write!(f, "null-page access at {a:#x}"),
            Trap::OutOfMemory => write!(f, "simulated heap exhausted"),
            Trap::InvalidFree(a) => write!(f, "invalid free of {a:#x}"),
            Trap::StackOverflow => write!(f, "thread stack overflow"),
            Trap::Budget => write!(f, "instruction budget exceeded"),
            Trap::RecursiveLock(a) => write!(f, "recursive acquire of lock {a:#x}"),
            Trap::ReleaseUnheld(a) => write!(f, "release of unheld lock {a:#x}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<HeapError> for Trap {
    fn from(e: HeapError) -> Self {
        match e {
            HeapError::OutOfMemory => Trap::OutOfMemory,
            HeapError::InvalidFree(a) => Trap::InvalidFree(a),
        }
    }
}

/// Evaluated call-argument values.
///
/// Calls sit on the hot path of call-heavy workloads, and almost every
/// call passes only a handful of words, so the common case lives inline
/// with no heap allocation; longer lists spill to a `Vec`. Dereferences
/// to `[i64]`.
#[derive(Debug, Clone, Eq)]
pub enum CallArgs {
    /// At most eight values, stored in place.
    Inline {
        /// Backing store; only the first `len` entries are meaningful.
        buf: [i64; CallArgs::INLINE],
        /// Number of live values in `buf`.
        len: u8,
    },
    /// More than eight values.
    Spilled(Vec<i64>),
}

impl CallArgs {
    /// Capacity of the inline representation.
    pub(crate) const INLINE: usize = 8;

    /// Empty list with room for `n` values without reallocating.
    pub fn with_capacity(n: usize) -> Self {
        if n <= Self::INLINE {
            CallArgs::Inline { buf: [0; Self::INLINE], len: 0 }
        } else {
            CallArgs::Spilled(Vec::with_capacity(n))
        }
    }

    /// Appends a value, spilling to the heap if the inline buffer fills.
    pub fn push(&mut self, v: i64) {
        match self {
            CallArgs::Inline { buf, len } if (*len as usize) < Self::INLINE => {
                buf[*len as usize] = v;
                *len += 1;
            }
            CallArgs::Inline { buf, len } => {
                let mut spill = buf[..*len as usize].to_vec();
                spill.push(v);
                *self = CallArgs::Spilled(spill);
            }
            CallArgs::Spilled(v2) => v2.push(v),
        }
    }
}

impl std::ops::Deref for CallArgs {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        match self {
            CallArgs::Inline { buf, len } => &buf[..*len as usize],
            CallArgs::Spilled(v) => v,
        }
    }
}

impl PartialEq for CallArgs {
    fn eq(&self, other: &Self) -> bool {
        // Representation-independent: an inline list equals a spilled
        // list with the same values.
        **self == **other
    }
}

/// One activation on a thread's private stack.
#[derive(Debug)]
pub(crate) struct Frame<P> {
    /// Where the frame executes, if the machine keeps that per thread
    /// (the MIMD machine; a lock-step lane's position is its split's).
    pub(crate) at: P,
    pub(crate) regs: Vec<i64>,
    pub(crate) fp: u64,
    /// The register receiving the value of the call this frame is making.
    pub(crate) ret_dst: Option<Reg>,
    /// The stack pointer to restore when the frame returns.
    saved_sp: u64,
}

/// A thread's (or lock-step lane's) call stack: its frames and stack
/// pointer, pushed and popped by the one frame rule both machines share.
#[derive(Debug)]
pub(crate) struct CallStack<P> {
    pub(crate) frames: Vec<Frame<P>>,
    sp: u64,
}

impl<P> Default for CallStack<P> {
    fn default() -> Self {
        CallStack { frames: Vec::new(), sp: 0 }
    }
}

impl<P> CallStack<P> {
    /// Calls `f` at `at` with `args`, the caller's return value going to
    /// `ret_dst`. The frame sits 16-byte aligned below the stack pointer,
    /// which is the top of thread `tid`'s stack for its first frame, and
    /// must fit in that stack ([`Trap::StackOverflow`] otherwise). Its
    /// zeroed register file reuses a retired one from `pool`: frames come
    /// and go on the hot path of both machines and should stay off the
    /// allocator.
    pub(crate) fn push(
        &mut self,
        tid: u32,
        f: &ExecFunc,
        at: P,
        args: &[i64],
        ret_dst: Option<Reg>,
        pool: &mut Vec<Vec<i64>>,
    ) -> Result<(), Trap> {
        if self.frames.is_empty() {
            self.sp = stack_top(tid);
        }
        let fp = (self.sp - f.frame_size as u64) / 16 * 16;
        if fp < stack_floor(tid) {
            return Err(Trap::StackOverflow);
        }
        if let Some(caller) = self.frames.last_mut() {
            caller.ret_dst = ret_dst;
        }
        let mut regs = pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.reg_count as usize, 0);
        regs[..args.len()].copy_from_slice(args);
        self.frames.push(Frame { at, regs, fp, ret_dst: None, saved_sp: self.sp });
        self.sp = fp;
        Ok(())
    }

    /// Returns from the top frame with `val`: restores the stack pointer,
    /// retires the register file to `pool` and writes `val` to the
    /// caller's `ret_dst`. Returns whether a caller frame remains.
    pub(crate) fn pop(&mut self, val: Option<i64>, pool: &mut Vec<Vec<i64>>) -> bool {
        let finished = self.frames.pop().expect("ret pops a frame");
        self.sp = finished.saved_sp;
        pool.push(finished.regs);
        let Some(caller) = self.frames.last_mut() else { return false };
        if let (Some(dst), Some(v)) = (caller.ret_dst.take(), val) {
            caller.regs[dst.0 as usize] = v;
        }
        true
    }
}

/// Control transfer produced by a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Next {
    /// Continue at a block in the same function.
    Goto(BlockId),
    /// Call with evaluated arguments.
    Call {
        /// Callee function.
        callee: FuncId,
        /// Evaluated argument values.
        args: CallArgs,
        /// Caller continuation block.
        ret_to: BlockId,
        /// Register in the caller receiving the return value.
        dst: Option<Reg>,
    },
    /// Return with an optional value.
    Ret(Option<i64>),
    /// Acquire the mutex at the given address, then continue.
    Acquire {
        /// Lock address.
        lock: u64,
        /// Successor block.
        next: BlockId,
    },
    /// Release the mutex at the given address, then continue.
    Release {
        /// Lock address.
        lock: u64,
        /// Successor block.
        next: BlockId,
    },
    /// Wait at barrier `id`, then continue.
    Barrier {
        /// Barrier identity.
        id: u32,
        /// Successor block.
        next: BlockId,
    },
}

/// Execution context of one thread (or lane): its register frame, frame
/// pointer, and the shared memory/heap.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// Current function's register frame.
    pub regs: &'a mut [i64],
    /// Current frame pointer.
    pub fp: u64,
    /// Shared memory image.
    pub mem: &'a mut Memory,
    /// Shared heap allocator.
    pub heap: &'a mut Heap,
}

impl ExecCtx<'_> {
    fn addr_of(&self, m: &MemRef) -> u64 {
        let base = match m.base {
            Base::None => 0,
            Base::Reg(r) => self.regs[r.0 as usize] as u64,
            Base::Frame => self.fp,
            Base::Global(g) => self.mem.global_addr(g),
        };
        let index = match m.index {
            Some((r, scale)) => (self.regs[r.0 as usize] as u64).wrapping_mul(scale as u64),
            None => 0,
        };
        base.wrapping_add(index).wrapping_add(m.disp as u64)
    }

    fn value(&mut self, op: &Operand, acc: &mut Vec<MemAccess>) -> Result<i64, Trap> {
        match op {
            Operand::Reg(r) => Ok(self.regs[r.0 as usize]),
            Operand::Imm(v) => Ok(*v),
            Operand::Mem(m) => {
                let addr = self.addr_of(m);
                if addr < NULL_GUARD {
                    return Err(Trap::NullDeref(addr));
                }
                let size = m.size.bytes() as u32;
                acc.push(MemAccess { addr, size, is_store: false });
                Ok(self.mem.read(addr, size) as i64)
            }
        }
    }

    /// Executes one straight-line instruction, appending its memory
    /// accesses to `acc`.
    ///
    /// [`Inst::Io`] and [`Inst::Nop`] are semantic no-ops here; the caller
    /// accounts for skipped I/O cost.
    ///
    /// # Errors
    /// Returns a [`Trap`] on run-time faults.
    pub fn exec_inst(&mut self, inst: &Inst, acc: &mut Vec<MemAccess>) -> Result<(), Trap> {
        match inst {
            Inst::Alu { op, dst, a, b } => {
                let av = self.value(a, acc)?;
                let bv = self.value(b, acc)?;
                let v = op.eval(av, bv).ok_or(Trap::DivByZero)?;
                self.regs[dst.0 as usize] = v;
            }
            Inst::Mov { dst, src } => {
                let v = self.value(src, acc)?;
                self.regs[dst.0 as usize] = v;
            }
            Inst::Store { addr, src } => {
                let v = self.value(src, acc)?;
                let a = self.addr_of(addr);
                if a < NULL_GUARD {
                    return Err(Trap::NullDeref(a));
                }
                let size = addr.size.bytes() as u32;
                acc.push(MemAccess { addr: a, size, is_store: true });
                self.mem.write(a, size, v as u64);
            }
            Inst::Lea { dst, addr } => {
                self.regs[dst.0 as usize] = self.addr_of(addr) as i64;
            }
            Inst::Alloc { dst, size } => {
                let n = self.value(size, acc)?;
                let ptr = self.heap.alloc(n.max(1) as u64)?;
                self.regs[dst.0 as usize] = ptr as i64;
            }
            Inst::Free { addr } => {
                let a = self.value(addr, acc)?;
                self.heap.free(a as u64)?;
            }
            Inst::Io { .. } | Inst::Nop => {}
        }
        Ok(())
    }

    /// Evaluates a terminator to the resulting control transfer, appending
    /// memory accesses (branch comparisons may carry a memory operand).
    ///
    /// # Errors
    /// Returns a [`Trap`] on run-time faults.
    pub fn eval_term(&mut self, term: &Terminator, acc: &mut Vec<MemAccess>) -> Result<Next, Trap> {
        Ok(match term {
            Terminator::Jmp(t) => Next::Goto(*t),
            Terminator::Br { cond, a, b, taken, fallthrough } => {
                let av = self.value(a, acc)?;
                let bv = self.value(b, acc)?;
                Next::Goto(if cond.eval(av, bv) { *taken } else { *fallthrough })
            }
            Terminator::Switch { val, base, targets, default } => {
                let v = self.value(val, acc)?;
                let idx = v.wrapping_sub(*base);
                let t = if idx >= 0 && (idx as usize) < targets.len() {
                    targets[idx as usize]
                } else {
                    *default
                };
                Next::Goto(t)
            }
            Terminator::Call { callee, args, ret_to, dst } => {
                let mut vals = CallArgs::with_capacity(args.len());
                for a in args {
                    vals.push(self.value(a, acc)?);
                }
                Next::Call { callee: *callee, args: vals, ret_to: *ret_to, dst: *dst }
            }
            Terminator::Ret { val } => {
                let v = match val {
                    Some(v) => Some(self.value(v, acc)?),
                    None => None,
                };
                Next::Ret(v)
            }
            Terminator::Acquire { lock, next } => {
                let l = self.value(lock, acc)? as u64;
                Next::Acquire { lock: l, next: *next }
            }
            Terminator::Release { lock, next } => {
                let l = self.value(lock, acc)? as u64;
                Next::Release { lock: l, next: *next }
            }
            Terminator::Barrier { id, next } => Next::Barrier { id: *id, next: *next },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::{AccessSize, AluOp, Cond};

    fn ctx<'a>(regs: &'a mut [i64], mem: &'a mut Memory, heap: &'a mut Heap) -> ExecCtx<'a> {
        ExecCtx { regs, fp: crate::layout::stack_top(0) - 64, mem, heap }
    }

    #[test]
    fn alu_with_memory_operand_records_access() {
        let mut regs = vec![0i64; 4];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let fp = crate::layout::stack_top(0) - 64;
        mem.write(fp + 8, 8, 5);
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let mut acc = Vec::new();
        c.exec_inst(
            &Inst::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Operand::Imm(2),
                b: Operand::Mem(MemRef::frame(8, AccessSize::B8)),
            },
            &mut acc,
        )
        .unwrap();
        assert_eq!(regs[0], 7);
        assert_eq!(acc.len(), 1);
        assert!(!acc[0].is_store);
        assert_eq!(acc[0].addr, fp + 8);
    }

    #[test]
    fn store_and_reload() {
        let mut regs = vec![9i64; 4];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let mut acc = Vec::new();
        let slot = MemRef::frame(16, AccessSize::B8);
        c.exec_inst(&Inst::Store { addr: slot, src: Operand::Imm(42) }, &mut acc).unwrap();
        c.exec_inst(&Inst::Mov { dst: Reg(1), src: Operand::Mem(slot) }, &mut acc).unwrap();
        assert_eq!(regs[1], 42);
        assert_eq!(acc.len(), 2);
        assert!(acc[0].is_store && !acc[1].is_store);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut regs = vec![0i64; 2];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let err = c
            .exec_inst(
                &Inst::Alu { op: AluOp::Div, dst: Reg(0), a: Operand::Imm(1), b: Operand::Imm(0) },
                &mut Vec::new(),
            )
            .unwrap_err();
        assert_eq!(err, Trap::DivByZero);
    }

    #[test]
    fn null_deref_traps() {
        let mut regs = vec![0i64; 2];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let err = c
            .exec_inst(
                &Inst::Mov {
                    dst: Reg(0),
                    src: Operand::Mem(MemRef::reg(Reg(1), 8, AccessSize::B8)),
                },
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(matches!(err, Trap::NullDeref(8)));
    }

    #[test]
    fn branch_picks_side_and_records_mem_operand() {
        let mut regs = vec![3i64; 2];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let fp = crate::layout::stack_top(0) - 64;
        mem.write(fp, 8, 10);
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let mut acc = Vec::new();
        let next = c
            .eval_term(
                &Terminator::Br {
                    cond: Cond::Lt,
                    a: Operand::Reg(Reg(0)),
                    b: Operand::Mem(MemRef::frame(0, AccessSize::B8)),
                    taken: BlockId(1),
                    fallthrough: BlockId(2),
                },
                &mut acc,
            )
            .unwrap();
        assert_eq!(next, Next::Goto(BlockId(1)));
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn switch_in_and_out_of_range() {
        let mut regs = vec![0i64; 2];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let term = Terminator::Switch {
            val: Operand::Reg(Reg(0)),
            base: 10,
            targets: vec![BlockId(1), BlockId(2)],
            default: BlockId(9),
        };
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        c.regs[0] = 11;
        assert_eq!(c.eval_term(&term, &mut Vec::new()).unwrap(), Next::Goto(BlockId(2)));
        c.regs[0] = 5;
        assert_eq!(c.eval_term(&term, &mut Vec::new()).unwrap(), Next::Goto(BlockId(9)));
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut regs = vec![0i64; 2];
        let mut mem = Memory::new();
        let mut heap = Heap::new();
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        c.exec_inst(&Inst::Alloc { dst: Reg(0), size: Operand::Imm(100) }, &mut Vec::new())
            .unwrap();
        let ptr = regs[0];
        assert!(ptr as u64 >= crate::layout::HEAP_BASE);
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        c.exec_inst(&Inst::Free { addr: Operand::Reg(Reg(0)) }, &mut Vec::new()).unwrap();
        let mut c = ctx(&mut regs, &mut mem, &mut heap);
        let err =
            c.exec_inst(&Inst::Free { addr: Operand::Reg(Reg(0)) }, &mut Vec::new()).unwrap_err();
        assert_eq!(err, Trap::InvalidFree(ptr as u64));
    }
}
