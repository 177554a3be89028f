//! Predecoded execution form of a TFIR program.
//!
//! [`ExecProgram`] is built once per [`Program`] and flattens every
//! function into one contiguous array of 16-byte `FlatInst` records
//! with a block-offset table. A record's opcode already says everything
//! the interpreter would otherwise re-decide per dynamic instruction —
//! the instruction shape, the ALU operation and the kind of address base
//! — so executing one is a single `match`
//! (`ExecCtx::exec_flat`): operands are dense register indices and one
//! inline immediate, global bases are folded into that immediate as
//! absolute addresses (the global layout is a pure function of the
//! program — see `memory::global_layout`), and access widths are
//! bytes. The few shapes the table has no opcode for keep their IR
//! [`Inst`] in a side table and run through [`ExecCtx::exec_inst`], so
//! there are two instruction forms in the tree, not three. Terminators
//! predecode to `PTerm` with callee metadata attached to every call
//! site. Both interpreters (the MIMD machine and the lock-step executor)
//! fetch from this form and share the one executor.
//!
//! Registers are allocated. TFIR keeps every virtual register its
//! optimizer creates (`md5`'s unrolled O3 kernel has 674), while a
//! compiled binary keeps a small register file per thread. So the build
//! colors each function's interference graph, greedily and in register
//! order, and renames every body instruction and terminator to the colors
//! before it flattens them: a predecoded frame holds
//! `ExecFunc::reg_count` colored slots (`md5`'s kernel needs 11), not
//! the IR's count. Liveness is a backward pass over the IR: one walk sums
//! each block up as the registers it reads before writing and those it
//! always writes, and the fixed point runs over those sums. A register
//! conflicts with every register live after an instruction that writes
//! it. Parameters keep slots `0..params`, and each one conflicts with
//! everything live into the entry block: the arguments are written there,
//! and a register read before any write is live from the entry on, so it
//! keeps a slot of its own that still reads 0. A call's `dst` is written
//! at the return, and only when the callee returns a value; so unless
//! every return of the callee carries one, the old value of `dst` stays
//! live across the call.
//!
//! The artifact depends **only** on the program: any two builds over the
//! same (optimized) program are interchangeable, so callers cache it
//! behind `Arc` exactly like the analyzer's `AnalysisIndex` and share it
//! across machine runs. Execution semantics are bit-identical to the
//! IR's own (`ExecCtx::exec_inst`/`eval_term` on the IR's register
//! numbering): the same evaluation order, the same traps, the same
//! recorded memory accesses. [`ExecProgram::reference`] is that IR walk
//! as a program form — every body instruction a `Slow` record, every
//! terminator the IR's own, no allocation — the oracle the flattener,
//! the terminator predecode and the allocator are tested against.

use crate::exec::{CallArgs, ExecCtx, MemAccess, Next, Trap};
use crate::layout::NULL_GUARD;
use crate::memory::global_layout;
use threadfuser_ir::{
    AluOp, Base, BasicBlock, BlockId, Cond, FuncId, Function, Inst, MemRef, Operand, Program, Reg,
    Terminator,
};
use threadfuser_obs::{Obs, Phase};

/// Sentinel register index meaning "no index register".
const NO_REG: u16 = u16::MAX;

/// Predecoded memory reference: base resolved (globals to absolute
/// addresses), width in bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PMem {
    base: PBase,
    index_reg: u16,
    scale: u8,
    size: u8,
    disp: i64,
}

#[derive(Debug, Clone, Copy)]
enum PBase {
    Zero,
    Reg(u16),
    Frame,
    Abs(u64),
}

/// Predecoded terminator operand. Memory operands are boxed: they are
/// rare, and keeping `PVal` at 16 bytes keeps [`PTerm`] small.
#[derive(Debug, Clone)]
pub(crate) enum PVal {
    Reg(u16),
    Imm(i64),
    Mem(Box<PMem>),
}

/// Flat opcode: instruction shape × [`AluOp`] × address-base kind.
///
/// Memory opcodes are named `<Load|Store|Lea><base>[X]`: base `A` is an
/// absolute address (no base, or a global folded into `imm`), `R` the
/// register `a`, `F` the frame pointer; `X` adds `regs[b] << scale`.
/// `imm` is the displacement. A `Lea` of a bare absolute address is
/// just [`Op::MovI`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    // dst = regs[a] op regs[b]
    AddRR,
    SubRR,
    MulRR,
    DivRR,
    RemRR,
    AndRR,
    OrRR,
    XorRR,
    ShlRR,
    ShrRR,
    SarRR,
    MinRR,
    MaxRR,
    // dst = regs[a] op imm
    AddRI,
    SubRI,
    MulRI,
    DivRI,
    RemRI,
    AndRI,
    OrRI,
    XorRI,
    ShlRI,
    ShrRI,
    SarRI,
    MinRI,
    MaxRI,
    /// `dst = regs[a]`.
    MovR,
    /// `dst = imm`.
    MovI,
    Nop,
    // dst = mem[addr]
    LoadA,
    LoadAX,
    LoadR,
    LoadRX,
    LoadF,
    LoadFX,
    // mem[addr] = regs[dst]
    StoreA,
    StoreAX,
    StoreR,
    StoreRX,
    StoreF,
    StoreFX,
    // dst = addr
    LeaAX,
    LeaR,
    LeaRX,
    LeaF,
    LeaFX,
    /// Any other shape: `imm` indexes the IR instruction kept in
    /// [`ExecProgram`]'s side table.
    Slow,
}

/// One predecoded straight-line instruction. 16 bytes, so a cache line
/// holds four and the block body is one dense slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatInst {
    op: Op,
    /// Memory opcodes: access width in bytes (low nibble) and log2 of
    /// the index scale (high nibble).
    mem: u8,
    /// Destination register; the value register of a store.
    dst: u16,
    a: u16,
    b: u16,
    imm: i64,
}

/// What an executed [`FlatInst`] did besides updating registers and
/// memory; handed to the executor's callback as it happens.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    /// A load or store was performed.
    Mem(MemAccess),
    /// An opaque I/O operation of the given cost was skipped.
    Io(u32),
}

/// Predecoded terminator with pre-resolved successors.
#[derive(Debug, Clone)]
pub(crate) enum PTerm {
    Jmp(BlockId),
    /// Register-register compare-and-branch, operands inline. Loop
    /// back-edges and `if` headers overwhelmingly compare two registers
    /// (or a register and an immediate, below), so these two forms decide
    /// nearly every block transition without touching [`PVal`].
    BrRR {
        cond: Cond,
        a: u16,
        b: u16,
        taken: BlockId,
        fallthrough: BlockId,
    },
    /// Register-immediate compare-and-branch, operands inline.
    BrRI {
        cond: Cond,
        a: u16,
        b: i64,
        taken: BlockId,
        fallthrough: BlockId,
    },
    Br {
        cond: Cond,
        a: PVal,
        b: PVal,
        taken: BlockId,
        fallthrough: BlockId,
    },
    Switch {
        val: PVal,
        base: i64,
        targets: Box<[BlockId]>,
        default: BlockId,
    },
    Call {
        callee: FuncId,
        args: Box<[PVal]>,
        ret_to: BlockId,
        dst: Option<Reg>,
    },
    Ret {
        val: Option<PVal>,
    },
    Acquire {
        lock: PVal,
        next: BlockId,
    },
    Release {
        lock: PVal,
        next: BlockId,
    },
    Barrier {
        id: u32,
        next: BlockId,
    },
    /// The IR terminator itself, run by [`ExecCtx::eval_term`]: only
    /// [`ExecProgram::reference`] emits it. Boxed, so it does not widen
    /// the hot variants.
    Ir(Box<Terminator>),
}

impl PTerm {
    /// Whether evaluating the terminator can record a memory access.
    /// (Exercised by the equivalence tests; the interpreters learn the
    /// same fact from `eval_pterm`'s recorded accesses.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn touches_memory(&self) -> bool {
        let is_mem = |v: &PVal| matches!(v, PVal::Mem(_));
        match self {
            PTerm::Br { a, b, .. } => is_mem(a) || is_mem(b),
            PTerm::Switch { val, .. } | PTerm::Ret { val: Some(val) } => is_mem(val),
            PTerm::Ir(t) => match &**t {
                Terminator::Br { a, b, .. } => a.mem().is_some() || b.mem().is_some(),
                Terminator::Switch { val, .. } | Terminator::Ret { val: Some(val) } => {
                    val.mem().is_some()
                }
                Terminator::Jmp(_)
                | Terminator::Call { .. }
                | Terminator::Ret { val: None }
                | Terminator::Acquire { .. }
                | Terminator::Release { .. }
                | Terminator::Barrier { .. } => false,
            },
            PTerm::Jmp(_)
            | PTerm::BrRR { .. }
            | PTerm::BrRI { .. }
            | PTerm::Call { .. }
            | PTerm::Ret { val: None }
            | PTerm::Acquire { .. }
            | PTerm::Release { .. }
            | PTerm::Barrier { .. } => false,
        }
    }
}

/// One predecoded basic block: a range into the flat instruction array
/// plus the terminator.
#[derive(Debug, Clone)]
pub(crate) struct ExecBlock {
    inst_start: u32,
    inst_end: u32,
    /// Dynamic length: body instructions plus the terminator.
    pub(crate) n_insts: u32,
    pub(crate) term: PTerm,
}

/// Per-function metadata and block-offset table entry.
#[derive(Debug, Clone)]
pub(crate) struct ExecFunc {
    block_base: u32,
    pub(crate) entry: BlockId,
    /// Slots of the function's register file: its allocated registers.
    pub(crate) reg_count: u16,
    pub(crate) frame_size: u32,
}

/// The predecoded execution form of a whole program. Build it once with
/// [`ExecProgram::build`] (or [`ExecProgram::build_observed`] for a
/// `predecode` phase span), wrap it in an `Arc`, and hand it to every
/// machine over the same program via `MachineConfig::exec_program` /
/// `LockstepMachine::new_with_parts`. [`ExecProgram::reference`] is the
/// same program unflattened and unallocated, for tests to compare with.
#[derive(Debug)]
pub struct ExecProgram {
    funcs: Vec<ExecFunc>,
    blocks: Vec<ExecBlock>,
    insts: Vec<FlatInst>,
    /// IR instructions behind the [`Op::Slow`] records.
    slow: Vec<Inst>,
    n_globals: u32,
}

impl ExecProgram {
    /// Predecodes `program`, allocating each function's registers.
    pub fn build(program: &Program) -> Self {
        let globals = global_layout(program);
        let returns: Vec<Returns> = program.functions().iter().map(Returns::of).collect();
        let mut funcs = Vec::with_capacity(program.functions().len());
        let mut blocks = Vec::new();
        let mut insts = Vec::new();
        let mut slow = Vec::new();
        for f in program.functions() {
            let mut body = f.blocks.clone();
            funcs.push(ExecFunc {
                block_base: blocks.len() as u32,
                entry: f.entry,
                reg_count: allocate(f.params, f.entry, &mut body, &returns),
                frame_size: f.frame_size,
            });
            for b in &body {
                let inst_start = insts.len() as u32;
                insts.extend(b.insts.iter().map(|i| flatten_inst(i, &globals, &mut slow)));
                blocks.push(ExecBlock {
                    inst_start,
                    inst_end: insts.len() as u32,
                    n_insts: b.len_with_term(),
                    term: predecode_term(&b.term, &globals),
                });
            }
        }
        ExecProgram { funcs, blocks, insts, slow, n_globals: globals.len() as u32 }
    }

    /// The IR walk as an execution form: every body instruction is an
    /// `Op::Slow` record run by [`ExecCtx::exec_inst`], every terminator a
    /// `PTerm::Ir` run by [`ExecCtx::eval_term`], and a frame holds the
    /// function's IR registers. Traces, statistics, memory and faults equal
    /// [`ExecProgram::build`]'s, which makes it the oracle of the
    /// flattener, the terminator predecode and the register allocator.
    /// Hand it to a machine with `MachineConfig::exec_program`.
    pub fn reference(program: &Program) -> Self {
        let mut funcs = Vec::with_capacity(program.functions().len());
        let (mut blocks, mut insts, mut slow) = (Vec::new(), Vec::new(), Vec::new());
        for f in program.functions() {
            funcs.push(ExecFunc {
                block_base: blocks.len() as u32,
                entry: f.entry,
                reg_count: f.reg_count,
                frame_size: f.frame_size,
            });
            for b in &f.blocks {
                let inst_start = insts.len() as u32;
                insts.extend(b.insts.iter().map(|i| slow_record(i, &mut slow)));
                blocks.push(ExecBlock {
                    inst_start,
                    inst_end: insts.len() as u32,
                    n_insts: b.len_with_term(),
                    term: PTerm::Ir(Box::new(b.term.clone())),
                });
            }
        }
        ExecProgram { funcs, blocks, insts, slow, n_globals: program.globals().len() as u32 }
    }

    /// Predecodes `program` under a [`Phase::Predecode`] span, reporting
    /// `predecoded_insts` / `predecoded_blocks` counters.
    pub fn build_observed(program: &Program, obs: &Obs) -> Self {
        let span = obs.span(Phase::Predecode);
        let exec = Self::build(program);
        obs.counter(Phase::Predecode, "predecoded_insts", exec.insts.len() as u64);
        obs.counter(Phase::Predecode, "predecoded_blocks", exec.blocks.len() as u64);
        span.finish();
        exec
    }

    /// Whether this artifact was predecoded from a program with the same
    /// shape (cheap sanity check for cached sharing; the invalidation
    /// rule is "depends only on the program").
    pub fn matches(&self, program: &Program) -> bool {
        self.funcs.len() == program.functions().len()
            && self.n_globals as usize == program.globals().len()
            && self.insts.len() as u64 + self.blocks.len() as u64 == program.static_inst_count()
    }

    /// Total predecoded static instructions (bodies plus terminators).
    pub fn static_inst_count(&self) -> u64 {
        self.insts.len() as u64 + self.blocks.len() as u64
    }

    #[inline]
    pub(crate) fn func(&self, f: FuncId) -> &ExecFunc {
        &self.funcs[f.0 as usize]
    }

    #[inline]
    pub(crate) fn block(&self, f: FuncId, b: BlockId) -> &ExecBlock {
        &self.blocks[(self.funcs[f.0 as usize].block_base + b.0) as usize]
    }

    #[inline]
    pub(crate) fn body(&self, blk: &ExecBlock) -> &[FlatInst] {
        &self.insts[blk.inst_start as usize..blk.inst_end as usize]
    }
}

fn predecode_mem(m: &MemRef, globals: &[u64]) -> PMem {
    let base = match m.base {
        Base::None => PBase::Zero,
        Base::Reg(r) => PBase::Reg(r.0),
        Base::Frame => PBase::Frame,
        Base::Global(g) => PBase::Abs(globals[g.0 as usize]),
    };
    let (index_reg, scale) = match m.index {
        Some((r, s)) => (r.0, s),
        None => (NO_REG, 1),
    };
    PMem { base, index_reg, scale, size: m.size.bytes() as u8, disp: m.disp }
}

fn predecode_val(op: &Operand, globals: &[u64]) -> PVal {
    match op {
        Operand::Reg(r) => PVal::Reg(r.0),
        Operand::Imm(v) => PVal::Imm(*v),
        Operand::Mem(m) => PVal::Mem(Box::new(predecode_mem(m, globals))),
    }
}

/// The `(RR, RI)` opcode pair of an ALU operation.
fn alu_ops(op: AluOp) -> (Op, Op) {
    match op {
        AluOp::Add => (Op::AddRR, Op::AddRI),
        AluOp::Sub => (Op::SubRR, Op::SubRI),
        AluOp::Mul => (Op::MulRR, Op::MulRI),
        AluOp::Div => (Op::DivRR, Op::DivRI),
        AluOp::Rem => (Op::RemRR, Op::RemRI),
        AluOp::And => (Op::AndRR, Op::AndRI),
        AluOp::Or => (Op::OrRR, Op::OrRI),
        AluOp::Xor => (Op::XorRR, Op::XorRI),
        AluOp::Shl => (Op::ShlRR, Op::ShlRI),
        AluOp::Shr => (Op::ShrRR, Op::ShrRI),
        AluOp::Sar => (Op::SarRR, Op::SarRI),
        AluOp::Min => (Op::MinRR, Op::MinRI),
        AluOp::Max => (Op::MaxRR, Op::MaxRI),
    }
}

/// Opcode families indexed `[A, AX, R, RX, F, FX]`.
const LOAD: [Op; 6] = [Op::LoadA, Op::LoadAX, Op::LoadR, Op::LoadRX, Op::LoadF, Op::LoadFX];
const STORE: [Op; 6] = [Op::StoreA, Op::StoreAX, Op::StoreR, Op::StoreRX, Op::StoreF, Op::StoreFX];
const LEA: [Op; 6] = [Op::MovI, Op::LeaAX, Op::LeaR, Op::LeaRX, Op::LeaF, Op::LeaFX];

/// Flat record of a memory instruction over `m` with `reg` as its value
/// or destination register; `None` when the index scale is not a power
/// of two (the executor shifts).
fn flatten_mem(family: &[Op; 6], reg: u16, m: &MemRef, globals: &[u64]) -> Option<FlatInst> {
    let (kind, a, imm) = match m.base {
        Base::None => (0, 0, m.disp),
        Base::Global(g) => (0, 0, globals[g.0 as usize].wrapping_add(m.disp as u64) as i64),
        Base::Reg(r) => (2, r.0, m.disp),
        Base::Frame => (4, 0, m.disp),
    };
    let (indexed, b, shift) = match m.index {
        Some((r, scale)) if scale.is_power_of_two() => (1, r.0, scale.trailing_zeros() as u8),
        Some(_) => return None,
        None => (0, 0, 0),
    };
    let mem = m.size.bytes() as u8 | shift << 4;
    Some(FlatInst { op: family[kind + indexed], mem, dst: reg, a, b, imm })
}

/// Predecodes one body instruction, parking shapes without an opcode in
/// `slow`.
fn flatten_inst(inst: &Inst, globals: &[u64], slow: &mut Vec<Inst>) -> FlatInst {
    let rec =
        |op, dst: Reg, a: u16, b: u16, imm| Some(FlatInst { op, mem: 0, dst: dst.0, a, b, imm });
    let flat = match inst {
        Inst::Alu { op, dst, a: Operand::Reg(a), b: Operand::Reg(b) } => {
            rec(alu_ops(*op).0, *dst, a.0, b.0, 0)
        }
        Inst::Alu { op, dst, a: Operand::Reg(a), b: Operand::Imm(b) } => {
            rec(alu_ops(*op).1, *dst, a.0, 0, *b)
        }
        Inst::Mov { dst, src: Operand::Reg(r) } => rec(Op::MovR, *dst, r.0, 0, 0),
        Inst::Mov { dst, src: Operand::Imm(v) } => rec(Op::MovI, *dst, 0, 0, *v),
        Inst::Mov { dst, src: Operand::Mem(m) } => flatten_mem(&LOAD, dst.0, m, globals),
        Inst::Store { addr, src: Operand::Reg(r) } => flatten_mem(&STORE, r.0, addr, globals),
        Inst::Lea { dst, addr } => flatten_mem(&LEA, dst.0, addr, globals),
        Inst::Nop => rec(Op::Nop, Reg(0), 0, 0, 0),
        Inst::Alu { .. }
        | Inst::Store { .. }
        | Inst::Alloc { .. }
        | Inst::Free { .. }
        | Inst::Io { .. } => None,
    };
    flat.unwrap_or_else(|| slow_record(inst, slow))
}

/// An [`Op::Slow`] record for `inst`, parked in `slow`.
fn slow_record(inst: &Inst, slow: &mut Vec<Inst>) -> FlatInst {
    slow.push(inst.clone());
    FlatInst { op: Op::Slow, mem: 0, dst: 0, a: 0, b: 0, imm: slow.len() as i64 - 1 }
}

fn predecode_term(term: &Terminator, globals: &[u64]) -> PTerm {
    match term {
        Terminator::Jmp(t) => PTerm::Jmp(*t),
        Terminator::Br { cond, a: Operand::Reg(a), b: Operand::Reg(b), taken, fallthrough } => {
            PTerm::BrRR { cond: *cond, a: a.0, b: b.0, taken: *taken, fallthrough: *fallthrough }
        }
        Terminator::Br { cond, a: Operand::Reg(a), b: Operand::Imm(b), taken, fallthrough } => {
            PTerm::BrRI { cond: *cond, a: a.0, b: *b, taken: *taken, fallthrough: *fallthrough }
        }
        Terminator::Br { cond, a, b, taken, fallthrough } => PTerm::Br {
            cond: *cond,
            a: predecode_val(a, globals),
            b: predecode_val(b, globals),
            taken: *taken,
            fallthrough: *fallthrough,
        },
        Terminator::Switch { val, base, targets, default } => PTerm::Switch {
            val: predecode_val(val, globals),
            base: *base,
            targets: targets.clone().into_boxed_slice(),
            default: *default,
        },
        Terminator::Call { callee, args, ret_to, dst } => PTerm::Call {
            callee: *callee,
            args: args.iter().map(|a| predecode_val(a, globals)).collect(),
            ret_to: *ret_to,
            dst: *dst,
        },
        Terminator::Ret { val } => {
            PTerm::Ret { val: val.as_ref().map(|v| predecode_val(v, globals)) }
        }
        Terminator::Acquire { lock, next } => {
            PTerm::Acquire { lock: predecode_val(lock, globals), next: *next }
        }
        Terminator::Release { lock, next } => {
            PTerm::Release { lock: predecode_val(lock, globals), next: *next }
        }
        Terminator::Barrier { id, next } => PTerm::Barrier { id: *id, next: *next },
    }
}

/// How an instruction or terminator names a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    /// A call's `dst`: written at the return, if the callee returns a value.
    CallDst,
}

fn mem_regs(m: &mut MemRef, f: &mut impl FnMut(&mut Reg, Access)) {
    if let Base::Reg(r) = &mut m.base {
        f(r, Access::Read);
    }
    if let Some((r, _)) = &mut m.index {
        f(r, Access::Read);
    }
}

fn operand_regs(op: &mut Operand, f: &mut impl FnMut(&mut Reg, Access)) {
    match op {
        Operand::Reg(r) => f(r, Access::Read),
        Operand::Mem(m) => mem_regs(m, f),
        Operand::Imm(_) => {}
    }
}

/// Calls `f` on every register `inst` names, reads before the write.
fn inst_regs(inst: &mut Inst, mut f: impl FnMut(&mut Reg, Access)) {
    match inst {
        Inst::Alu { dst, a, b, .. } => {
            operand_regs(a, &mut f);
            operand_regs(b, &mut f);
            f(dst, Access::Write);
        }
        Inst::Mov { dst, src } => {
            operand_regs(src, &mut f);
            f(dst, Access::Write);
        }
        Inst::Store { addr, src } => {
            mem_regs(addr, &mut f);
            operand_regs(src, &mut f);
        }
        Inst::Lea { dst, addr } => {
            mem_regs(addr, &mut f);
            f(dst, Access::Write);
        }
        Inst::Alloc { dst, size } => {
            operand_regs(size, &mut f);
            f(dst, Access::Write);
        }
        Inst::Free { addr } => operand_regs(addr, &mut f),
        Inst::Io { .. } | Inst::Nop => {}
    }
}

/// Calls `f` on every register `term` names, reads before the write.
fn term_regs(term: &mut Terminator, mut f: impl FnMut(&mut Reg, Access)) {
    match term {
        Terminator::Br { a, b, .. } => {
            operand_regs(a, &mut f);
            operand_regs(b, &mut f);
        }
        Terminator::Switch { val, .. } => operand_regs(val, &mut f),
        Terminator::Call { args, dst, .. } => {
            args.iter_mut().for_each(|a| operand_regs(a, &mut f));
            if let Some(d) = dst {
                f(d, Access::CallDst);
            }
        }
        Terminator::Ret { val: Some(v) } => operand_regs(v, &mut f),
        Terminator::Acquire { lock, .. } | Terminator::Release { lock, .. } => {
            operand_regs(lock, &mut f)
        }
        Terminator::Jmp(_) | Terminator::Ret { val: None } | Terminator::Barrier { .. } => {}
    }
}

/// Calls `f` on every register of `b`, instruction by instruction.
fn block_regs(b: &mut BasicBlock, mut f: impl FnMut(&mut Reg, Access)) {
    b.insts.iter_mut().for_each(|i| inst_regs(i, &mut f));
    term_regs(&mut b.term, f);
}

/// Whether a function's returns carry a value: a call's `dst` is written
/// when the return it comes back from does.
#[derive(Debug, Clone, Copy)]
struct Returns {
    any: bool,
    all: bool,
}

impl Returns {
    fn of(f: &Function) -> Self {
        let vals = f.blocks.iter().filter_map(|b| match &b.term {
            Terminator::Ret { val } => Some(val.is_some()),
            _ => None,
        });
        vals.fold(Returns { any: false, all: true }, |r, v| Returns {
            any: r.any | v,
            all: r.all & v,
        })
    }

    /// `(defines, kills)` of an access: a write conflicts with what is live
    /// after it, and ends the old value's life when it always happens.
    fn effect(self, a: Access) -> (bool, bool) {
        match a {
            Access::Read => (false, false),
            Access::Write => (true, true),
            Access::CallDst => (self.any, self.all),
        }
    }
}

/// `rows` bitsets of one width in one allocation.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64);
        BitRows { words, bits: vec![0; rows * words] }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..][..self.words]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..][..self.words]
    }

    /// Records that `a` and `b` conflict.
    fn link(&mut self, a: usize, b: usize) {
        set(self.row_mut(a), b);
        set(self.row_mut(b), a);
    }
}

fn set(s: &mut [u64], i: usize) {
    s[i / 64] |= 1 << (i % 64);
}

fn ones(s: &[u64]) -> impl Iterator<Item = usize> + '_ {
    s.iter().enumerate().flat_map(|(i, &w)| {
        std::iter::successors(Some(w), |&w| Some(w & w.wrapping_sub(1)))
            .take_while(|&w| w != 0)
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
    })
}

/// The registers one instruction names, in visiting order.
type Named = Vec<(usize, Access)>;

fn named(visit: impl FnOnce(&mut dyn FnMut(&mut Reg, Access)), out: &mut Named) {
    out.clear();
    visit(&mut |r, a| out.push((r.0 as usize, a)));
}

/// The callee's [`Returns`] when `term` is a call (unknown callees count
/// as returning a value sometimes).
fn call_returns(term: &Terminator, returns: &[Returns]) -> Returns {
    match term {
        Terminator::Call { callee, .. } => {
            returns.get(callee.0 as usize).copied().unwrap_or(Returns { any: true, all: false })
        }
        _ => Returns { any: false, all: false },
    }
}

/// Steps `live` from the end of `b` back to its start, calling
/// `on_write(r, (defines, kills), live)` at each write of `r` with its
/// effect (see [`Returns::effect`]) and the registers live after it.
fn walk_back(
    b: &mut BasicBlock,
    returns: &[Returns],
    live: &mut [u64],
    regs: &mut Named,
    mut on_write: impl FnMut(usize, (bool, bool), &[u64]),
) {
    let call = call_returns(&b.term, returns);
    let mut step = |regs: &Named, live: &mut [u64]| {
        for &(r, a) in regs {
            let (defines, kills) = call.effect(a);
            if defines || kills {
                on_write(r, (defines, kills), live);
            }
            if kills {
                live[r / 64] &= !(1 << (r % 64));
            }
        }
        regs.iter().filter(|&&(_, a)| a == Access::Read).for_each(|&(r, _)| set(live, r));
    };
    named(|f| term_regs(&mut b.term, f), regs);
    step(regs, live);
    for inst in b.insts.iter_mut().rev() {
        named(|f| inst_regs(inst, f), regs);
        step(regs, live);
    }
}

/// Sets `out` to the registers live out of `b`: those live into one of
/// its successors.
fn live_out(b: &BasicBlock, live_in: &BitRows, out: &mut [u64]) {
    out.fill(0);
    for s in b.term.successors() {
        out.iter_mut().zip(live_in.row(s.0 as usize)).for_each(|(o, i)| *o |= i);
    }
}

/// The registers `0..n` live into each of `blocks`, by backward liveness.
/// One walk back sums each block up: `gen`, the registers it reads before
/// any write kills them, and `kill`, those it always writes. The fixed
/// point then iterates `live in = gen | (live out & !kill)` over those
/// bitsets, never over instructions.
fn live_in(blocks: &mut [BasicBlock], n: usize, returns: &[Returns]) -> BitRows {
    let mut live_in = BitRows::new(blocks.len(), n);
    let (mut gen, mut kill) = (BitRows::new(blocks.len(), n), BitRows::new(blocks.len(), n));
    let mut regs = Named::new();
    for (bi, b) in blocks.iter_mut().enumerate() {
        let kill = kill.row_mut(bi);
        walk_back(b, returns, gen.row_mut(bi), &mut regs, |r, (_, kills), _| {
            if kills {
                set(kill, r);
            }
        });
    }
    let mut live = vec![0u64; live_in.words];
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, b) in blocks.iter().enumerate().rev() {
            live_out(b, &live_in, &mut live);
            for ((l, g), k) in live.iter_mut().zip(gen.row(bi)).zip(kill.row(bi)) {
                *l = g | (*l & !k);
            }
            if live_in.row(bi) != live {
                live_in.row_mut(bi).copy_from_slice(&live);
                changed = true;
            }
        }
    }
    live_in
}

/// Allocates the registers of a function with `params` parameters and
/// body `blocks` (see the module docs) and renames `blocks` to the colors;
/// returns the number of slots its frame needs.
fn allocate(params: u16, entry: BlockId, blocks: &mut [BasicBlock], returns: &[Returns]) -> u16 {
    let params = params as usize;
    let mut n = params;
    blocks.iter_mut().for_each(|b| block_regs(b, |r, _| n = n.max(r.0 as usize + 1)));
    let live_in = live_in(blocks, n, returns);

    let mut conflicts = BitRows::new(n, n);
    let (mut live, mut regs) = (vec![0u64; live_in.words], Named::new());
    for b in blocks.iter_mut() {
        live_out(b, &live_in, &mut live);
        walk_back(b, returns, &mut live, &mut regs, |r, (defines, _), after| {
            if defines {
                ones(after).filter(|&x| x != r).for_each(|x| conflicts.link(r, x));
            }
        });
    }
    // The arguments are written before the entry block runs.
    for x in ones(live_in.row(entry.0 as usize)) {
        (0..params).filter(|&p| p != x).for_each(|p| conflicts.link(p, x));
    }

    const UNCOLORED: u16 = u16::MAX;
    let mut color: Vec<u16> =
        (0..n).map(|r| if r < params { r as u16 } else { UNCOLORED }).collect();
    let mut taken = vec![0u64; (n + 1).div_ceil(64)];
    // A register no instruction names conflicts with nothing and takes 0.
    for r in params..n {
        taken.fill(0);
        for x in ones(conflicts.row(r)).filter(|&x| color[x] != UNCOLORED) {
            set(&mut taken, color[x] as usize);
        }
        let free = taken.iter().position(|&w| w != u64::MAX).expect("n + 1 bits hold a free color");
        color[r] = (free * 64 + taken[free].trailing_ones() as usize) as u16;
    }
    for b in blocks.iter_mut() {
        block_regs(b, |r, _| *r = Reg(color[r.0 as usize]));
    }
    let used = color.iter().filter(|&&c| c != UNCOLORED).map(|&c| c + 1).max();
    used.unwrap_or(0).max(params as u16)
}

impl ExecCtx<'_> {
    #[inline]
    fn p_addr(&self, m: &PMem) -> u64 {
        let base = match m.base {
            PBase::Zero => 0,
            PBase::Reg(r) => self.regs[r as usize] as u64,
            PBase::Frame => self.fp,
            PBase::Abs(a) => a,
        };
        let index = if m.index_reg == NO_REG {
            0
        } else {
            (self.regs[m.index_reg as usize] as u64).wrapping_mul(m.scale as u64)
        };
        base.wrapping_add(index).wrapping_add(m.disp as u64)
    }

    #[inline]
    fn p_value(&mut self, v: &PVal, acc: &mut Vec<MemAccess>) -> Result<i64, Trap> {
        match v {
            PVal::Reg(r) => Ok(self.regs[*r as usize]),
            PVal::Imm(v) => Ok(*v),
            PVal::Mem(m) => {
                let addr = self.p_addr(m);
                if addr < NULL_GUARD {
                    return Err(Trap::NullDeref(addr));
                }
                let size = m.size as u32;
                acc.push(MemAccess { addr, size, is_store: false });
                Ok(self.mem.read(addr, size) as i64)
            }
        }
    }

    /// Executes one flat record: identical semantics, traps and access
    /// order to [`ExecCtx::exec_inst`] on the instruction it was
    /// predecoded from. Loads, stores and skipped I/O are reported to
    /// `on` as they happen (nothing is reported for an instruction that
    /// traps); `acc` is scratch for the [`Op::Slow`] shapes. This is the
    /// one place flat opcodes are interpreted — both machines call it.
    #[inline]
    pub(crate) fn exec_flat(
        &mut self,
        r: &FlatInst,
        exec: &ExecProgram,
        acc: &mut Vec<MemAccess>,
        mut on: impl FnMut(Effect),
    ) -> Result<(), Trap> {
        macro_rules! alu {
            ($op:ident, $b:expr) => {{
                let a = self.regs[r.a as usize];
                let v = AluOp::$op.eval(a, $b).ok_or(Trap::DivByZero)?;
                self.regs[r.dst as usize] = v;
            }};
        }
        macro_rules! rr {
            ($op:ident) => {
                alu!($op, self.regs[r.b as usize])
            };
        }
        macro_rules! ri {
            ($op:ident) => {
                alu!($op, r.imm)
            };
        }
        // Effective address: `$base` plus the displacement, `x` adds the
        // scaled index.
        macro_rules! ea {
            ($base:expr) => {
                ($base as u64).wrapping_add(r.imm as u64)
            };
            ($base:expr, x) => {
                ea!($base).wrapping_add((self.regs[r.b as usize] as u64) << (r.mem >> 4))
            };
        }
        macro_rules! load {
            ($addr:expr) => {{
                let (addr, size) = ($addr, (r.mem & 15) as u32);
                if addr < NULL_GUARD {
                    return Err(Trap::NullDeref(addr));
                }
                on(Effect::Mem(MemAccess { addr, size, is_store: false }));
                self.regs[r.dst as usize] = self.mem.read(addr, size) as i64;
            }};
        }
        macro_rules! store {
            ($addr:expr) => {{
                let (addr, size) = ($addr, (r.mem & 15) as u32);
                if addr < NULL_GUARD {
                    return Err(Trap::NullDeref(addr));
                }
                on(Effect::Mem(MemAccess { addr, size, is_store: true }));
                self.mem.write(addr, size, self.regs[r.dst as usize] as u64);
            }};
        }
        macro_rules! lea {
            ($addr:expr) => {
                self.regs[r.dst as usize] = $addr as i64
            };
        }
        match r.op {
            Op::AddRR => rr!(Add),
            Op::SubRR => rr!(Sub),
            Op::MulRR => rr!(Mul),
            Op::DivRR => rr!(Div),
            Op::RemRR => rr!(Rem),
            Op::AndRR => rr!(And),
            Op::OrRR => rr!(Or),
            Op::XorRR => rr!(Xor),
            Op::ShlRR => rr!(Shl),
            Op::ShrRR => rr!(Shr),
            Op::SarRR => rr!(Sar),
            Op::MinRR => rr!(Min),
            Op::MaxRR => rr!(Max),
            Op::AddRI => ri!(Add),
            Op::SubRI => ri!(Sub),
            Op::MulRI => ri!(Mul),
            Op::DivRI => ri!(Div),
            Op::RemRI => ri!(Rem),
            Op::AndRI => ri!(And),
            Op::OrRI => ri!(Or),
            Op::XorRI => ri!(Xor),
            Op::ShlRI => ri!(Shl),
            Op::ShrRI => ri!(Shr),
            Op::SarRI => ri!(Sar),
            Op::MinRI => ri!(Min),
            Op::MaxRI => ri!(Max),
            Op::MovR => self.regs[r.dst as usize] = self.regs[r.a as usize],
            Op::MovI => self.regs[r.dst as usize] = r.imm,
            Op::Nop => {}
            Op::LoadA => load!(ea!(0)),
            Op::LoadAX => load!(ea!(0, x)),
            Op::LoadR => load!(ea!(self.regs[r.a as usize])),
            Op::LoadRX => load!(ea!(self.regs[r.a as usize], x)),
            Op::LoadF => load!(ea!(self.fp)),
            Op::LoadFX => load!(ea!(self.fp, x)),
            Op::StoreA => store!(ea!(0)),
            Op::StoreAX => store!(ea!(0, x)),
            Op::StoreR => store!(ea!(self.regs[r.a as usize])),
            Op::StoreRX => store!(ea!(self.regs[r.a as usize], x)),
            Op::StoreF => store!(ea!(self.fp)),
            Op::StoreFX => store!(ea!(self.fp, x)),
            Op::LeaAX => lea!(ea!(0, x)),
            Op::LeaR => lea!(ea!(self.regs[r.a as usize])),
            Op::LeaRX => lea!(ea!(self.regs[r.a as usize], x)),
            Op::LeaF => lea!(ea!(self.fp)),
            Op::LeaFX => lea!(ea!(self.fp, x)),
            Op::Slow => match &exec.slow[r.imm as usize] {
                Inst::Io { cost, .. } => on(Effect::Io(*cost)),
                inst => {
                    acc.clear();
                    self.exec_inst(inst, acc)?;
                    acc.iter().for_each(|a| on(Effect::Mem(*a)));
                }
            },
        }
        Ok(())
    }

    /// Predecoded twin of [`ExecCtx::eval_term`].
    pub(crate) fn eval_pterm(
        &mut self,
        term: &PTerm,
        acc: &mut Vec<MemAccess>,
    ) -> Result<Next, Trap> {
        Ok(match term {
            PTerm::Jmp(t) => Next::Goto(*t),
            PTerm::BrRR { cond, a, b, taken, fallthrough } => {
                let av = self.regs[*a as usize];
                let bv = self.regs[*b as usize];
                Next::Goto(if cond.eval(av, bv) { *taken } else { *fallthrough })
            }
            PTerm::BrRI { cond, a, b, taken, fallthrough } => {
                let av = self.regs[*a as usize];
                Next::Goto(if cond.eval(av, *b) { *taken } else { *fallthrough })
            }
            PTerm::Br { cond, a, b, taken, fallthrough } => {
                let av = self.p_value(a, acc)?;
                let bv = self.p_value(b, acc)?;
                Next::Goto(if cond.eval(av, bv) { *taken } else { *fallthrough })
            }
            PTerm::Switch { val, base, targets, default } => {
                let v = self.p_value(val, acc)?;
                let idx = v.wrapping_sub(*base);
                let t = if idx >= 0 && (idx as usize) < targets.len() {
                    targets[idx as usize]
                } else {
                    *default
                };
                Next::Goto(t)
            }
            PTerm::Call { callee, args, ret_to, dst } => {
                let mut vals = CallArgs::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(self.p_value(a, acc)?);
                }
                Next::Call { callee: *callee, args: vals, ret_to: *ret_to, dst: *dst }
            }
            PTerm::Ret { val } => {
                let v = match val {
                    Some(v) => Some(self.p_value(v, acc)?),
                    None => None,
                };
                Next::Ret(v)
            }
            PTerm::Acquire { lock, next } => {
                let l = self.p_value(lock, acc)? as u64;
                Next::Acquire { lock: l, next: *next }
            }
            PTerm::Release { lock, next } => {
                let l = self.p_value(lock, acc)? as u64;
                Next::Release { lock: l, next: *next }
            }
            PTerm::Barrier { id, next } => Next::Barrier { id: *id, next: *next },
            PTerm::Ir(t) => return self.eval_term(t, acc),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::memory::Memory;
    use threadfuser_ir::ProgramBuilder;

    fn build_demo() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let g = pb.global_i64("g", &[11, 22]);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let src = fb.global_ref(g, Operand::Reg(tid), 8);
            let v = fb.load(src);
            let v2 = fb.alu(AluOp::Add, v, 5i64);
            fb.store(src, v2);
            fb.ret(Some(Operand::Reg(v2)));
        });
        (pb.build().unwrap(), k)
    }

    #[test]
    fn flat_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<FlatInst>(), 16);
    }

    /// `PTerm::Ir` is boxed: the reference form's terminator does not
    /// widen the blocks every run fetches.
    #[test]
    fn the_ir_terminator_keeps_the_block_size() {
        assert_eq!(std::mem::size_of::<PTerm>(), 48);
        assert_eq!(std::mem::size_of::<ExecBlock>(), 64);
    }

    #[test]
    fn predecode_resolves_globals_to_absolute_addresses() {
        let (p, k) = build_demo();
        let exec = ExecProgram::build(&p);
        assert!(exec.matches(&p));
        let blk = exec.block(k, p.function(k).entry);
        let load = &exec.body(blk)[0];
        assert_eq!(load.op, Op::LoadAX, "global base + scaled index, got {load:?}");
        assert_eq!(load.imm as u64, global_layout(&p)[0]);
        assert_eq!(load.mem, 8 | 3 << 4, "8-byte access, index scaled by 1 << 3");
        assert!(exec.slow.is_empty());
    }

    /// What a straight-line run leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        regs: Vec<i64>,
        accesses: Vec<MemAccess>,
        /// Final contents of every accessed address.
        stored: Vec<u64>,
        io: u64,
        trap: Option<Trap>,
    }

    /// Runs `insts` (registers start as `regs`, frame on thread 0's
    /// stack, no globals) through the IR executor and through their flat
    /// records, asserts both leave the same [`Outcome`], and returns it.
    fn run_both(insts: &[Inst], regs: &[i64]) -> Outcome {
        let fp = crate::layout::stack_top(0) - 256;
        let run = |flat: bool| {
            let mut slow = Vec::new();
            let body: Vec<FlatInst> =
                insts.iter().map(|i| flatten_inst(i, &[], &mut slow)).collect();
            let exec = ExecProgram {
                funcs: Vec::new(),
                blocks: Vec::new(),
                insts: body,
                slow,
                n_globals: 0,
            };
            let mut regs = regs.to_vec();
            let (mut mem, mut heap) = (Memory::new(), Heap::new());
            let mut ctx = ExecCtx { regs: &mut regs, fp, mem: &mut mem, heap: &mut heap };
            let (mut accesses, mut io, mut trap) = (Vec::new(), 0u64, None);
            let mut acc = Vec::new();
            for (inst, rec) in insts.iter().zip(&exec.insts) {
                let done = if flat {
                    ctx.exec_flat(rec, &exec, &mut acc, |e| match e {
                        Effect::Mem(a) => accesses.push(a),
                        Effect::Io(cost) => io += cost as u64,
                    })
                } else if let Inst::Io { cost, .. } = inst {
                    // The interpreters skip I/O without executing it.
                    io += *cost as u64;
                    Ok(())
                } else {
                    acc.clear();
                    ctx.exec_inst(inst, &mut acc).map(|()| accesses.extend_from_slice(&acc))
                };
                if let Err(t) = done {
                    trap = Some(t);
                    break;
                }
            }
            let stored = accesses.iter().map(|a| mem.read(a.addr, 8)).collect();
            Outcome { regs, accesses, stored, io, trap }
        };
        let ir = run(false);
        assert_eq!(ir, run(true), "flat records diverged from the IR executor");
        ir
    }

    fn alu(op: AluOp, dst: u16, a: u16, b: impl Into<Operand>) -> Inst {
        Inst::Alu { op, dst: Reg(dst), a: Operand::Reg(Reg(a)), b: b.into() }
    }

    #[test]
    fn alu_edges_match_the_ir_executor() {
        // r0 = i64::MIN, r1 = -1, r2 = 64, r3 = 65, r4 = 7; results from r5.
        let regs = [i64::MIN, -1, 64, 65, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let out = run_both(
            &[
                alu(AluOp::Div, 5, 0, Reg(1)), // MIN / -1 wraps to MIN
                alu(AluOp::Div, 6, 0, -1i64),
                alu(AluOp::Rem, 7, 0, Reg(1)), // MIN % -1 wraps to 0
                alu(AluOp::Rem, 8, 0, -1i64),
                alu(AluOp::Shl, 9, 4, Reg(2)), // count 64 masks to 0
                alu(AluOp::Shl, 10, 4, 65i64), // count 65 masks to 1
                alu(AluOp::Shr, 11, 1, Reg(3)),
                alu(AluOp::Sar, 12, 0, -1i64), // count -1 masks to 63
                alu(AluOp::Min, 13, 0, Reg(4)),
                alu(AluOp::Max, 14, 0, 7i64),
                alu(AluOp::Min, 15, 4, -1i64),
                alu(AluOp::Max, 16, 1, Reg(4)),
            ],
            &regs,
        );
        assert_eq!(out.trap, None);
        assert_eq!(
            out.regs[5..],
            [i64::MIN, i64::MIN, 0, 0, 7, 14, i64::MAX, -1, i64::MIN, 7, -1, 7]
        );
    }

    #[test]
    fn narrow_loads_zero_extend() {
        use threadfuser_ir::AccessSize::{B1, B2, B4, B8};
        let load =
            |dst, size| Inst::Mov { dst: Reg(dst), src: Operand::Mem(MemRef::frame(8, size)) };
        let out = run_both(
            &[
                Inst::Store { addr: MemRef::frame(8, B8), src: Operand::Reg(Reg(0)) },
                load(1, B1),
                load(2, B2),
                load(3, B4),
                load(4, B8),
                // A narrow store leaves the neighbouring bytes alone.
                Inst::Store { addr: MemRef::frame(9, B2), src: Operand::Reg(Reg(5)) },
                load(6, B8),
            ],
            &[-1, 0, 0, 0, 0, 0, 0],
        );
        assert_eq!(out.regs[1..5], [0xFF, 0xFFFF, 0xFFFF_FFFF, -1]);
        assert_eq!(out.regs[6] as u64, 0xFFFF_FFFF_FF00_00FF);
        assert_eq!(out.accesses.len(), 7);
    }

    #[test]
    fn every_base_and_index_kind_matches_the_ir_executor() {
        use threadfuser_ir::AccessSize::B4;
        let abs = crate::layout::GLOBAL_BASE as i64;
        let refs = [
            MemRef { base: Base::None, index: None, disp: abs, size: B4 },
            MemRef { base: Base::None, index: Some((Reg(1), 4)), disp: abs, size: B4 },
            MemRef::reg(Reg(0), 12, B4),
            MemRef::reg_index(Reg(0), Reg(1), 8, -4, B4),
            MemRef::frame(16, B4),
            MemRef { base: Base::Frame, index: Some((Reg(1), 2)), disp: 0, size: B4 },
        ];
        let mut insts = Vec::new();
        for (i, m) in refs.iter().enumerate() {
            insts.push(Inst::Store { addr: *m, src: Operand::Reg(Reg(2)) });
            insts.push(Inst::Mov { dst: Reg(3 + i as u16), src: Operand::Mem(*m) });
            insts.push(Inst::Lea { dst: Reg(9 + i as u16), addr: *m });
        }
        let out =
            run_both(&insts, &[abs + 64, 3, 0x1_2345_6789, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(out.trap, None);
        assert_eq!(out.regs[3..9], [0x2345_6789; 6]);
        assert_eq!(out.regs[9], abs, "lea of an absolute address is a move-immediate");
        assert_eq!(out.regs[12], abs + 64 + 24 - 4);
    }

    #[test]
    fn shapes_without_an_opcode_keep_their_ir_instruction() {
        use threadfuser_ir::AccessSize::B8;
        let slot = MemRef::frame(0, B8);
        let insts = [
            Inst::Store { addr: slot, src: Operand::Imm(7) }, // store-immediate
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Mem(slot), // ALU with a memory operand
            },
            Inst::Alu {
                op: AluOp::Sub,
                dst: Reg(2),
                a: Operand::Imm(100),
                b: Operand::Reg(Reg(1)),
            },
            // Index scale 24: only an unvalidated (deserialized) program
            // can carry one, and the flat form shifts.
            Inst::Lea { dst: Reg(3), addr: MemRef::reg_index(Reg(0), Reg(0), 24, 0, B8) },
            Inst::Io { kind: threadfuser_ir::IoKind::Read, cost: 9 },
            Inst::Alloc { dst: Reg(4), size: Operand::Reg(Reg(0)) },
            Inst::Free { addr: Operand::Reg(Reg(4)) },
        ];
        let mut slow = Vec::new();
        let body: Vec<FlatInst> = insts.iter().map(|i| flatten_inst(i, &[], &mut slow)).collect();
        assert!(body.iter().all(|r| r.op == Op::Slow), "{body:?}");
        assert_eq!(slow, insts);

        let out = run_both(&insts, &[5, 0, 0, 0, 0]);
        assert_eq!(out.trap, None);
        assert_eq!(out.regs[..4], [5, 12, 88, 5 + 5 * 24]);
        assert_eq!(out.regs[4] as u64, crate::layout::HEAP_BASE);
        assert_eq!(out.io, 9);
        assert_eq!(out.accesses.len(), 2);
    }

    #[test]
    fn faults_stop_at_the_same_instruction_with_the_same_trap() {
        use threadfuser_ir::AccessSize::B8;
        let store = Inst::Store { addr: MemRef::frame(0, B8), src: Operand::Reg(Reg(0)) };
        let cases = [
            (alu(AluOp::Div, 1, 0, Reg(2)), Trap::DivByZero),
            (alu(AluOp::Rem, 1, 0, 0i64), Trap::DivByZero),
            (
                Inst::Mov { dst: Reg(1), src: Operand::Mem(MemRef::reg(Reg(2), 8, B8)) },
                Trap::NullDeref(8),
            ),
            (
                Inst::Store {
                    addr: MemRef::reg_index(Reg(2), Reg(0), 8, 0, B8),
                    src: Operand::Reg(Reg(0)),
                },
                Trap::NullDeref(24),
            ),
            (Inst::Free { addr: Operand::Reg(Reg(0)) }, Trap::InvalidFree(3)),
        ];
        for (faulting, trap) in cases {
            let out = run_both(&[store.clone(), faulting, store.clone()], &[3, 0, 0]);
            assert_eq!(out.trap, Some(trap));
            assert_eq!(out.accesses.len(), 1, "the access before the fault, nothing after");
        }
        // A null-page address is fine as long as nothing dereferences it.
        let lea = Inst::Lea { dst: Reg(1), addr: MemRef::reg(Reg(2), 8, B8) };
        assert_eq!(run_both(&[lea], &[0, 0, 0]).regs[1], 8);
    }

    #[test]
    fn predecoded_exec_matches_legacy_exec() {
        let (p, k) = build_demo();
        let exec = ExecProgram::build(&p);
        let f = p.function(k);
        let e = f.entry.0 as usize;
        let blk = exec.block(k, f.entry);
        assert_eq!(blk.n_insts, f.block(f.entry).len_with_term());

        // Each IR register's slot, read off a renamed copy of the body.
        let returns: Vec<Returns> = p.functions().iter().map(Returns::of).collect();
        let (mut ir, mut renamed) = (f.blocks.clone(), f.blocks.clone());
        let n_slots = allocate(f.params, f.entry, &mut renamed, &returns);
        assert_eq!(n_slots, exec.func(k).reg_count);
        assert!(n_slots < f.reg_count, "the demo's registers share slots");
        let (mut names, mut slots) = (Vec::new(), Vec::new());
        block_regs(&mut ir[e], |r, _| names.push(r.0 as usize));
        block_regs(&mut renamed[e], |r, _| slots.push(r.0 as usize));
        let slot_of = |r: usize| slots[names.iter().position(|&x| x == r).expect("named")];
        // Registers live at the end of the body: live out of the block or
        // read by its terminator.
        let live_in = live_in(&mut ir, f.reg_count as usize, &returns);
        let mut live = vec![0u64; live_in.words];
        live_out(&ir[e], &live_in, &mut live);
        let mut at_end: Vec<usize> = ones(&live).collect();
        term_regs(&mut ir[e].term, |r, a| {
            if a == Access::Read {
                at_end.push(r.0 as usize);
            }
        });
        assert!(!at_end.is_empty());

        // Run the same block body through both forms and compare: the
        // reference walks the IR (`exec_inst`, `eval_term`) on its registers.
        let run = |form: &ExecProgram| {
            let blk = form.block(k, f.entry);
            let mut regs = vec![0i64; form.func(k).reg_count as usize];
            regs[0] = 1; // tid
            let mut mem = Memory::with_globals(&p);
            let mut heap = Heap::new();
            let fp = crate::layout::stack_top(0) - f.frame_size as u64;
            let (mut acc, mut scratch) = (Vec::new(), Vec::new());
            let mut ctx = ExecCtx { regs: &mut regs, fp, mem: &mut mem, heap: &mut heap };
            for rec in form.body(blk) {
                ctx.exec_flat(rec, form, &mut scratch, |e| match e {
                    Effect::Mem(a) => acc.push(a),
                    Effect::Io(_) => panic!("no I/O in the demo"),
                })
                .unwrap();
            }
            let next = ctx.eval_pterm(&blk.term, &mut acc).unwrap();
            (regs.clone(), (acc, next, mem.read(global_layout(&p)[0] + 8, 8)))
        };
        let reference = ExecProgram::reference(&p);
        let ((ir_regs, walked), (slot_regs, predecoded)) = (run(&reference), run(&exec));
        assert_eq!(walked, predecoded);
        for r in at_end {
            assert_eq!(ir_regs[r], slot_regs[slot_of(r)], "r{r} and its slot {}", slot_of(r));
        }
    }

    /// The catalog's 41 kernels name 9 452 registers over O0–O3 and need
    /// 997 slots (EXPERIMENTS.md "Allocated registers"): any change to
    /// liveness or coloring that moves a slot moves this total.
    #[test]
    fn catalog_kernels_need_997_slots() {
        let mut slots = 0;
        for w in threadfuser_workloads::all() {
            for opt in threadfuser_ir::OptLevel::ALL {
                slots += ExecProgram::build(&opt.apply(&w.program)).func(w.kernel).reg_count as u32;
            }
        }
        assert_eq!(slots, 997);
    }

    #[test]
    fn touches_memory_matches_ir() {
        let (p, _) = build_demo();
        let exec = ExecProgram::build(&p);
        for (fi, f) in p.functions().iter().enumerate() {
            for (bi, b) in f.iter_blocks() {
                let blk = exec.block(FuncId(fi as u32), bi);
                assert_eq!(b.term.mem_read().is_some(), blk.term.touches_memory());
            }
        }
        // The IR terminators of the reference form say the same as their
        // predecoded twins, over the catalog.
        for w in threadfuser_workloads::all() {
            let p = threadfuser_ir::OptLevel::O0.apply(&w.program);
            let (exec, reference) = (ExecProgram::build(&p), ExecProgram::reference(&p));
            for (e, r) in exec.blocks.iter().zip(&reference.blocks) {
                assert_eq!(e.term.touches_memory(), r.term.touches_memory(), "{:?}", r.term);
            }
        }
    }

    /// The reference form is the IR walk itself, so the engine-identity
    /// tests check the flattener, the terminator predecode and the
    /// allocator against the IR's semantics. Were it to flatten, predecode
    /// or allocate, they would check those against themselves.
    #[test]
    fn reference_form_is_the_ir_walk() {
        for w in threadfuser_workloads::all() {
            let p = threadfuser_ir::OptLevel::O3.apply(&w.program);
            let reference = ExecProgram::reference(&p);
            let name = w.meta.name;
            assert!(reference.matches(&p), "{name}");
            assert!(reference.insts.iter().all(|r| r.op == Op::Slow), "{name}: a flat record");
            assert!(reference.blocks.iter().all(|b| matches!(b.term, PTerm::Ir(_))), "{name}");
            let ir = p.functions().iter().flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts));
            assert!(reference.slow.iter().eq(ir), "{name}: the IR's instructions, in order");
            for (fi, f) in p.functions().iter().enumerate() {
                assert_eq!(reference.func(FuncId(fi as u32)).reg_count, f.reg_count, "{name}");
            }
        }
    }
}
