#![warn(missing_docs)]

//! # ThreadFuser IR (TFIR)
//!
//! A small CISC-flavoured register IR standing in for the x86 binaries the
//! ThreadFuser paper traces with Intel PIN. Instructions may carry one memory
//! operand (like x86), so the warp-trace generator's CISC→RISC decomposition
//! step is exercised exactly as in the paper.
//!
//! The crate provides:
//!
//! * the instruction set ([`Inst`], [`Terminator`], [`Operand`], [`MemRef`]),
//! * whole programs ([`Program`], [`Function`], [`BasicBlock`]) with
//!   validation,
//! * a [`ProgramBuilder`]/[`FunctionBuilder`] pair that emits *naive* code —
//!   every source-level variable lives in a stack-frame slot, as an
//!   unoptimized compiler would produce,
//! * static control-flow utilities ([`mod@cfg`]) including the generic immediate
//!   post-dominator (IPDOM) solver shared with the trace analyzer, and
//! * an optimizer ([`opt`]) with levels `O0`–`O3` modelling the gcc
//!   optimization sweep of the paper's correlation study (store-to-load
//!   forwarding, whole-function register promotion, loop unrolling,
//!   compare-chain → jump-table conversion).
//!
//! ## Example
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, Operand, AluOp};
//!
//! let mut pb = ProgramBuilder::new();
//! let data = pb.global("data", 1024);
//! pb.function("worker", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let i = fb.var(8);
//!     fb.store_var(i, Operand::Reg(tid));
//!     let v = fb.load_var(i);
//!     let doubled = fb.alu(AluOp::Add, Operand::Reg(v), Operand::Reg(v));
//!     let dst = fb.global_ref(data, Operand::Reg(tid), 8);
//!     fb.store(dst, Operand::Reg(doubled));
//!     fb.ret(Some(Operand::Reg(doubled)));
//! });
//! let program = pb.build().expect("valid program");
//! assert_eq!(program.functions().len(), 1);
//! ```

pub mod builder;
pub mod cfg;
pub mod ids;
pub mod inst;
pub mod opt;
pub mod pretty;
pub mod program;

pub use builder::{FunctionBuilder, ProgramBuilder, Slot};
pub use cfg::{ipdom_of_csr, FuncCfg};
pub use ids::{BlockAddr, BlockId, FuncId, GlobalId, Reg};
pub use inst::{AccessSize, AluOp, Base, Cond, Inst, IoKind, MemRef, Operand, Terminator};
pub use opt::OptLevel;
pub use program::{BasicBlock, Function, Global, Program, ValidateError};
