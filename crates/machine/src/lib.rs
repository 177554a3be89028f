#![warn(missing_docs)]

//! # ThreadFuser machine
//!
//! Execution substrates for the ThreadFuser framework:
//!
//! * [`Machine`] — the **MIMD multicore machine**: a deterministic
//!   round-robin interpreter running one TFIR kernel invocation per logical
//!   thread, with pthread-style mutexes, barriers, a shared heap, and
//!   per-thread stacks. The tracer attaches through [`ExecHook`] exactly as
//!   the paper's PIN tool attaches to an x86 process.
//! * [`LockstepMachine`] — the **warp-native lock-step executor**: the
//!   "SIMT hardware" ground truth the trace-based analyzer is correlated
//!   against (paper Fig. 5), complete with a hardware SIMT reconvergence
//!   stack and 32-byte-transaction coalescing.
//!
//! Both modes share one instruction executor ([`exec`]) and one call-frame
//! rule, guaranteeing identical semantics on both sides of the correlation
//! study. The lock-step machine and the analyzer's trace emulator share
//! one SIMT split machine ([`simt`]) and one memory-instruction counting
//! rule ([`count_mem_inst`]), so the rule the study compares is written
//! once.

pub mod exec;
pub mod heap;
pub mod hooks;
pub mod layout;
pub mod lockstep;
pub mod memory;
pub mod mimd;
pub mod predecode;
pub mod simt;

pub use exec::{ExecCtx, MemAccess, Next, Trap};
pub use heap::{Heap, HeapError};
pub use hooks::{ExecHook, NoopHook, SkipKind};
pub use layout::{count_mem_inst, segment_of, Segment, SegmentTraffic};
pub use lockstep::{LockstepConfig, LockstepError, LockstepMachine, LockstepStats};
pub use memory::Memory;
pub use mimd::{Machine, MachineConfig, MachineError, RunStats, ThreadStats};
pub use predecode::ExecProgram;
