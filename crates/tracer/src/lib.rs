#![warn(missing_docs)]

//! # ThreadFuser tracer
//!
//! The PIN-tool equivalent of the framework: it attaches to the MIMD
//! machine through [`threadfuser_machine::ExecHook`] and records, per
//! thread, the dynamic event stream the analyzer consumes — executed basic
//! blocks, per-instruction memory accesses, function call/return points,
//! synchronization primitives with their lock addresses, and the counts of
//! skipped (I/O and lock-spin) instructions (paper §III, Fig. 8).
//!
//! Like the paper's tool, tracing is configurable: individual functions can
//! be excluded, in which case everything executed below them is dropped
//! from the trace but still counted.
//!
//! ## Quick start
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, Operand};
//! use threadfuser_machine::MachineConfig;
//! use threadfuser_tracer::trace_program;
//!
//! let mut pb = ProgramBuilder::new();
//! let out = pb.global("out", 8 * 4);
//! let k = pb.function("k", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
//!     fb.store(dst, tid);
//!     fb.ret(None);
//! });
//! let program = pb.build().unwrap();
//! let (traces, _stats) = trace_program(&program, MachineConfig::new(k, 4)).unwrap();
//! assert_eq!(traces.threads().len(), 4);
//! ```

pub mod capture;
pub mod chunked;
mod class;
pub mod encode;
pub mod events;

pub use capture::{
    trace_program, trace_program_observed, trace_program_with, Tracer, TracerConfig,
};
pub use chunked::{
    encode_v3, encode_v3_with, ChunkInfo, DecodedChunk, TraceSetReader, DEFAULT_CHUNK_BYTES,
};
pub use encode::{
    decode, decode_observed, decode_with, DecodeError, DecodeErrorKind, DecodeLimits,
    DecodeOptions, Decoded, ProgramShape, Quarantined, ValidationPolicy,
};
pub use events::{
    read_addr, EventIter, MemRec, MemSlice, SideEvent, ThreadTrace, TraceCursor, TraceEvent,
    TraceSet,
};
