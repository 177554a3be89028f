//! Dynamic Control-Flow Graph construction (paper §III, Fig. 3b).
//!
//! The analyzer rebuilds each function's CFG *from the traces alone*:
//! consecutive block events of one thread (at the same call depth) yield
//! successor edges; a `Ret` yields an edge to the function's **virtual
//! exit block**, which forces divergent threads to reconverge at function
//! end exactly like the paper's per-function DCFG. Per-thread graphs are
//! merged into a unified graph, then the same iterative IPDOM solver used
//! by the hardware model runs on it.
//!
//! Discovery does not walk the traces itself: the index build's fused
//! per-thread walk ([`crate::AnalysisIndex::build`]) feeds a `DcfgScan`
//! — per-function edge sets that deduplicate at insert — and
//! `DcfgSet::solve` turns the merged scan into CSR graphs with IPDOMs.
//!
//! Because the DCFG only contains *observed* edges, its IPDOMs can be less
//! conservative than the static CFG's when some static path was never
//! exercised — a property the paper shares.

use std::collections::HashSet;
use threadfuser_ir::{ipdom_of_csr, BlockId, FuncId, Program};
use threadfuser_obs::{Obs, Phase};

/// The dynamic CFG of one function, with solved IPDOMs.
///
/// Adjacency is CSR: one packed, per-node-sorted successor array plus an
/// offset table — two allocations per function instead of one `Vec` per
/// block, and the IPDOM solver consumes it without flattening.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Dcfg {
    n_blocks: usize,
    /// `edge_off[u]..edge_off[u + 1]` bounds node `u`'s run in `edges`.
    /// Length `n_blocks + 2` (blocks, then the virtual exit's empty run).
    edge_off: Vec<u32>,
    /// Successor node indices, ascending within each node's run.
    edges: Vec<u32>,
    ipdom: Vec<Option<usize>>,
    observed: Vec<bool>,
}

impl Dcfg {
    /// Node index of the virtual exit.
    pub fn virtual_exit(&self) -> usize {
        self.n_blocks
    }

    /// Immediate post-dominator of a block in the dynamic graph, if it can
    /// reach the virtual exit.
    pub fn ipdom(&self, b: BlockId) -> Option<usize> {
        self.ipdom.get(b.0 as usize).copied().flatten()
    }

    /// Whether the block was ever executed by any thread.
    pub fn observed(&self, b: BlockId) -> bool {
        self.observed.get(b.0 as usize).copied().unwrap_or(false)
    }

    /// Observed successor nodes of a block, ascending.
    pub fn succs(&self, b: BlockId) -> &[u32] {
        let u = b.0 as usize;
        &self.edges[self.edge_off[u] as usize..self.edge_off[u + 1] as usize]
    }
}

/// Functions with at most this many blocks keep their discovered edges in
/// a dense bit-matrix (one row of `n_blocks + 1` bits per source block, at
/// most ~32 KiB per function and worker); larger ones fall back to a hash
/// set of packed `from << 32 | to` pairs. Either way an edge is
/// deduplicated the moment it is inserted, so discovery scratch is
/// O(unique edges), never O(dynamic events).
pub(crate) const DENSE_MAX_BLOCKS: usize = 512;

/// One function's deduplicating edge set during discovery.
#[derive(Debug)]
enum EdgeSet {
    /// Never entered by this scan: no frame of the function was pushed.
    Untouched,
    /// Row-major bit-matrix: bit `to` of row `from` (rows are
    /// `words_per_row` words; the virtual exit is column `n_blocks`).
    Dense { words_per_row: usize, rows: Vec<u64> },
    /// Packed `from << 32 | to` pairs.
    Sparse(HashSet<u64>),
}

#[derive(Debug)]
struct FuncScan {
    n_blocks: usize,
    observed: Vec<bool>,
    edges: EdgeSet,
}

/// DCFG discovery state of one trace walk (or of several, merged): per
/// function, which blocks ran and which `(from, to)` edges were taken.
///
/// The index build gives every worker its own scan, feeds it from the
/// fused per-thread walk, and ORs the workers' scans together in worker
/// order. Set union is commutative, so the merged scan — and the
/// [`DcfgSet`] solved from it — does not depend on how threads were
/// partitioned.
#[derive(Debug)]
pub(crate) struct DcfgScan {
    funcs: Vec<FuncScan>,
}

impl DcfgScan {
    /// An empty scan over `program`'s functions. Per-function storage is
    /// allocated on first [`DcfgScan::enter`], so functions a worker never
    /// sees cost it nothing.
    pub(crate) fn new(program: &Program) -> Self {
        let funcs = program
            .functions()
            .iter()
            .map(|f| FuncScan {
                n_blocks: f.blocks.len(),
                observed: Vec::new(),
                edges: EdgeSet::Untouched,
            })
            .collect();
        DcfgScan { funcs }
    }

    /// Number of functions in the program.
    pub(crate) fn n_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Block count of function `fi` — the node index of its virtual exit.
    #[inline]
    pub(crate) fn n_blocks(&self, fi: usize) -> usize {
        self.funcs[fi].n_blocks
    }

    /// Prepares function `fi` for [`DcfgScan::block`] / [`DcfgScan::edge`].
    /// Called when a frame of the function is pushed — calls are sparse,
    /// which keeps the allocation check off the per-block path.
    pub(crate) fn enter(&mut self, fi: usize) {
        let f = &mut self.funcs[fi];
        if !matches!(f.edges, EdgeSet::Untouched) {
            return;
        }
        f.observed = vec![false; f.n_blocks];
        f.edges = if f.n_blocks <= DENSE_MAX_BLOCKS {
            let words_per_row = (f.n_blocks + 1).div_ceil(64);
            EdgeSet::Dense { words_per_row, rows: vec![0; f.n_blocks * words_per_row] }
        } else {
            EdgeSet::Sparse(HashSet::new())
        };
    }

    /// Records that block `node` of (entered) function `fi` executed,
    /// reached from `prev` within the same frame if there was one.
    #[inline]
    pub(crate) fn block(&mut self, fi: usize, prev: Option<usize>, node: usize) {
        self.funcs[fi].observed[node] = true;
        if let Some(p) = prev {
            self.edge(fi, p, node);
        }
    }

    /// Records the edge `from → to` of (entered) function `fi`; `to` may
    /// be the virtual exit.
    #[inline]
    pub(crate) fn edge(&mut self, fi: usize, from: usize, to: usize) {
        match &mut self.funcs[fi].edges {
            EdgeSet::Dense { words_per_row, rows } => {
                rows[from * *words_per_row + (to >> 6)] |= 1 << (to & 63);
            }
            EdgeSet::Sparse(set) => {
                set.insert((from as u64) << 32 | to as u64);
            }
            EdgeSet::Untouched => unreachable!("edge in a function no frame entered"),
        }
    }

    /// ORs another walk's discoveries into this one.
    pub(crate) fn merge(&mut self, other: DcfgScan) {
        for (mine, theirs) in self.funcs.iter_mut().zip(other.funcs) {
            match (&mut mine.edges, theirs.edges) {
                (_, EdgeSet::Untouched) => continue,
                (EdgeSet::Untouched, edges) => {
                    mine.edges = edges;
                    mine.observed = theirs.observed;
                    continue;
                }
                (EdgeSet::Dense { rows, .. }, EdgeSet::Dense { rows: more, .. }) => {
                    rows.iter_mut().zip(more).for_each(|(a, b)| *a |= b);
                }
                (EdgeSet::Sparse(set), EdgeSet::Sparse(more)) => set.extend(more),
                _ => unreachable!("edge-set kind is a function of the block count"),
            }
            mine.observed.iter_mut().zip(theirs.observed).for_each(|(a, b)| *a |= b);
        }
    }

    /// Unique edges discovered so far, over all functions.
    pub(crate) fn edge_count(&self) -> u64 {
        self.funcs
            .iter()
            .map(|f| match &f.edges {
                EdgeSet::Untouched => 0,
                EdgeSet::Dense { rows, .. } => {
                    rows.iter().map(|w| w.count_ones() as u64).sum::<u64>()
                }
                EdgeSet::Sparse(set) => set.len() as u64,
            })
            .sum()
    }
}

impl FuncScan {
    /// Emits the function's CSR adjacency (every run ascending) and
    /// solves its IPDOMs.
    fn into_dcfg(self) -> Dcfg {
        let n_blocks = self.n_blocks;
        // Node space = blocks + virtual exit; the exit's run is empty.
        let mut edge_off = vec![0u32; n_blocks + 2];
        let edges = match self.edges {
            EdgeSet::Untouched => Vec::new(),
            EdgeSet::Dense { words_per_row, rows } => {
                // Rows in source order, bits in target order: the matrix
                // scan *is* CSR emission order — nothing to sort.
                let n_edges: u32 = rows.iter().map(|w| w.count_ones()).sum();
                let mut edges = Vec::with_capacity(n_edges as usize);
                for from in 0..n_blocks {
                    let row = &rows[from * words_per_row..(from + 1) * words_per_row];
                    for (wi, &word) in row.iter().enumerate() {
                        let mut w = word;
                        while w != 0 {
                            edges.push((wi as u32) << 6 | w.trailing_zeros());
                            w &= w - 1;
                        }
                    }
                    edge_off[from + 1] = edges.len() as u32;
                }
                edges
            }
            EdgeSet::Sparse(set) => {
                // Only the unique edges are sorted; packed order is
                // (from, to), so offsets are a counting pass + prefix sum.
                let mut packed: Vec<u64> = set.into_iter().collect();
                packed.sort_unstable();
                for &e in &packed {
                    edge_off[(e >> 32) as usize + 1] += 1;
                }
                for i in 0..n_blocks {
                    edge_off[i + 1] += edge_off[i];
                }
                packed.iter().map(|&e| e as u32).collect()
            }
        };
        edge_off[n_blocks + 1] = edges.len() as u32;
        let ipdom = ipdom_of_csr(&edge_off, &edges, n_blocks);
        Dcfg { n_blocks, edge_off, edges, ipdom, observed: self.observed }
    }
}

/// Dynamic CFGs for every function observed in a trace set.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct DcfgSet {
    per_func: Vec<Option<Dcfg>>,
}

impl DcfgSet {
    /// Turns a finished (merged) discovery scan into per-function CSR
    /// graphs and solves their IPDOMs, reporting an `ipdom` span and a
    /// `functions_solved` counter to `obs`. A function gets a DCFG iff one
    /// of its blocks ran.
    pub(crate) fn solve(scan: DcfgScan, obs: &Obs) -> Self {
        let ipdom_span = obs.span(Phase::Ipdom);
        let mut solved_funcs = 0u64;
        let per_func = scan
            .funcs
            .into_iter()
            .map(|f| {
                if !f.observed.iter().any(|&o| o) {
                    return None;
                }
                solved_funcs += 1;
                Some(f.into_dcfg())
            })
            .collect();
        obs.counter(Phase::Ipdom, "functions_solved", solved_funcs);
        ipdom_span.finish();
        DcfgSet { per_func }
    }

    /// The DCFG of `func`, if it was ever executed.
    pub fn get(&self, func: FuncId) -> Option<&Dcfg> {
        self.per_func.get(func.0 as usize).and_then(Option::as_ref)
    }

    /// Heap bytes the graphs hold, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        let graphs = self.per_func.iter().flatten();
        bytes(&self.per_func)
            + graphs
                .map(|d| {
                    bytes(&d.edge_off) + bytes(&d.edges) + bytes(&d.ipdom) + bytes(&d.observed)
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
impl DcfgSet {
    /// The pre-fusion builder, kept verbatim as the reference oracle the
    /// fused index build is checked against: a structural scan that
    /// appends every dynamic edge to one arena, then sort + dedup.
    pub(crate) fn build_two_pass(
        program: &Program,
        traces: &threadfuser_tracer::TraceSet,
    ) -> Result<Self, crate::AnalyzeError> {
        use crate::AnalyzeError;
        use threadfuser_tracer::SideEvent;
        let n_funcs = program.functions().len();
        let mut arena: Vec<(u32, u64)> = Vec::new();
        let pack = |from: usize, to: usize| ((from as u64) << 32) | to as u64;
        let mut observed: Vec<Vec<bool>> =
            program.functions().iter().map(|f| vec![false; f.blocks.len()]).collect();

        for t in traces.threads() {
            // (func, prev block within that frame)
            let mut frames: Vec<(FuncId, Option<usize>)> = Vec::new();
            let mut root_seen = false;
            let mut cur = t.cursor();
            loop {
                if let Some(side) = cur.next_side() {
                    match side {
                        SideEvent::Call { callee } => {
                            if callee.0 as usize >= n_funcs {
                                return Err(AnalyzeError::MalformedTrace {
                                    tid: t.tid,
                                    detail: format!("call to unknown {}", callee),
                                });
                            }
                            frames.push((callee, None));
                        }
                        SideEvent::Ret => {
                            let Some((func, prev)) = frames.pop() else {
                                return Err(AnalyzeError::MalformedTrace {
                                    tid: t.tid,
                                    detail: "return without an active frame".into(),
                                });
                            };
                            let fi = func.0 as usize;
                            if let Some(p) = prev {
                                let exit = program.functions()[fi].blocks.len();
                                arena.push((fi as u32, pack(p, exit)));
                            }
                        }
                        SideEvent::Acquire { .. }
                        | SideEvent::Release { .. }
                        | SideEvent::Barrier { .. } => {}
                    }
                    continue;
                }
                let Some((addr, _, _)) = cur.next_block() else { break };
                let fi = addr.func.0 as usize;
                if fi >= n_funcs || addr.block.0 as usize >= program.functions()[fi].blocks.len() {
                    return Err(AnalyzeError::MalformedTrace {
                        tid: t.tid,
                        detail: format!("block address {} out of program range", addr),
                    });
                }
                if frames.is_empty() {
                    if root_seen {
                        return Err(AnalyzeError::MalformedTrace {
                            tid: t.tid,
                            detail: "events after the kernel returned".into(),
                        });
                    }
                    frames.push((addr.func, None));
                    root_seen = true;
                }
                let (func, prev) = frames.last_mut().expect("frame present");
                if *func != addr.func {
                    return Err(AnalyzeError::MalformedTrace {
                        tid: t.tid,
                        detail: format!("block of {} while inside {}", addr.func, func),
                    });
                }
                let node = addr.block.0 as usize;
                observed[fi][node] = true;
                if let Some(p) = prev {
                    arena.push((fi as u32, pack(*p, node)));
                }
                *prev = Some(node);
            }
            if !frames.is_empty() {
                return Err(AnalyzeError::MalformedTrace {
                    tid: t.tid,
                    detail: format!("{} unreturned frames at end of trace", frames.len()),
                });
            }
        }

        arena.sort_unstable();
        arena.dedup();

        let mut run = 0usize;
        let per_func = (0..n_funcs)
            .map(|fi| {
                let start = run;
                while run < arena.len() && arena[run].0 as usize == fi {
                    run += 1;
                }
                let group = &arena[start..run];
                if group.is_empty() && !observed[fi].iter().any(|&o| o) {
                    return None;
                }
                let n_blocks = program.functions()[fi].blocks.len();
                let mut edge_off = vec![0u32; n_blocks + 2];
                for &(_, e) in group {
                    edge_off[(e >> 32) as usize + 1] += 1;
                }
                for i in 0..n_blocks + 1 {
                    edge_off[i + 1] += edge_off[i];
                }
                let edges: Vec<u32> = group.iter().map(|&(_, e)| e as u32).collect();
                let ipdom = ipdom_of_csr(&edge_off, &edges, n_blocks);
                Some(Dcfg { n_blocks, edge_off, edges, ipdom, observed: observed[fi].clone() })
            })
            .collect();
        Ok(DcfgSet { per_func })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisIndex;
    use threadfuser_ir::{AluOp, Cond, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracer::trace_program;

    /// Kernel with an if/else diamond taken both ways across threads.
    fn diamond() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 16);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            let acc = fb.var(8);
            fb.if_then_else(
                Cond::Eq,
                bit,
                0i64,
                |fb| fb.store_var(acc, 1i64),
                |fb| fb.store_var(acc, 2i64),
            );
            let v = fb.load_var(acc);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        (pb.build().unwrap(), k)
    }

    #[test]
    fn dcfg_matches_static_diamond() {
        let (p, k) = diamond();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 8)).unwrap();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let dcfgs = index.dcfgs();
        let d = dcfgs.get(k).expect("kernel executed");
        // entry(0) → then(1)/else(2) → join(3): dynamic IPDOM of the branch
        // is the join, as in the static CFG.
        assert_eq!(d.ipdom(BlockId(0)), Some(3));
        assert!(d.observed(BlockId(1)) && d.observed(BlockId(2)));
    }

    #[test]
    fn one_sided_branch_gives_optimistic_ipdom() {
        // All threads take the same side: the DCFG never sees the other
        // edge, so the "branch" is dynamically straight-line.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            fb.if_then(Cond::Ge, tid, 0i64, |fb| fb.nop()); // always taken
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 4)).unwrap();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let dcfgs = index.dcfgs();
        let d = dcfgs.get(k).unwrap();
        // Dynamic successor of entry is only the then-block (1).
        assert_eq!(d.succs(BlockId(0)), &[1]);
        assert_eq!(d.ipdom(BlockId(0)), Some(1), "optimistic: reconverges immediately");
    }

    #[test]
    fn per_function_graphs_are_separate() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.function("h", 1, |fb| {
            let x = fb.arg(0);
            fb.ret(Some(Operand::Reg(x)));
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let _ = fb.call(helper, &[Operand::Reg(tid)]);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let dcfgs = index.dcfgs();
        let dk = dcfgs.get(k).unwrap();
        let dh = dcfgs.get(helper).unwrap();
        // The call edge is NOT a CFG edge: k's entry block's dynamic
        // successor is its continuation, not h's entry.
        assert_eq!(dk.succs(BlockId(0)), &[1]);
        assert_eq!(dh.succs(BlockId(0)), &[dh.virtual_exit() as u32]);
    }

    #[test]
    fn unexecuted_function_has_no_dcfg() {
        let mut pb = ProgramBuilder::new();
        let dead = pb.function("dead", 0, |fb| fb.ret(None));
        let k = pb.function("k", 1, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let dcfgs = index.dcfgs();
        assert!(dcfgs.get(dead).is_none());
        assert!(dcfgs.get(k).is_some());
    }

    #[test]
    fn loop_edges_recorded() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.for_range(0i64, 4i64, 1, |fb, _| fb.nop());
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 1)).unwrap();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let dcfgs = index.dcfgs();
        let d = dcfgs.get(k).unwrap();
        // The loop head (block 1) has two observed successors: body and exit.
        assert_eq!(d.succs(BlockId(1)).len(), 2);
    }
}
