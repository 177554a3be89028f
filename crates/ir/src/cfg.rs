//! Static control-flow graphs and the immediate post-dominator solver.
//!
//! ThreadFuser reconverges diverged warps at the immediate post-dominator
//! (IPDOM) of the diverging branch, like GPGPU-Sim. The solver here is the
//! classic Cooper–Harvey–Kennedy iterative dominance algorithm run on the
//! *reversed* graph rooted at a **virtual exit block** appended to every
//! function, which forces all return paths to converge at function end
//! (paper §III: "a virtual basic block at the end of each function").
//!
//! The same [`ipdom_of_csr`] solver is reused by the trace analyzer on its
//! *dynamic* CFGs, so prediction and ground truth share one definition of
//! reconvergence.

use crate::ids::BlockId;
use crate::program::Function;

/// Computes immediate post-dominators for a graph in CSR adjacency form,
/// with `exit` as the unique sink all paths converge to: node `u`'s
/// successors are `edges[off[u] as usize..off[u + 1] as usize]`, so the
/// node count is `off.len() - 1`.
///
/// Returns, for each node, its immediate post-dominator (`None` for `exit`
/// itself and for nodes that cannot reach `exit`).
///
/// The solver is Cooper–Harvey–Kennedy dominance on the reversed graph,
/// rooted at `exit`; the predecessor CSR it needs is derived with one
/// counting sort — no per-node allocation anywhere.
pub fn ipdom_of_csr(off: &[u32], edges: &[u32], exit: usize) -> Vec<Option<usize>> {
    let n = off.len().checked_sub(1).expect("offset array has a terminator");
    assert!(exit < n, "exit node out of range");
    let node_succs =
        |u: usize| edges[off[u] as usize..off[u + 1] as usize].iter().map(|&v| v as usize);

    // Predecessor CSR of the original graph = successor CSR of the
    // reversed graph, via counting sort. Filling in node order keeps each
    // predecessor run ascending, like the adjacency-list build did.
    let mut pred_off = vec![0u32; n + 1];
    for &v in edges {
        pred_off[v as usize + 1] += 1;
    }
    for i in 0..n {
        pred_off[i + 1] += pred_off[i];
    }
    let mut preds = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = pred_off[..n].to_vec();
    for u in 0..n {
        for v in node_succs(u) {
            preds[cursor[v] as usize] = u as u32;
            cursor[v] += 1;
        }
    }

    // Reverse postorder of the reversed graph (DFS from exit following
    // original predecessor edges).
    let mut postorder = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack: Vec<(usize, u32)> = vec![(exit, pred_off[exit])];
    visited[exit] = true;
    while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
        if *idx < pred_off[node + 1] {
            let next = preds[*idx as usize] as usize;
            *idx += 1;
            if !visited[next] {
                visited[next] = true;
                stack.push((next, pred_off[next]));
            }
        } else {
            postorder.push(node);
            stack.pop();
        }
    }
    let rpo: Vec<usize> = postorder.iter().rev().copied().collect();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &node) in rpo.iter().enumerate() {
        rpo_index[node] = i;
    }

    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[exit] = Some(exit);

    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("processed node has idom");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("processed node has idom");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            // Predecessors in the reversed graph are original successors.
            let mut new_idom: Option<usize> = None;
            for s in node_succs(b) {
                if idom[s].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => s,
                    Some(cur) => intersect(&idom, cur, s),
                });
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    idom[exit] = None;
    idom
}

/// Per-function static CFG with a virtual exit node and precomputed IPDOMs.
#[derive(Debug, Clone)]
pub struct FuncCfg {
    n_blocks: usize,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    ipdom: Vec<Option<usize>>,
}

impl FuncCfg {
    /// Builds the CFG of `f`, appends the virtual exit, and solves IPDOMs.
    ///
    /// Call edges are *not* CFG edges: a call's intra-procedural successor
    /// is its continuation block, matching the per-function DCFGs of the
    /// paper.
    pub fn from_function(f: &Function) -> Self {
        let n_blocks = f.blocks.len();
        let exit = n_blocks;
        let mut succs: Vec<Vec<usize>> = Vec::with_capacity(n_blocks + 1);
        // The same edges in CSR form, for the solver.
        let (mut off, mut edges) = (vec![0u32], Vec::new());
        for b in &f.blocks {
            let mut s: Vec<usize> = b.term.successors().iter().map(|t| t.0 as usize).collect();
            if s.is_empty() {
                // Return: edge to the virtual exit.
                s.push(exit);
            }
            edges.extend(s.iter().map(|&v| v as u32));
            off.push(edges.len() as u32);
            succs.push(s);
        }
        succs.push(Vec::new()); // the virtual exit has no successors
        off.push(edges.len() as u32);
        let ipdom = ipdom_of_csr(&off, &edges, exit);
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n_blocks + 1];
        for (u, ss) in succs.iter().enumerate() {
            for &v in ss {
                preds[v].push(u);
            }
        }
        FuncCfg { n_blocks, succs, preds, ipdom }
    }

    /// Number of real (non-virtual) blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Node index of the virtual exit.
    pub fn virtual_exit(&self) -> usize {
        self.n_blocks
    }

    /// Successor node indices of `node` (blocks index as themselves; the
    /// virtual exit is [`Self::virtual_exit`]).
    pub fn succs(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// Predecessor node indices of `node`.
    pub fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }

    /// Immediate post-dominator of a block (may be the virtual exit).
    pub fn ipdom(&self, b: BlockId) -> Option<usize> {
        self.ipdom[b.0 as usize]
    }

    /// Immediate post-dominator of an arbitrary node index.
    pub fn ipdom_node(&self, node: usize) -> Option<usize> {
        self.ipdom[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{Cond, Operand};

    /// Solves a graph given as successor adjacency lists.
    fn solve(succs: &[Vec<usize>], exit: usize) -> Vec<Option<usize>> {
        let mut off = vec![0u32];
        let mut edges = Vec::new();
        for s in succs {
            edges.extend(s.iter().map(|&v| v as u32));
            off.push(edges.len() as u32);
        }
        ipdom_of_csr(&off, &edges, exit)
    }

    #[test]
    fn diamond_ipdom_is_join() {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> exit(4)
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![4], vec![]];
        let ipd = solve(&succs, 4);
        assert_eq!(ipd[0], Some(3));
        assert_eq!(ipd[1], Some(3));
        assert_eq!(ipd[2], Some(3));
        assert_eq!(ipd[3], Some(4));
        assert_eq!(ipd[4], None);
    }

    #[test]
    fn nested_diamonds() {
        // 0 -> {1, 5}; 1 -> {2,3}; 2->4; 3->4; 4->6; 5->6; 6->exit(7)
        let succs =
            vec![vec![1, 5], vec![2, 3], vec![4], vec![4], vec![6], vec![6], vec![7], vec![]];
        let ipd = solve(&succs, 7);
        assert_eq!(ipd[1], Some(4), "inner branch reconverges at inner join");
        assert_eq!(ipd[0], Some(6), "outer branch reconverges at outer join");
    }

    #[test]
    fn loop_ipdom_is_exit_block() {
        // 0 -> 1; 1 -> {2, 3} (loop back edge 2 -> 1); 3 -> exit(4)
        let succs = vec![vec![1], vec![2, 3], vec![1], vec![4], vec![]];
        let ipd = solve(&succs, 4);
        assert_eq!(ipd[1], Some(3), "loop header reconverges at loop exit");
        assert_eq!(ipd[2], Some(1));
    }

    #[test]
    fn node_not_reaching_exit_has_none() {
        // 0 -> {1,2}; 1 -> exit(3); 2 -> 2 (infinite self loop)
        let succs = vec![vec![1, 2], vec![3], vec![2], vec![]];
        let ipd = solve(&succs, 3);
        assert_eq!(ipd[2], None);
        // 0 still postdominated by exit through 1? 0's only path to exit is
        // via 1, but IPDOM requires *all* paths; the path through 2 never
        // reaches exit, so dataflow converges on the 1-path alone (standard
        // behaviour for nonterminating paths).
        assert_eq!(ipd[0], Some(1));
    }

    #[test]
    fn func_cfg_virtual_exit_joins_multiple_returns() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 1, |fb| {
            let a = fb.arg(0);
            let t = fb.new_block();
            let e = fb.new_block();
            fb.br(Cond::Gt, a, 0i64, t, e);
            fb.switch_to(t);
            fb.ret(Some(Operand::Imm(1)));
            fb.switch_to(e);
            fb.ret(Some(Operand::Imm(0)));
        });
        let p = pb.build().unwrap();
        let cfg = FuncCfg::from_function(&p.functions()[0]);
        // Both returns post-dominated by the virtual exit; the branch block's
        // IPDOM is the virtual exit itself.
        assert_eq!(cfg.ipdom(BlockId(0)), Some(cfg.virtual_exit()));
        assert_eq!(cfg.ipdom(BlockId(1)), Some(cfg.virtual_exit()));
    }

    #[test]
    fn func_cfg_if_then_else_ipdom() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 1, |fb| {
            let a = fb.arg(0);
            fb.if_then_else(Cond::Gt, a, 0i64, |fb| fb.nop(), |fb| fb.nop());
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let f = &p.functions()[0];
        let cfg = FuncCfg::from_function(f);
        // entry(0) branches to then(1)/else(2), join(3)
        assert_eq!(cfg.ipdom(BlockId(0)), Some(3));
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 0, |fb| {
            fb.if_then(Cond::Eq, 0i64, 0i64, |fb| fb.nop());
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let cfg = FuncCfg::from_function(&p.functions()[0]);
        for node in 0..=cfg.virtual_exit() {
            for &s in cfg.succs(node) {
                assert!(cfg.preds(s).contains(&node));
            }
        }
    }
}
