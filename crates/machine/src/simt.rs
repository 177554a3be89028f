//! The SIMT split machine both warp machines run: the lock-step machine
//! over the static CFG, the analyzer's emulator over traces.
//!
//! A warp is a set of `(pc, mask)` *splits* (the framing of *Control Flow
//! Management in Modern GPUs*). [`Policy`] is the machine: which split
//! issues next, where diverged splits merge again, and — the analyzer's
//! business — whether a divergence may meld instead. [`Splits`] holds a
//! warp's splits and applies the transitions that need no trace: the
//! IPDOM stack's pop at a split's reconvergence PC (Fig. 2c), the
//! stackless machine's merge and earliest-PC pick, the divergence push,
//! call and return. The machine running the splits decides the rest —
//! which reconvergence point a divergence uses, where a returning split
//! continues under min-PC, how a popped frame resumes its caller — and
//! runs each block.

use threadfuser_ir::FuncId;

/// The warp's split machine: which split issues next (pick), where
/// diverged splits merge again, and whether a divergence may meld instead
/// of splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// An IPDOM reconvergence stack: the last split pushed issues next
    /// and pops when it reaches its reconvergence PC, merging into the
    /// split below. `meld` has the emulator try DARM melding at each
    /// divergence.
    Stack {
        /// Try melding before splitting.
        meld: bool,
    },
    /// MEC-style stackless scheduling: the earliest-PC split issues
    /// next, and splits at identical call-stack positions merge.
    PcMin,
}

/// One `(pc, mask)` split of a warp: lanes running in lock step at
/// `(func, node)`.
#[derive(Debug)]
pub struct Split {
    /// Executing function.
    pub func: FuncId,
    /// CFG node: a block index, or the function's virtual exit.
    pub node: usize,
    /// The split's lanes.
    pub mask: u64,
    /// Stack: the node at which this split pops (its reconvergence PC).
    pub rpc: usize,
    /// Stack: the split owns a function activation, so popping it
    /// resumes the split below at the lanes' continuation block.
    pub is_frame: bool,
    /// Min-PC: the call sites of the split's callers, outermost first.
    /// Splits merge only when their whole call stacks match.
    pub callers: Vec<(FuncId, usize)>,
    /// Min-PC: set while the split serializes a contended critical
    /// section, which blocks merging until it reaches this block (the
    /// one after its unlock).
    pub release_at: Option<(FuncId, usize)>,
}

impl Split {
    /// A split of `mask` at `(func, node)` that pops at `rpc`.
    #[inline]
    pub fn new(func: FuncId, node: usize, mask: u64, rpc: usize, is_frame: bool) -> Self {
        Split { func, node, mask, rpc, is_frame, callers: Vec::new(), release_at: None }
    }
}

/// What [`Splits::pick`] found.
#[derive(Debug)]
pub enum Pick {
    /// The split at this index of [`Splits::list`] issues next.
    Issue(usize),
    /// Stack: the top split reached its reconvergence PC and popped. The
    /// machine resumes the caller if it was a frame, then hands it back to
    /// [`Splits::recycle`].
    Popped(Split),
    /// No split is left: the warp is done.
    Done,
}

/// A warp's splits — a stack under [`Policy::Stack`], an unordered set
/// under [`Policy::PcMin`] — and the retired [`Split::callers`] buffers,
/// reused across steps and warps.
#[derive(Debug, Default)]
pub struct Splits {
    /// The splits; their machine reads and moves them between transitions.
    pub list: Vec<Split>,
    callers_pool: Vec<Vec<(FuncId, usize)>>,
}

impl Splits {
    /// Starts a warp: every lane of `mask` in one frame split at
    /// `(func, node)` that pops at `exit`, the function's virtual exit.
    #[inline]
    pub fn start(&mut self, func: FuncId, node: usize, mask: u64, exit: usize) {
        while let Some(split) = self.list.pop() {
            self.recycle(split);
        }
        let mut root = Split::new(func, node, mask, exit, true);
        root.callers = self.callers_pool.pop().unwrap_or_default();
        root.callers.clear();
        self.list.push(root);
    }

    /// The policy's pick. Stack: pops the top split if it reached its
    /// reconvergence PC, else issues it. Min-PC: ends serializations
    /// whose release point is reached, merges splits at identical
    /// call-stack positions — `on_merge` sees each merged split — then
    /// issues the earliest PC, deepest stack, then lowest lane breaking
    /// ties, so lagging splits catch leading ones up.
    #[inline]
    pub fn pick(&mut self, policy: Policy, on_merge: impl FnMut(&Split)) -> Pick {
        if policy == Policy::PcMin {
            return self.pick_min_pc(on_merge);
        }
        match self.list.last() {
            None => Pick::Done,
            Some(top) if top.node == top.rpc => Pick::Popped(self.list.pop().expect("nonempty")),
            Some(_) => Pick::Issue(self.list.len() - 1),
        }
    }

    #[inline]
    fn pick_min_pc(&mut self, mut on_merge: impl FnMut(&Split)) -> Pick {
        for g in self.list.iter_mut() {
            if g.release_at == Some((g.func, g.node)) {
                g.release_at = None;
            }
        }
        let mut i = 0;
        while i < self.list.len() {
            if self.list[i].release_at.is_some() {
                i += 1;
                continue;
            }
            // One packed word settles most pairs before a call stack is
            // compared.
            let pc = pack_pc(self.list[i].func, self.list[i].node);
            let mut j = i + 1;
            while j < self.list.len() {
                let (a, b) = (&self.list[i], &self.list[j]);
                if pack_pc(b.func, b.node) != pc || b.release_at.is_some() || a.callers != b.callers
                {
                    j += 1;
                    continue;
                }
                let merged = self.list.remove(j);
                self.list[i].mask |= merged.mask;
                on_merge(&self.list[i]);
                self.recycle(merged);
            }
            i += 1;
        }
        // `(pc, deepest stack, lowest lane)` as one key: the pc's packed
        // word above the stack depth, reversed, above the lowest lane.
        let pick_key = |g: &Split| {
            let depth = u32::MAX - g.callers.len() as u32;
            (pack_pc(g.func, g.node) as u128) << 64
                | (depth as u128) << 32
                | g.mask.trailing_zeros() as u128
        };
        let list = &self.list;
        (0..list.len()).min_by_key(|&i| pick_key(&list[i])).map_or(Pick::Done, Pick::Issue)
    }

    /// Retires a removed split, keeping its callers buffer.
    #[inline]
    pub fn recycle(&mut self, split: Split) {
        if split.callers.capacity() > 0 {
            self.callers_pool.push(split.callers);
        }
    }

    /// A copy of `from` at `node` with `mask`, its callers in a recycled
    /// buffer.
    #[inline]
    pub fn fork(&mut self, from: &Split, node: usize, mask: u64) -> Split {
        let mut callers = self.callers_pool.pop().unwrap_or_default();
        callers.clone_from(&from.callers);
        Split { node, mask, callers, ..*from }
    }

    /// Split `i` diverges into `groups`, `(target node, lanes)` pairs.
    ///
    /// Stack: the split waits at the reconvergence point `rpoint` —
    /// keeping its frame flag, so a divergence that spans to function end
    /// still resumes the caller when it pops — under one split per
    /// target, pushed in descending node order so the lowest target
    /// issues first; a target at `rpoint` itself just waits. Min-PC has
    /// no reconvergence points: the split is replaced by one copy per
    /// target.
    #[inline]
    pub fn diverge(
        &mut self,
        policy: Policy,
        i: usize,
        rpoint: usize,
        groups: &mut [(usize, u64)],
    ) {
        if policy == Policy::PcMin {
            let old = self.list.swap_remove(i);
            for &(node, mask) in groups.iter() {
                let split = self.fork(&old, node, mask);
                self.list.push(split);
            }
            self.recycle(old);
            return;
        }
        let func = self.list[i].func;
        self.list[i].node = rpoint;
        groups.sort_by_key(|&(node, _)| std::cmp::Reverse(node));
        for &(node, mask) in groups.iter().filter(|&&(node, _)| node != rpoint) {
            self.list.push(Split::new(func, node, mask, rpoint, false));
        }
    }

    /// Function entry: the lanes of split `i` call the function `callee`,
    /// entering at `entry`. The stack pushes a frame split that pops at
    /// the callee's virtual exit `exit`; min-PC records the call site on
    /// the split's own call stack.
    #[inline]
    pub fn call(&mut self, policy: Policy, i: usize, callee: FuncId, entry: usize, exit: usize) {
        let split = &mut self.list[i];
        if policy == Policy::PcMin {
            split.callers.push((split.func, split.node));
            (split.func, split.node) = (callee, entry);
        } else {
            let mask = split.mask;
            self.list.push(Split::new(callee, entry, mask, exit, true));
        }
    }

    /// Function return of split `i`. The stack runs the split on to its
    /// function's virtual exit `exit`, where [`Splits::pick`] pops it;
    /// min-PC pops the split's own call stack and continues in the caller
    /// at `resume(caller, mask)`, or retires the split at the root.
    ///
    /// # Errors
    /// Whatever `resume` returns.
    #[inline]
    pub fn ret<E>(
        &mut self,
        policy: Policy,
        i: usize,
        exit: usize,
        resume: impl FnOnce(FuncId, u64) -> Result<usize, E>,
    ) -> Result<(), E> {
        let split = &mut self.list[i];
        if policy != Policy::PcMin {
            split.node = exit;
        } else if let Some(&(caller, _)) = split.callers.last() {
            let next = resume(caller, split.mask)?;
            split.callers.pop();
            (split.func, split.node) = (caller, next);
        } else {
            let done = self.list.swap_remove(i);
            self.recycle(done);
        }
        Ok(())
    }
}

/// Adds `lane` to the group of its next `node` in `groups`, the `(target
/// node, lanes)` pairs of a terminator's successors in first-seen order.
#[inline]
pub fn add_lane(groups: &mut Vec<(usize, u64)>, node: usize, lane: usize) {
    match groups.iter_mut().find(|(n, _)| *n == node) {
        Some((_, m)) => *m |= 1 << lane,
        None => groups.push((node, 1 << lane)),
    }
}

/// A `(func, node)` position packed into one comparable word, function
/// above node.
#[inline]
fn pack_pc(func: FuncId, node: usize) -> u64 {
    (func.0 as u64) << 32 | node as u32 as u64
}
