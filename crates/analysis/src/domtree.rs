//! Dominator tree over the recovered [`Cfg`].
//!
//! Computed with the Cooper–Harvey–Kennedy iterative algorithm on the
//! reverse-postorder numbering. Because a binary's CFG has *several*
//! entry points (image entry, call targets, unknown-entry blocks), the
//! tree is rooted at a virtual super-root with an edge to every unknown
//! entry; "A dominates B" below therefore means "every path from *any*
//! unknown entry to B passes through A", which is exactly the property
//! redundant-check elimination needs.

use crate::cfg::Cfg;
use std::collections::{BTreeSet, HashMap};

/// Index of the virtual super-root in the internal numbering.
const VROOT: usize = 0;

/// The dominator tree.
pub struct DomTree {
    /// Block start -> dense index (1-based; 0 is the virtual root).
    index: HashMap<u64, usize>,
    /// Dense index -> block start (`0` for the virtual root).
    starts: Vec<u64>,
    /// Immediate dominator per dense index (in dense-index space).
    idom: Vec<usize>,
}

impl DomTree {
    /// Builds the dominator tree for all blocks reachable from `roots`.
    pub fn compute(cfg: &Cfg, roots: &BTreeSet<u64>) -> DomTree {
        // Depth-first search from the virtual root to get postorder.
        // Dense index 0 is the virtual root; blocks are numbered as
        // discovered.
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut starts: Vec<u64> = vec![0];
        let succs_of = |start: u64| -> Vec<u64> {
            cfg.blocks
                .get(&start)
                .map(|b| {
                    b.succs
                        .iter()
                        .copied()
                        .filter(|s| cfg.blocks.contains_key(s))
                        .collect()
                })
                .unwrap_or_default()
        };

        // Iterative DFS computing postorder.
        let mut postorder: Vec<usize> = Vec::new();
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        // Stack of (node, next-successor-cursor). The virtual root's
        // successors are the roots, in address order for determinism.
        let root_succs: Vec<u64> = roots
            .iter()
            .copied()
            .filter(|r| cfg.blocks.contains_key(r))
            .collect();
        enum Node {
            VRoot(usize),
            Block(u64, usize),
        }
        let mut stack = vec![Node::VRoot(0)];
        while let Some(top) = stack.pop() {
            match top {
                Node::VRoot(cursor) => {
                    if cursor < root_succs.len() {
                        stack.push(Node::VRoot(cursor + 1));
                        let child = root_succs[cursor];
                        if visited.insert(child) {
                            let i = starts.len();
                            starts.push(child);
                            index.insert(child, i);
                            stack.push(Node::Block(child, 0));
                        }
                    } else {
                        postorder.push(VROOT);
                    }
                }
                Node::Block(start, cursor) => {
                    let succs = succs_of(start);
                    if cursor < succs.len() {
                        stack.push(Node::Block(start, cursor + 1));
                        let child = succs[cursor];
                        if visited.insert(child) {
                            let i = starts.len();
                            starts.push(child);
                            index.insert(child, i);
                            stack.push(Node::Block(child, 0));
                        }
                    } else {
                        postorder.push(index[&start]);
                    }
                }
            }
        }

        let n = starts.len();
        let mut rpo = vec![0usize; n];
        for (po_num, &node) in postorder.iter().enumerate() {
            // Reverse postorder number: smaller = earlier.
            rpo[node] = postorder.len() - 1 - po_num;
        }

        // Predecessor lists in dense-index space.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &r in &root_succs {
            preds[index[&r]].push(VROOT);
        }
        for (&start, block) in &cfg.blocks {
            let Some(&i) = index.get(&start) else {
                continue;
            };
            for s in block.succs.iter().filter(|s| index.contains_key(s)) {
                preds[index[s]].push(i);
            }
        }

        // Nodes in reverse postorder (excluding the virtual root).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| rpo[i]);

        const UNDEF: usize = usize::MAX;
        let mut idom = vec![UNDEF; n];
        idom[VROOT] = VROOT;
        let intersect = |idom: &[usize], rpo: &[usize], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while rpo[a] > rpo[b] {
                    a = idom[a];
                }
                while rpo[b] > rpo[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &node in &order {
                if node == VROOT {
                    continue;
                }
                let mut new_idom = UNDEF;
                for &p in &preds[node] {
                    if idom[p] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF {
                        p
                    } else {
                        intersect(&idom, &rpo, new_idom, p)
                    };
                }
                if new_idom != UNDEF && idom[node] != new_idom {
                    idom[node] = new_idom;
                    changed = true;
                }
            }
        }

        DomTree {
            index,
            starts,
            idom,
        }
    }

    /// Immediate dominator of the block starting at `b`, or `None` when
    /// `b` is unreachable, unknown, or immediately dominated by the
    /// virtual root (i.e. has no proper dominator block).
    pub fn idom(&self, b: u64) -> Option<u64> {
        let &i = self.index.get(&b)?;
        let d = self.idom[i];
        if d == VROOT || d == usize::MAX {
            None
        } else {
            Some(self.starts[d])
        }
    }

    /// Returns `true` if block `a` dominates block `b` (reflexive).
    pub fn dominates(&self, a: u64, b: u64) -> bool {
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        // Walk b's dominator chain; rpo numbers strictly decrease, so
        // this terminates at the virtual root.
        let mut cur = ib;
        loop {
            if cur == ia {
                return true;
            }
            if cur == VROOT || self.idom[cur] == usize::MAX {
                return false;
            }
            let up = self.idom[cur];
            if up == cur {
                return false;
            }
            cur = up;
        }
    }

    /// Site-level dominance: the instruction at `a` dominates the
    /// instruction at `b` if they share a block and `a` comes first, or
    /// `a`'s block strictly dominates `b`'s block.
    pub fn site_dominates(&self, cfg: &Cfg, a: u64, b: u64) -> bool {
        let (Some(ba), Some(bb)) = (cfg.block_of(a), cfg.block_of(b)) else {
            return false;
        };
        if ba.start == bb.start {
            return a <= b;
        }
        self.dominates(ba.start, bb.start)
    }
}
