//! A sequence treap with parent pointers, order-statistic queries, and OR
//! aggregates over small flag sets.
//!
//! This is the balanced-sequence engine underneath the sequential Euler tour
//! trees ([`crate::ett`]): split *at a node* (no index needed), merge,
//! order comparison, and flag search — each O(log n) expected.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Node handle.
pub type NodeId = u32;
/// Sentinel for "no node".
pub const NIL: NodeId = u32::MAX;

struct Node<T> {
    val: T,
    prio: u64,
    left: NodeId,
    right: NodeId,
    parent: NodeId,
    size: u32,
    flags: u8,
    agg: u8,
}

/// An arena of treap nodes forming any number of disjoint sequences.
pub struct SeqTreap<T> {
    nodes: Vec<Node<T>>,
    free: Vec<NodeId>,
    rng: SmallRng,
}

impl<T> SeqTreap<T> {
    /// New arena; `seed` fixes the priority stream for reproducibility.
    pub fn new(seed: u64) -> Self {
        SeqTreap {
            nodes: Vec::new(),
            free: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// True when no nodes are allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates a singleton sequence holding `val`.
    pub fn alloc(&mut self, val: T) -> NodeId {
        let prio = self.rng.gen();
        let node = Node {
            val,
            prio,
            left: NIL,
            right: NIL,
            parent: NIL,
            size: 1,
            flags: 0,
            agg: 0,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    /// Frees a node. The node must be a detached singleton.
    pub fn dealloc(&mut self, x: NodeId) {
        let n = &self.nodes[x as usize];
        debug_assert!(n.left == NIL && n.right == NIL && n.parent == NIL);
        self.free.push(x);
    }

    /// The node's value.
    pub fn val(&self, x: NodeId) -> &T {
        &self.nodes[x as usize].val
    }

    fn size_of(&self, x: NodeId) -> u32 {
        if x == NIL {
            0
        } else {
            self.nodes[x as usize].size
        }
    }

    fn agg_of(&self, x: NodeId) -> u8 {
        if x == NIL {
            0
        } else {
            self.nodes[x as usize].agg
        }
    }

    fn pull(&mut self, x: NodeId) {
        let (l, r) = (self.nodes[x as usize].left, self.nodes[x as usize].right);
        let size = 1 + self.size_of(l) + self.size_of(r);
        let agg = self.nodes[x as usize].flags | self.agg_of(l) | self.agg_of(r);
        let n = &mut self.nodes[x as usize];
        n.size = size;
        n.agg = agg;
    }

    /// Root of the sequence containing `x` (walks parent pointers).
    pub fn root_of(&self, mut x: NodeId) -> NodeId {
        while self.nodes[x as usize].parent != NIL {
            x = self.nodes[x as usize].parent;
        }
        x
    }

    /// Length of the sequence rooted at `root`.
    pub fn seq_len(&self, root: NodeId) -> usize {
        self.size_of(root) as usize
    }

    /// Concatenates two sequences (given by their roots); returns new root.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let ar = self.nodes[a as usize].right;
            let r = self.merge(ar, b);
            self.nodes[a as usize].right = r;
            self.nodes[r as usize].parent = a;
            self.pull(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let l = self.merge(a, bl);
            self.nodes[b as usize].left = l;
            self.nodes[l as usize].parent = b;
            self.pull(b);
            b
        }
    }

    /// Splits the sequence containing `x` into (everything before `x`,
    /// `x` and everything after). Returns the two roots (left may be NIL).
    pub fn split_before(&mut self, x: NodeId) -> (NodeId, NodeId) {
        // x's left subtree is the innermost piece of the left part.
        let l = std::mem::replace(&mut self.nodes[x as usize].left, NIL);
        self.split_up(x, l, x)
    }

    /// Splits into (`x` and everything before, everything after `x`).
    pub fn split_after(&mut self, x: NodeId) -> (NodeId, NodeId) {
        // x's right subtree is the innermost piece of the right part.
        let r = std::mem::replace(&mut self.nodes[x as usize].right, NIL);
        self.split_up(x, x, r)
    }

    /// Finishes a split at `x`, which has just lost the child subtree that
    /// starts one part: `left_root` and `right_root` are the innermost
    /// pieces of the two parts, one of them `x` itself.
    fn split_up(
        &mut self,
        x: NodeId,
        mut left_root: NodeId,
        mut right_root: NodeId,
    ) -> (NodeId, NodeId) {
        self.pull(x);
        let mut p = self.nodes[x as usize].parent;
        for root in [left_root, right_root] {
            if root != NIL {
                self.nodes[root as usize].parent = NIL;
            }
        }
        let mut cur = x;
        // Walk the original ancestor chain. Each ancestor has higher priority
        // than everything accumulated so far (all its descendants), so
        // re-rooting the accumulated part under it preserves the heap shape.
        while p != NIL {
            let pp = self.nodes[p as usize].parent;
            let was_right = self.nodes[p as usize].right == cur;
            if was_right {
                // p and its left subtree precede x.
                self.nodes[p as usize].right = left_root;
                if left_root != NIL {
                    self.nodes[left_root as usize].parent = p;
                }
                self.nodes[p as usize].parent = NIL;
                self.pull(p);
                left_root = p;
            } else {
                // p and its right subtree follow the right part.
                self.nodes[p as usize].left = right_root;
                if right_root != NIL {
                    self.nodes[right_root as usize].parent = p;
                }
                self.nodes[p as usize].parent = NIL;
                self.pull(p);
                right_root = p;
            }
            cur = p;
            p = pp;
        }
        (left_root, right_root)
    }

    /// 0-based position of `x` within its sequence.
    pub fn index_of(&self, x: NodeId) -> usize {
        let mut idx = self.size_of(self.nodes[x as usize].left) as usize;
        let mut cur = x;
        let mut p = self.nodes[x as usize].parent;
        while p != NIL {
            if self.nodes[p as usize].right == cur {
                idx += self.size_of(self.nodes[p as usize].left) as usize + 1;
            }
            cur = p;
            p = self.nodes[p as usize].parent;
        }
        idx
    }

    /// True if `x` appears strictly before `y` (same sequence assumed).
    pub fn precedes(&self, x: NodeId, y: NodeId) -> bool {
        self.index_of(x) < self.index_of(y)
    }

    /// First node of the sequence rooted at `root`.
    pub fn first(&self, mut root: NodeId) -> NodeId {
        while self.nodes[root as usize].left != NIL {
            root = self.nodes[root as usize].left;
        }
        root
    }

    /// Last node of the sequence rooted at `root`.
    pub fn last(&self, mut root: NodeId) -> NodeId {
        while self.nodes[root as usize].right != NIL {
            root = self.nodes[root as usize].right;
        }
        root
    }

    /// Sets or clears flag bits on `x`, updating aggregates up to the root.
    pub fn set_flags(&mut self, x: NodeId, bits: u8, on: bool) {
        {
            let n = &mut self.nodes[x as usize];
            if on {
                n.flags |= bits;
            } else {
                n.flags &= !bits;
            }
        }
        let mut cur = x;
        while cur != NIL {
            self.pull(cur);
            cur = self.nodes[cur as usize].parent;
        }
    }

    /// The node's own flags.
    pub fn flags(&self, x: NodeId) -> u8 {
        self.nodes[x as usize].flags
    }

    /// Finds the leftmost node in `root`'s subtree whose flags contain `bit`.
    pub fn find_flag(&self, root: NodeId, bit: u8) -> Option<NodeId> {
        if root == NIL || self.agg_of(root) & bit == 0 {
            return None;
        }
        let mut cur = root;
        loop {
            let l = self.nodes[cur as usize].left;
            if l != NIL && self.agg_of(l) & bit != 0 {
                cur = l;
            } else if self.nodes[cur as usize].flags & bit != 0 {
                return Some(cur);
            } else {
                cur = self.nodes[cur as usize].right;
                debug_assert!(cur != NIL, "aggregate promised a flagged node");
            }
        }
    }

    /// In-order traversal of the sequence rooted at `root` (testing).
    pub fn in_order(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut cur = root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let x = stack.pop().unwrap();
            out.push(x);
            cur = self.nodes[x as usize].right;
        }
        out
    }

    /// Structural audit of the sequence rooted at `root` (testing): parent
    /// pointers, sizes, aggregates, and heap order.
    pub fn check_invariants(&self, root: NodeId) -> Result<(), String> {
        if root == NIL {
            return Ok(());
        }
        if self.nodes[root as usize].parent != NIL {
            return Err("root has a parent".into());
        }
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            let n = &self.nodes[x as usize];
            let mut size = 1;
            let mut agg = n.flags;
            for c in [n.left, n.right] {
                if c != NIL {
                    let cn = &self.nodes[c as usize];
                    if cn.parent != x {
                        return Err(format!("child {c} parent mismatch"));
                    }
                    if cn.prio > n.prio {
                        return Err(format!("heap violation at {x}"));
                    }
                    size += cn.size;
                    agg |= cn.agg;
                    stack.push(c);
                }
            }
            if n.size != size {
                return Err(format!("size mismatch at {x}"));
            }
            if n.agg != agg {
                return Err(format!("agg mismatch at {x}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_seq(t: &mut SeqTreap<u32>, vals: &[u32]) -> (NodeId, Vec<NodeId>) {
        let ids: Vec<NodeId> = vals.iter().map(|&v| t.alloc(v)).collect();
        let mut root = NIL;
        for &id in &ids {
            root = t.merge(root, id);
        }
        (root, ids)
    }

    fn values(t: &SeqTreap<u32>, root: NodeId) -> Vec<u32> {
        t.in_order(root).iter().map(|&x| *t.val(x)).collect()
    }

    #[test]
    fn merge_preserves_order() {
        let mut t = SeqTreap::new(1);
        let (root, _) = build_seq(&mut t, &(0..100).collect::<Vec<_>>());
        assert_eq!(values(&t, root), (0..100).collect::<Vec<_>>());
        t.check_invariants(root).unwrap();
        assert_eq!(t.seq_len(root), 100);
    }

    #[test]
    fn split_before_every_position() {
        for pos in 0..20 {
            let mut t = SeqTreap::new(7);
            let (_, ids) = build_seq(&mut t, &(0..20).collect::<Vec<_>>());
            let (l, r) = t.split_before(ids[pos]);
            let lv = if l == NIL { vec![] } else { values(&t, l) };
            let rv = values(&t, r);
            assert_eq!(lv, (0..pos as u32).collect::<Vec<_>>());
            assert_eq!(rv, (pos as u32..20).collect::<Vec<_>>());
            t.check_invariants(l).unwrap();
            t.check_invariants(r).unwrap();
        }
    }

    #[test]
    fn split_after_every_position() {
        for pos in 0..20 {
            let mut t = SeqTreap::new(9);
            let (_, ids) = build_seq(&mut t, &(0..20).collect::<Vec<_>>());
            let (l, r) = t.split_after(ids[pos]);
            let lv = values(&t, l);
            let rv = if r == NIL { vec![] } else { values(&t, r) };
            assert_eq!(lv, (0..=pos as u32).collect::<Vec<_>>());
            assert_eq!(rv, (pos as u32 + 1..20).collect::<Vec<_>>());
            t.check_invariants(l).unwrap();
            t.check_invariants(r).unwrap();
        }
    }

    #[test]
    fn index_and_precedes() {
        let mut t = SeqTreap::new(3);
        let (_, ids) = build_seq(&mut t, &(0..50).collect::<Vec<_>>());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.index_of(id), i);
        }
        assert!(t.precedes(ids[3], ids[40]));
        assert!(!t.precedes(ids[40], ids[3]));
    }

    #[test]
    fn flags_and_find() {
        let mut t = SeqTreap::new(5);
        let (root, ids) = build_seq(&mut t, &(0..32).collect::<Vec<_>>());
        assert_eq!(t.find_flag(root, 1), None);
        t.set_flags(ids[17], 1, true);
        t.set_flags(ids[9], 1, true);
        let root = t.root_of(ids[0]);
        let hit = t.find_flag(root, 1).unwrap();
        assert_eq!(*t.val(hit), 9, "leftmost flagged node");
        t.set_flags(ids[9], 1, false);
        let root = t.root_of(ids[0]);
        assert_eq!(*t.val(t.find_flag(root, 1).unwrap()), 17);
        t.set_flags(ids[17], 1, false);
        let root = t.root_of(ids[0]);
        assert_eq!(t.find_flag(root, 1), None);
        t.check_invariants(root).unwrap();
    }

    #[test]
    fn split_merge_roundtrip_preserves_everything() {
        let mut t = SeqTreap::new(11);
        let (_, ids) = build_seq(&mut t, &(0..64).collect::<Vec<_>>());
        t.set_flags(ids[30], 2, true);
        let (a, b) = t.split_before(ids[32]);
        let joined = t.merge(a, b);
        assert_eq!(values(&t, joined), (0..64).collect::<Vec<_>>());
        assert_eq!(*t.val(t.find_flag(joined, 2).unwrap()), 30);
        assert_eq!(joined, t.root_of(ids[0]));
    }

    #[test]
    fn first_last() {
        let mut t = SeqTreap::new(13);
        let (root, _) = build_seq(&mut t, &[5, 6, 7, 8]);
        assert_eq!(*t.val(t.first(root)), 5);
        assert_eq!(*t.val(t.last(root)), 8);
    }

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut t = SeqTreap::new(17);
        let a = t.alloc(1);
        assert_eq!(t.len(), 1);
        t.dealloc(a);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        let b = t.alloc(2);
        assert_eq!(a, b, "slot reused");
        assert_eq!(t.len(), 1);
    }
}
