//! Explicit Euler tours by direct sequence splicing.
//!
//! This representation is the obviously-correct ground truth: `link`, `cut`
//! and `reroot` are literal sequence surgery. The distributed representation
//! ([`crate::indexed::IndexedForest`]) is differentially tested against it.

use crate::TourIx;
use dmpc_graph::{Edge, V};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An explicit E-tour of one tree: the sequence of endpoints of traversed
/// edges (each tree edge contributes four entries: two per direction).
/// Positions are 1-based in the API; a singleton tree has an empty sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplicitTour {
    seq: Vec<V>,
}

impl ExplicitTour {
    /// The empty tour of a singleton tree.
    pub fn singleton() -> Self {
        ExplicitTour { seq: Vec::new() }
    }

    /// Builds the canonical tour of the tree spanned by `edges` rooted at
    /// `root`, visiting children in increasing vertex order. Panics if the
    /// edges do not form a tree containing `root`.
    pub fn from_tree(edges: &[Edge], root: V) -> Self {
        let mut adj: BTreeMap<V, BTreeSet<V>> = BTreeMap::new();
        for e in edges {
            adj.entry(e.u).or_default().insert(e.v);
            adj.entry(e.v).or_default().insert(e.u);
        }
        let mut seq = Vec::with_capacity(4 * edges.len());
        // Iterative DFS emitting (parent, child) on the way down and
        // (child, parent) on the way up.
        let mut stack: Vec<(V, Option<V>, bool)> = vec![(root, None, false)];
        let mut visited: BTreeSet<V> = BTreeSet::new();
        while let Some((v, parent, expanded)) = stack.pop() {
            if expanded {
                if let Some(p) = parent {
                    seq.push(v);
                    seq.push(p);
                }
                continue;
            }
            if !visited.insert(v) {
                panic!("edges contain a cycle through {v}");
            }
            if let Some(p) = parent {
                seq.push(p);
                seq.push(v);
            }
            stack.push((v, parent, true));
            if let Some(children) = adj.get(&v) {
                // Reverse order so the smallest child is expanded first.
                for &c in children.iter().rev() {
                    if Some(c) != parent {
                        stack.push((c, Some(v), false));
                    }
                }
            }
        }
        assert_eq!(
            visited.len(),
            edges.len() + 1,
            "edges do not form a single tree containing the root"
        );
        ExplicitTour { seq }
    }

    /// The sequence (position 1 is element 0).
    pub fn seq(&self) -> &[V] {
        &self.seq
    }

    /// Tour length `ELength = 4(|T|-1)`.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for the empty (singleton) tour.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Number of vertices of the underlying tree.
    pub fn tree_size(&self) -> usize {
        if self.seq.is_empty() {
            1
        } else {
            self.seq.len() / 4 + 1
        }
    }

    /// First appearance of `v` (1-based), or 0 if absent/singleton.
    pub fn f(&self, v: V) -> TourIx {
        self.seq
            .iter()
            .position(|&x| x == v)
            .map_or(0, |p| p as TourIx + 1)
    }

    /// Last appearance of `v` (1-based), or 0 if absent/singleton.
    pub fn l(&self, v: V) -> TourIx {
        self.seq
            .iter()
            .rposition(|&x| x == v)
            .map_or(0, |p| p as TourIx + 1)
    }

    /// All appearances of `v` (1-based, increasing).
    pub fn indexes(&self, v: V) -> Vec<TourIx> {
        self.seq
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x == v)
            .map(|(i, _)| i as TourIx + 1)
            .collect()
    }

    /// Every vertex's appearances (1-based, increasing), in one pass over
    /// the tour: O(len), where calling [`Self::indexes`] per vertex is
    /// O(len) each.
    pub fn appearances(&self) -> HashMap<V, Vec<TourIx>> {
        let mut lists: HashMap<V, Vec<TourIx>> = HashMap::new();
        for (i, &v) in self.seq.iter().enumerate() {
            lists.entry(v).or_default().push(i as TourIx + 1);
        }
        lists
    }

    /// The root (first element), if the tree is not a singleton.
    pub fn root(&self) -> Option<V> {
        self.seq.first().copied()
    }

    /// Reroots the tour at `y`: rotates the sequence so that it starts with
    /// the edge from `y` to its former parent (the paper's index map
    /// `i <- ((i + ELen - l(y)) mod ELen) + 1`). A no-op if `y` is already
    /// the root or the tree is a singleton.
    pub fn reroot(&mut self, y: V) {
        if self.seq.is_empty() || self.root() == Some(y) {
            return;
        }
        let l = self.l(y);
        assert!(l > 0, "{y} not on tour");
        // New position of old index i is ((i + ELen - l) mod ELen) + 1, so
        // old 1-based index l lands at position 1: rotate left by l-1.
        self.seq.rotate_left(l as usize - 1);
    }

    /// Validity check: the sequence is a closed walk from its first vertex
    /// using each of `edges` exactly twice (once per direction), with edges
    /// listed as consecutive endpoint pairs.
    pub fn is_valid_for(&self, edges: &[Edge]) -> bool {
        if edges.is_empty() {
            return self.seq.is_empty();
        }
        if self.seq.len() != 4 * edges.len() {
            return false;
        }
        let set: BTreeSet<Edge> = edges.iter().copied().collect();
        let mut used: BTreeSet<(V, V)> = BTreeSet::new();
        let root = self.seq[0];
        let mut cur = root;
        for pair in self.seq.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a != cur || a == b || !set.contains(&Edge::new(a, b)) {
                return false;
            }
            if !used.insert((a, b)) {
                return false; // direction traversed twice
            }
            cur = b;
        }
        cur == root && used.len() == 2 * edges.len()
    }

    /// Links tree `other` (rooted anywhere) below vertex `x` of `self` via
    /// the new edge `(x, y)`, per the paper's `insert` splice:
    /// `A[1..=f(x)] ++ [x, y] ++ reroot(B, y) ++ [y, x] ++ A[f(x)+1..]`.
    ///
    /// Erratum handling: when `x` is the root of `self` (`f(x) = 1`), the
    /// paper's splice point would fall inside the pair `(x, first-child)`
    /// and break the walk; we splice at position 0 instead (the new subtree
    /// becomes the root's first child), which is the unique valid extension
    /// and coincides with the paper's formulas for every non-root `x`.
    pub fn link(&mut self, x: V, mut other: ExplicitTour, y: V) {
        let fx = self.f(x) as usize;
        if !self.seq.is_empty() {
            assert!(fx > 0, "{x} not in this tour");
        }
        let fx = if fx <= 1 { 0 } else { fx };
        other.reroot(y);
        let mut out = Vec::with_capacity(self.seq.len() + other.seq.len() + 4);
        out.extend_from_slice(&self.seq[..fx]);
        out.push(x);
        out.push(y);
        out.extend_from_slice(&other.seq);
        out.push(y);
        out.push(x);
        out.extend_from_slice(&self.seq[fx..]);
        self.seq = out;
    }

    /// Cuts the tree edge `(x, y)`; `self` keeps the side of the tour root
    /// and the detached side (rooted at the lower endpoint) is returned.
    pub fn cut(&mut self, x: V, y: V) -> ExplicitTour {
        // The lower endpoint is the one whose appearances nest inside the
        // other's.
        let (fx, lx, fy, ly) = (self.f(x), self.l(x), self.f(y), self.l(y));
        assert!(fx > 0 && fy > 0, "endpoints must be on the tour");
        let (child_f, child_l) = if fx <= fy && lx >= ly {
            (fy, ly)
        } else {
            assert!(fy <= fx && ly >= lx, "({x},{y}) endpoints unrelated");
            (fx, lx)
        };
        let (cf, cl) = (child_f as usize, child_l as usize);
        // The detached tour keeps positions f(y)+1 ..= l(y)-1: y's own
        // appearances at f(y) and l(y) belonged to the deleted edge.
        let detached = ExplicitTour {
            seq: self.seq[cf..cl - 1].to_vec(),
        };
        let mut rest = Vec::with_capacity(self.seq.len() - (cl - cf + 1) - 2);
        rest.extend_from_slice(&self.seq[..cf - 2]);
        rest.extend_from_slice(&self.seq[cl + 1..]);
        self.seq = rest;
        detached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree of Figure 1, tour 1: root b=1, children c=2 (child d=3), e=4.
    /// Vertex names: a=0,b=1,c=2,d=3,e=4,f=5,g=6.
    fn fig1_tree1() -> (Vec<Edge>, ExplicitTour) {
        let edges = vec![Edge::new(1, 2), Edge::new(2, 3), Edge::new(1, 4)];
        (edges.clone(), ExplicitTour::from_tree(&edges, 1))
    }

    #[test]
    fn builds_figure1_tour() {
        let (edges, t) = fig1_tree1();
        assert_eq!(t.seq(), &[1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 1]);
        assert!(t.is_valid_for(&edges));
        assert_eq!(t.len(), 12);
        assert_eq!(t.tree_size(), 4);
        assert_eq!((t.f(1), t.l(1)), (1, 12));
        assert_eq!((t.f(2), t.l(2)), (2, 7));
        assert_eq!((t.f(3), t.l(3)), (4, 5));
        assert_eq!((t.f(4), t.l(4)), (10, 11));
    }

    #[test]
    fn appearances_match_per_vertex_indexes() {
        let (_, mut t) = fig1_tree1();
        for _ in 0..2 {
            let lists = t.appearances();
            assert_eq!(lists.len(), t.tree_size());
            for (&v, list) in &lists {
                assert_eq!(*list, t.indexes(v), "vertex {v}");
            }
            t.reroot(4);
        }
        assert!(ExplicitTour::singleton().appearances().is_empty());
    }

    #[test]
    fn reroot_matches_figure1_ii() {
        let (edges, mut t) = fig1_tree1();
        t.reroot(4); // reroot at e
        assert_eq!(t.seq(), &[4, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 4]);
        assert!(t.is_valid_for(&edges));
        assert_eq!((t.f(4), t.l(4)), (1, 12));
        assert_eq!((t.f(1), t.l(1)), (2, 11));
        assert_eq!((t.f(2), t.l(2)), (4, 9));
        assert_eq!((t.f(3), t.l(3)), (6, 7));
    }

    #[test]
    fn reroot_at_root_is_noop() {
        let (_, mut t) = fig1_tree1();
        let before = t.clone();
        t.reroot(1);
        assert_eq!(t, before);
    }

    #[test]
    fn link_matches_figure1_iii() {
        // Tree 2: a=0 root, f=5, g=6; tour [a,f,f,g,g,f,f,a].
        let t2_edges = vec![Edge::new(0, 5), Edge::new(5, 6)];
        let mut t2 = ExplicitTour::from_tree(&t2_edges, 0);
        assert_eq!(t2.seq(), &[0, 5, 5, 6, 6, 5, 5, 0]);
        let (_, t1) = fig1_tree1();
        // Insert edge (e,g) = (4,6): x = g (in t2), y = e (in t1).
        t2.link(6, t1, 4);
        assert_eq!(
            t2.seq(),
            &[0, 5, 5, 6, 6, 4, 4, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 6, 6, 5, 5, 0]
        );
        assert_eq!((t2.f(0), t2.l(0)), (1, 24));
        assert_eq!((t2.f(5), t2.l(5)), (2, 23));
        assert_eq!((t2.f(6), t2.l(6)), (4, 21));
        assert_eq!((t2.f(4), t2.l(4)), (6, 19));
        assert_eq!((t2.f(1), t2.l(1)), (8, 17));
        assert_eq!((t2.f(2), t2.l(2)), (10, 15));
        assert_eq!((t2.f(3), t2.l(3)), (12, 13));
    }

    #[test]
    fn link_singletons() {
        let mut a = ExplicitTour::singleton();
        a.link(7, ExplicitTour::singleton(), 9);
        assert_eq!(a.seq(), &[7, 9, 9, 7]);
        assert!(a.is_valid_for(&[Edge::new(7, 9)]));
    }

    #[test]
    fn cut_matches_figure2() {
        // Figure 2 tree: a(0) root; children b(1), f(5); b's children c(2)
        // [child d(3)] and e(4); f's child g(6).
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(1, 4),
            Edge::new(0, 5),
            Edge::new(5, 6),
        ];
        let mut t = ExplicitTour::from_tree(&edges, 0);
        assert_eq!(
            t.seq(),
            &[0, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 1, 1, 0, 0, 5, 5, 6, 6, 5, 5, 0]
        );
        let detached = t.cut(0, 1);
        // Figure 2(iii): tour 1 = [b,c,c,d,d,c,c,b,b,e,e,b], tour 2 = [a,f,f,g,g,f,f,a].
        assert_eq!(detached.seq(), &[1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 1]);
        assert_eq!(t.seq(), &[0, 5, 5, 6, 6, 5, 5, 0]);
        assert_eq!((detached.f(1), detached.l(1)), (1, 12));
        assert_eq!((detached.f(2), detached.l(2)), (2, 7));
        assert_eq!((detached.f(3), detached.l(3)), (4, 5));
        assert_eq!((detached.f(4), detached.l(4)), (10, 11));
        assert_eq!((t.f(0), t.l(0)), (1, 8));
        assert_eq!((t.f(5), t.l(5)), (2, 7));
        assert_eq!((t.f(6), t.l(6)), (4, 5));
    }

    #[test]
    fn cut_leaf_leaves_singleton() {
        let edges = vec![Edge::new(0, 1)];
        let mut t = ExplicitTour::from_tree(&edges, 0);
        let d = t.cut(0, 1);
        assert!(t.is_empty());
        assert!(d.is_empty());
        assert_eq!(t.tree_size(), 1);
    }

    #[test]
    fn link_then_cut_roundtrip() {
        let (edges1, t1) = fig1_tree1();
        let mut t2 = ExplicitTour::from_tree(&[Edge::new(0, 5)], 0);
        t2.link(5, t1.clone(), 2);
        let mut all_edges = edges1.clone();
        all_edges.push(Edge::new(0, 5));
        all_edges.push(Edge::new(5, 2));
        assert!(t2.is_valid_for(&all_edges));
        let detached = t2.cut(5, 2);
        assert!(detached.is_valid_for(&edges1));
        assert!(t2.is_valid_for(&[Edge::new(0, 5)]));
        // The detached side is rooted at y = 2.
        assert_eq!(detached.root(), Some(2));
    }
}
