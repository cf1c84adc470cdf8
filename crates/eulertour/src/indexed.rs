//! The paper's indexed Euler-tour representation (Section 5).
//!
//! Every vertex stores the set of tour positions at which it appears; all
//! structural updates are O(1)-word-describable arithmetic maps over those
//! positions. [`TourOp`] is exactly the message a machine receives in the
//! distributed algorithm; [`IndexedForest`] applies the ops over a whole
//! graph and is used both sequentially and as the per-machine kernel.
//!
//! **Paper erratum.** The paper's insert splices the absorbed tour right
//! after `f(x)`. When `x` is the root of its tree (`f(x) = 1`) that splice
//! point falls *inside* the pair `(x, first-child)` and the result is no
//! longer an Euler walk; worse, a later `delete` would remove the wrong two
//! parent appearances (our differential property test found this). We
//! therefore splice at position 0 when `x` is the root — the new subtree
//! becomes the root's first child — which is the unique walk-preserving
//! extension and coincides with the paper's formulas for every non-root `x`
//! (the worked Figure 1 example, where `x = g` is not a root, is unaffected).
//! The splice position remains a single word in the broadcast message.

use crate::explicit::ExplicitTour;
use crate::TourIx;
use dmpc_graph::{Edge, V};
use std::collections::{HashMap, HashSet};

/// Component identifier (fresh ids are allocated when a tree is split).
pub type CompId = u32;

/// The reroot index map: `i <- ((i + elen - l_y) mod elen) + 1`.
/// Callers must skip the reroot when `y` is already the root, as the paper
/// does ("we first make y the root ... if it is not already"). The `mod`
/// is a conditional subtract: `i + elen - l_y + 1` lies in `[2, 2·elen]`.
pub fn map_reroot(i: TourIx, elen: TourIx, l_y: TourIx) -> TourIx {
    debug_assert!(i >= 1 && i <= elen && l_y <= elen);
    debug_assert!(l_y >= 1, "a singleton is never rerooted");
    let j = i + elen - l_y + 1;
    j - if j > elen { elen } else { 0 }
}

/// An O(1)-word description of a tour update, broadcast to all machines;
/// each machine applies it to its locally stored vertices via
/// [`apply_op_to_vertex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TourOp {
    /// Reroot component `comp` (tour length `elen`) at the vertex `y` whose
    /// last appearance is `l_y`.
    Reroot {
        /// Component being rerooted.
        comp: CompId,
        /// Tour length of the component.
        elen: TourIx,
        /// `l(y)` before the reroot.
        l_y: TourIx,
        /// The new root (for assertions/debugging only).
        y: V,
    },
    /// Splice component `b` — already rerooted at `y` — into component `a`
    /// just after `f(x)`; the merged component keeps id `a`.
    Link {
        /// Surviving component (contains `x`).
        a: CompId,
        /// Absorbed component (contains `y`).
        b: CompId,
        /// Endpoint in `a`.
        x: V,
        /// Endpoint in `b` (root of `b`).
        y: V,
        /// Splice position in `a`'s tour: `f(x)`, or 0 when `x` is the root
        /// of `a` (including the singleton case) — see the module docs.
        fx: TourIx,
        /// Tour length of `b` (0 when `b` is a singleton).
        elen_b: TourIx,
    },
    /// Remove tree edge `(x, y)` where `x` is the parent; the subtree of `y`
    /// (positions `fy..=ly`) becomes component `new_comp`.
    Cut {
        /// Component being split.
        comp: CompId,
        /// Parent endpoint.
        x: V,
        /// Child endpoint.
        y: V,
        /// `f(y)` before the cut.
        fy: TourIx,
        /// `l(y)` before the cut.
        ly: TourIx,
        /// Fresh id for the detached component.
        new_comp: CompId,
    },
}

/// Applies `op` to one vertex's state: its component id and sorted index
/// list. Returns the vertex's (possibly new) component id.
///
/// This function is the entire per-machine work of the distributed
/// connectivity algorithm: O(1) words of control information transform any
/// number of locally stored indexes.
pub fn apply_op_to_vertex(op: &TourOp, w: V, comp_w: CompId, idx: &mut Vec<TourIx>) -> CompId {
    match *op {
        TourOp::Reroot {
            comp, elen, l_y, ..
        } => {
            if comp_w == comp {
                for i in idx.iter_mut() {
                    *i = map_reroot(*i, elen, l_y);
                }
                idx.sort_unstable();
            }
            comp_w
        }
        TourOp::Link {
            a,
            b,
            x,
            y,
            fx,
            elen_b,
        } => {
            if comp_w == b {
                for i in idx.iter_mut() {
                    *i += fx + 2;
                }
                if w == y {
                    idx.push(fx + 2);
                    idx.push(fx + elen_b + 3);
                }
                idx.sort_unstable();
                a
            } else if comp_w == a {
                for i in idx.iter_mut() {
                    if *i > fx {
                        *i += elen_b + 4;
                    }
                }
                if w == x {
                    idx.push(fx + 1);
                    idx.push(fx + elen_b + 4);
                }
                idx.sort_unstable();
                a
            } else {
                comp_w
            }
        }
        TourOp::Cut {
            comp,
            x,
            y,
            fy,
            ly,
            new_comp,
        } => {
            if comp_w != comp {
                return comp_w;
            }
            if w == x {
                idx.retain(|&i| i != fy - 1 && i != ly + 1);
            }
            if w == y {
                idx.retain(|&i| i != fy && i != ly);
            }
            // After dropping the four edge appearances, remaining indexes are
            // strictly inside (fy, ly) for the detached side and outside
            // [fy-1, ly+1] for the remaining side.
            let inside = idx.first().is_some_and(|&i| i > fy && i < ly);
            debug_assert!(
                idx.iter().all(|&i| (i > fy && i < ly) == inside),
                "indexes of {w} straddle the cut"
            );
            if inside {
                for i in idx.iter_mut() {
                    *i -= fy;
                }
                new_comp
            } else {
                let span = (ly - fy + 1) + 2;
                for i in idx.iter_mut() {
                    if *i > ly {
                        *i -= span;
                    }
                }
                // A vertex with no indexes left is a singleton; if it is the
                // child endpoint y it forms the new component by itself.
                if idx.is_empty() && w == y {
                    new_comp
                } else {
                    comp_w
                }
            }
        }
    }
}

/// A whole forest in the indexed representation: the sequential model of the
/// distributed state, and the ground-truth oracle for the machine-sharded
/// version.
#[derive(Clone, Debug)]
pub struct IndexedForest {
    comp: Vec<CompId>,
    idx: Vec<Vec<TourIx>>,
    members: HashMap<CompId, Vec<V>>,
    tree_edges: HashSet<Edge>,
    next_comp: CompId,
}

impl IndexedForest {
    /// `n` singleton components; vertex `v` starts in component `v`.
    pub fn new(n: usize) -> Self {
        IndexedForest {
            comp: (0..n as CompId).collect(),
            idx: vec![Vec::new(); n],
            members: (0..n as CompId).map(|v| (v, vec![v as V])).collect(),
            tree_edges: HashSet::new(),
            next_comp: n as CompId,
        }
    }

    /// Bulk-loads a tree (given by its edges and root) whose vertices are all
    /// currently singletons, using the canonical DFS tour. This mirrors the
    /// paper's preprocessing, which builds tours once and then maintains them
    /// incrementally. The merged component keeps the root's id.
    pub fn load_tree(&mut self, edges: &[Edge], root: V) {
        if edges.is_empty() {
            return;
        }
        let tour = ExplicitTour::from_tree(edges, root);
        let comp = self.comp[root as usize];
        let mut vs: Vec<V> = vec![root];
        for e in edges {
            for v in [e.u, e.v] {
                if v != root && self.comp[v as usize] != comp {
                    assert_eq!(
                        self.tree_size(v),
                        1,
                        "load_tree target vertex {v} is not a singleton"
                    );
                    vs.push(v);
                }
            }
        }
        vs.sort_unstable();
        vs.dedup();
        assert_eq!(vs.len(), edges.len() + 1, "edges must form a tree");
        for &v in &vs {
            let old = self.comp[v as usize];
            if old != comp {
                self.members.remove(&old);
            }
            self.comp[v as usize] = comp;
            self.idx[v as usize] = tour.indexes(v);
        }
        self.members.insert(comp, vs);
        for &e in edges {
            self.tree_edges.insert(e);
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.comp.len()
    }

    /// Component id of `v`.
    pub fn comp_of(&self, v: V) -> CompId {
        self.comp[v as usize]
    }

    /// True if `a` and `b` are in the same tree.
    pub fn connected(&self, a: V, b: V) -> bool {
        self.comp_of(a) == self.comp_of(b)
    }

    /// Number of vertices in `v`'s tree.
    pub fn tree_size(&self, v: V) -> usize {
        self.members[&self.comp_of(v)].len()
    }

    /// Tour length of `v`'s tree: `4(|T|-1)`.
    pub fn elen(&self, v: V) -> TourIx {
        4 * (self.tree_size(v) as TourIx - 1)
    }

    /// First appearance of `v` (0 for singletons).
    pub fn f(&self, v: V) -> TourIx {
        self.idx[v as usize].first().copied().unwrap_or(0)
    }

    /// Last appearance of `v` (0 for singletons).
    pub fn l(&self, v: V) -> TourIx {
        self.idx[v as usize].last().copied().unwrap_or(0)
    }

    /// The sorted index list of `v`.
    pub fn indexes(&self, v: V) -> &[TourIx] {
        &self.idx[v as usize]
    }

    /// The tree edges currently present.
    pub fn tree_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.tree_edges.iter().copied()
    }

    /// True if `(x,y)` is a tree edge.
    pub fn is_tree_edge(&self, e: Edge) -> bool {
        self.tree_edges.contains(&e)
    }

    /// True if `u` is an ancestor of `w` (including `u == w`) in their common
    /// tree, via the f/l nesting test the paper uses.
    pub fn is_ancestor(&self, u: V, w: V) -> bool {
        if u == w {
            return true;
        }
        if !self.connected(u, w) || self.tree_size(u) == 1 {
            return false;
        }
        self.f(u) <= self.f(w) && self.l(u) >= self.l(w)
    }

    /// For tree edge `e`, returns `(parent, child)` via span nesting.
    pub fn orient_tree_edge(&self, e: Edge) -> (V, V) {
        debug_assert!(self.is_tree_edge(e));
        if self.f(e.u) <= self.f(e.v) && self.l(e.u) >= self.l(e.v) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        }
    }

    /// True if tree edge `e` lies on the tree path between `x` and `y`
    /// (the paper's Section 5.1 test: the child endpoint is an ancestor of
    /// exactly one of `x`, `y`).
    pub fn on_path(&self, e: Edge, x: V, y: V) -> bool {
        let (_, c) = self.orient_tree_edge(e);
        self.is_ancestor(c, x) ^ self.is_ancestor(c, y)
    }

    /// Applies an op to every member of the given components, rebuilding
    /// membership lists in linear time.
    fn apply_all(&mut self, op: &TourOp, comps: &[CompId]) {
        let affected: Vec<V> = comps
            .iter()
            .filter_map(|c| self.members.get(c))
            .flat_map(|vs| vs.iter().copied())
            .collect();
        let mut new_lists: HashMap<CompId, Vec<V>> = HashMap::new();
        for &w in &affected {
            let old = self.comp[w as usize];
            let new = apply_op_to_vertex(op, w, old, &mut self.idx[w as usize]);
            self.comp[w as usize] = new;
            new_lists.entry(new).or_default().push(w);
        }
        for c in comps {
            self.members.remove(c);
        }
        for (c, vs) in new_lists {
            self.members.insert(c, vs);
        }
    }

    /// The reroot op for rerooting `y`'s tree at `y`, or `None` when `y` is
    /// already the root or a singleton.
    pub fn reroot_op(&self, y: V) -> Option<TourOp> {
        let elen = self.elen(y);
        if elen == 0 || self.f(y) == 1 {
            return None;
        }
        Some(TourOp::Reroot {
            comp: self.comp_of(y),
            elen,
            l_y: self.l(y),
            y,
        })
    }

    /// Links two trees with new tree edge `(x,y)`. Returns the ops that were
    /// applied (reroot of `y`'s side, if any, then the link) so callers can
    /// mirror them onto distributed state. Panics if already connected.
    pub fn link(&mut self, x: V, y: V) -> Vec<TourOp> {
        assert!(!self.connected(x, y), "link would create a cycle");
        let mut ops = Vec::new();
        if let Some(op) = self.reroot_op(y) {
            self.apply_all(&op, &[self.comp_of(y)]);
            ops.push(op);
        }
        // Erratum fix (see module docs): splice at 0 when x is the root.
        let fx = if self.f(x) <= 1 { 0 } else { self.f(x) };
        let op = TourOp::Link {
            a: self.comp_of(x),
            b: self.comp_of(y),
            x,
            y,
            fx,
            elen_b: self.elen(y),
        };
        self.apply_all(&op, &[self.comp_of(x), self.comp_of(y)]);
        ops.push(op);
        self.tree_edges.insert(Edge::new(x, y));
        ops
    }

    /// Cuts tree edge `(x,y)`; the child side gets a fresh component id.
    /// Returns the applied op. Panics if `(x,y)` is not a tree edge.
    pub fn cut(&mut self, x: V, y: V) -> TourOp {
        let e = Edge::new(x, y);
        let (p, c) = self.orient_tree_edge(e);
        assert!(self.tree_edges.remove(&e), "({x},{y}) is not a tree edge");
        let new_comp = self.next_comp;
        self.next_comp += 1;
        let op = TourOp::Cut {
            comp: self.comp_of(p),
            x: p,
            y: c,
            fy: self.f(c),
            ly: self.l(c),
            new_comp,
        };
        self.apply_all(&op, &[self.comp_of(p)]);
        op
    }

    /// Full structural audit: each component's index lists partition
    /// `1..=4(k-1)` and each vertex's index count equals twice its tree
    /// degree. Used by property tests.
    pub fn verify(&self) -> Result<(), String> {
        let mut deg: HashMap<V, usize> = HashMap::new();
        for e in &self.tree_edges {
            *deg.entry(e.u).or_default() += 1;
            *deg.entry(e.v).or_default() += 1;
        }
        for (&c, vs) in &self.members {
            let k = vs.len() as TourIx;
            let elen = 4 * (k - 1);
            let mut seen = vec![false; elen as usize + 1];
            for &v in vs {
                if self.comp[v as usize] != c {
                    return Err(format!("member list of {c} contains stray {v}"));
                }
                let d = deg.get(&v).copied().unwrap_or(0);
                if self.idx[v as usize].len() != 2 * d {
                    return Err(format!(
                        "vertex {v}: {} indexes but tree degree {d}",
                        self.idx[v as usize].len()
                    ));
                }
                for &i in &self.idx[v as usize] {
                    if i < 1 || i > elen {
                        return Err(format!("vertex {v}: index {i} out of 1..={elen}"));
                    }
                    if seen[i as usize] {
                        return Err(format!("index {i} appears twice in component {c}"));
                    }
                    seen[i as usize] = true;
                }
            }
            if seen[1..].iter().any(|&s| !s) {
                return Err(format!("component {c}: missing tour positions"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's forest loaded canonically: a=0..g=6; tree1 rooted b with
    /// edges (b,c),(c,d),(b,e); tree2 rooted a with (a,f),(f,g).
    fn fig1_forest() -> IndexedForest {
        let mut fo = IndexedForest::new(7);
        fo.load_tree(&[Edge::new(1, 2), Edge::new(2, 3), Edge::new(1, 4)], 1);
        fo.load_tree(&[Edge::new(0, 5), Edge::new(5, 6)], 0);
        fo
    }

    #[test]
    fn map_reroot_equals_the_modular_formula() {
        for elen in (4..=64).step_by(4) {
            for i in 1..=elen {
                for l_y in 1..=elen {
                    let want = ((i + elen - l_y) % elen) + 1;
                    assert_eq!(map_reroot(i, elen, l_y), want, "{i} {elen} {l_y}");
                }
            }
        }
    }

    #[test]
    fn figure1_initial_brackets() {
        let fo = fig1_forest();
        assert_eq!((fo.f(1), fo.l(1)), (1, 12));
        assert_eq!((fo.f(2), fo.l(2)), (2, 7));
        assert_eq!((fo.f(3), fo.l(3)), (4, 5));
        assert_eq!((fo.f(4), fo.l(4)), (10, 11));
        assert_eq!((fo.f(0), fo.l(0)), (1, 8));
        assert_eq!((fo.f(5), fo.l(5)), (2, 7));
        assert_eq!((fo.f(6), fo.l(6)), (4, 5));
        fo.verify().unwrap();
    }

    #[test]
    fn figure1_link_e_g() {
        let mut fo = fig1_forest();
        // insert (e,g): x=g (tree 2), y=e (tree 1). The reroot of tree 1 at e
        // reproduces Figure 1(ii); the link reproduces Figure 1(iii).
        let ops = fo.link(6, 4);
        assert_eq!(ops.len(), 2, "reroot then link");
        assert_eq!((fo.f(0), fo.l(0)), (1, 24));
        assert_eq!((fo.f(5), fo.l(5)), (2, 23));
        assert_eq!((fo.f(6), fo.l(6)), (4, 21));
        assert_eq!((fo.f(4), fo.l(4)), (6, 19));
        assert_eq!((fo.f(1), fo.l(1)), (8, 17));
        assert_eq!((fo.f(2), fo.l(2)), (10, 15));
        assert_eq!((fo.f(3), fo.l(3)), (12, 13));
        assert!(fo.connected(0, 3));
        fo.verify().unwrap();
    }

    #[test]
    fn figure2_cut_a_b() {
        // Figure 2's tree: a root; b (children c->d, e); f (child g).
        let mut fo = IndexedForest::new(7);
        fo.load_tree(
            &[
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(1, 4),
                Edge::new(0, 5),
                Edge::new(5, 6),
            ],
            0,
        );
        assert_eq!((fo.f(0), fo.l(0)), (1, 24));
        assert_eq!((fo.f(1), fo.l(1)), (2, 15));
        fo.cut(0, 1);
        assert!(!fo.connected(0, 1));
        assert_eq!((fo.f(1), fo.l(1)), (1, 12));
        assert_eq!((fo.f(2), fo.l(2)), (2, 7));
        assert_eq!((fo.f(3), fo.l(3)), (4, 5));
        assert_eq!((fo.f(4), fo.l(4)), (10, 11));
        assert_eq!((fo.f(0), fo.l(0)), (1, 8));
        assert_eq!((fo.f(5), fo.l(5)), (2, 7));
        assert_eq!((fo.f(6), fo.l(6)), (4, 5));
        fo.verify().unwrap();
    }

    #[test]
    fn ancestor_and_path_tests() {
        let mut fo = IndexedForest::new(6);
        fo.load_tree(
            &[
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(1, 4),
            ],
            0,
        );
        assert!(fo.is_ancestor(0, 3));
        assert!(fo.is_ancestor(1, 4));
        assert!(!fo.is_ancestor(4, 3));
        assert!(!fo.is_ancestor(3, 0));
        assert!(fo.is_ancestor(2, 2));
        assert!(!fo.is_ancestor(0, 5));
        // Path from 3 to 4 uses (2,3),(1,2),(1,4) but not (0,1).
        assert!(fo.on_path(Edge::new(2, 3), 3, 4));
        assert!(fo.on_path(Edge::new(1, 2), 3, 4));
        assert!(fo.on_path(Edge::new(1, 4), 3, 4));
        assert!(!fo.on_path(Edge::new(0, 1), 3, 4));
    }

    #[test]
    fn singleton_edge_cases() {
        let mut fo = IndexedForest::new(3);
        fo.link(0, 1);
        assert_eq!(fo.indexes(0), &[1, 4]);
        assert_eq!(fo.indexes(1), &[2, 3]);
        fo.cut(0, 1);
        assert!(fo.indexes(0).is_empty());
        assert!(fo.indexes(1).is_empty());
        assert!(!fo.connected(0, 1));
        assert_eq!(fo.tree_size(0), 1);
        fo.verify().unwrap();
        fo.link(1, 0);
        assert!(fo.connected(0, 1));
        fo.verify().unwrap();
    }

    #[test]
    fn link_at_root_keeps_bracket_structure() {
        // Splicing at the root exercises the paper's f(x)=1 corner; with the
        // erratum fix the result remains a valid Euler walk and later cuts
        // stay consistent.
        let mut fo = IndexedForest::new(4);
        fo.link(0, 1);
        fo.link(0, 2);
        fo.link(0, 3);
        fo.verify().unwrap();
        assert!(fo.is_ancestor(0, 1));
        assert!(fo.is_ancestor(0, 2));
        assert!(fo.is_ancestor(0, 3));
        assert!(!fo.is_ancestor(1, 2));
        fo.cut(0, 2);
        fo.verify().unwrap();
        assert!(!fo.connected(0, 2));
        assert!(fo.connected(0, 3));
    }

    #[test]
    #[should_panic]
    fn link_same_component_panics() {
        let mut fo = IndexedForest::new(3);
        fo.link(0, 1);
        fo.link(1, 0);
        fo.link(0, 1);
    }

    #[test]
    #[should_panic]
    fn cut_non_tree_edge_panics() {
        let mut fo = IndexedForest::new(3);
        fo.link(0, 1);
        fo.cut(1, 2);
    }
}
