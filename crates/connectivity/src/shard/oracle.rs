//! The per-vertex definition of a structural op, kept as the differential
//! oracle of the in-place kernels ([`Shard::apply_struct`],
//! [`Shard::apply_swap`], [`Shard::path_max`]): the index arithmetic as
//! pure functions over one vertex's core fields and one adjacency entry,
//! the two scans written as plain folds of them, and the tests that hold
//! the kernels to them. An MST swap has no definition of its own: it is
//! the fold of its demote followed by the fold of its link.

use super::*;
use dmpc_eulertour::indexed::{apply_op_to_vertex, map_reroot};

/// Per-vertex membership flags computed by [`update_core`], consumed by
/// [`rewrite_entry`] for every adjacency entry of that vertex.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct VertFlags {
    /// The vertex belonged to the rerooted (absorbed) component.
    reroot_member: bool,
    /// The vertex belongs to one of the two linked components.
    link_member: bool,
    /// ... specifically to the absorbed side `b`.
    link_from_b: bool,
    /// The vertex belonged to the cut component.
    was_member: bool,
    /// ... and ended up on the detached (child) side.
    my_detached: bool,
}

/// Applies the broadcast's reroot + main op to one vertex's component id,
/// size and tour-index list (the per-vertex "core"). Returns the membership
/// flags the per-entry rewrite needs.
pub(super) fn update_core(
    b: &StructBroadcast,
    v: V,
    comp: &mut CompId,
    size: &mut u64,
    idx: &mut Vec<TourIx>,
) -> VertFlags {
    let mut fl = VertFlags::default();
    // 1. Reroot (links only): a bijection on the absorbed component's
    // index space. Never changes the component id.
    if let Some(r @ TourOp::Reroot { comp: rc, .. }) = b.reroot {
        if *comp == rc {
            fl.reroot_member = true;
            apply_op_to_vertex(&r, v, *comp, idx);
        }
    }
    // 2. Main op.
    match b.main {
        TourOp::Link { a, b: bc, .. } => {
            let old = *comp;
            if old == a || old == bc {
                fl.link_member = true;
                fl.link_from_b = old == bc;
                *comp = apply_op_to_vertex(&b.main, v, old, idx);
                *size = b.merged_size;
            }
        }
        TourOp::Cut {
            comp: c,
            fy,
            ly,
            new_comp,
            ..
        } => {
            if *comp == c {
                fl.was_member = true;
                let k_sub = (ly - fy).div_ceil(4);
                let old_size = *size;
                *comp = apply_op_to_vertex(&b.main, v, *comp, idx);
                fl.my_detached = *comp == new_comp;
                *size = if fl.my_detached {
                    k_sub
                } else {
                    old_size - k_sub
                };
            }
        }
        TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
    }
    fl
}

/// Rewrites one adjacency entry's annotations under the broadcast ops and
/// folds crossing-edge replacement candidates (searching cuts).
///
/// Tree entries always live in the owner's component's index space;
/// non-tree cached indexes live in `far_comp`'s index space (the two can
/// differ transiently between a cut and its reconnecting link). Must be
/// called after [`update_core`] updated the vertex's core.
#[inline]
pub(super) fn rewrite_entry(
    b: &StructBroadcast,
    fl: &VertFlags,
    v: V,
    far: V,
    kind: &mut EntryKind,
    w: Weight,
    best: &mut Option<(Weight, Edge)>,
) {
    // 1. Reroot phase.
    if let Some(TourOp::Reroot {
        comp: rc,
        elen,
        l_y,
        ..
    }) = b.reroot
    {
        match kind {
            EntryKind::Tree { lo, hi } if fl.reroot_member => {
                let (a, c) = (map_reroot(*lo, elen, l_y), map_reroot(*hi, elen, l_y));
                *lo = a.min(c);
                *hi = a.max(c);
            }
            EntryKind::NonTree { cached, far_comp } if *far_comp == rc => {
                *cached = map_reroot(*cached, elen, l_y);
            }
            _ => {}
        }
    }
    // 2. Main op.
    match b.main {
        TourOp::Link {
            a,
            b: bc,
            fx,
            elen_b,
            ..
        } => {
            let shift_b = fx + 2;
            let shift_a = elen_b + 4;
            match kind {
                EntryKind::Tree { lo, hi } if fl.link_member => {
                    let map = |i: TourIx| {
                        if fl.link_from_b {
                            i + shift_b
                        } else if i > fx {
                            i + shift_a
                        } else {
                            i
                        }
                    };
                    *lo = map(*lo);
                    *hi = map(*hi);
                }
                EntryKind::NonTree { cached, far_comp } => {
                    if *far_comp == bc {
                        // cached == 0 means the far endpoint was a
                        // singleton, i.e. it is the link's y, whose
                        // first new index is fx+2 (== 0 + shift_b).
                        *cached += shift_b;
                        *far_comp = a;
                    } else if *far_comp == a {
                        if *cached == 0 {
                            // Far endpoint was a singleton = the link's
                            // x; its first new index is fx+1 (fx = 0).
                            *cached = fx + 1;
                        } else if *cached > fx {
                            *cached += shift_a;
                        }
                    }
                }
                _ => {}
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
            // The cut edge's own entries are rewritten afterwards (by the
            // materialization step).
            if (v == x && far == y) || (v == y && far == x) {
                return;
            }
            let span = (ly - fy + 1) + 2;
            let child_singleton = ly == fy + 1;
            match kind {
                EntryKind::Tree { lo, hi } => {
                    if !fl.was_member {
                        return;
                    }
                    // A surviving tree edge lies on one side.
                    let map = |i: TourIx| {
                        if i > fy && i < ly {
                            i - fy
                        } else if i > ly {
                            i - span
                        } else {
                            i
                        }
                    };
                    *lo = map(*lo);
                    *hi = map(*hi);
                }
                EntryKind::NonTree { cached, far_comp } => {
                    if *far_comp != comp {
                        return;
                    }
                    // Classify the far side, repairing the dying
                    // indexes of the cut edge's endpoints.
                    if far == y {
                        *far_comp = new_comp;
                        *cached = if child_singleton { 0 } else { 1 };
                    } else if far == x {
                        *cached = b.x_after;
                    } else if *cached > fy && *cached < ly {
                        *far_comp = new_comp;
                        *cached -= fy;
                    } else if *cached > ly {
                        *cached -= span;
                    }
                    if b.rendezvous.is_some()
                        && fl.was_member
                        && (*far_comp == new_comp) != fl.my_detached
                    {
                        // Crossing edge: replacement candidate.
                        let cand = (w, Edge::new(v, far));
                        if best.is_none_or(|cur| cand < cur) {
                            *best = Some(cand);
                        }
                    }
                }
            }
        }
        TourOp::Reroot { .. } => unreachable!(),
    }
}

impl Shard {
    /// [`Shard::apply_struct`] as a fold of the per-vertex definition: copy
    /// each vertex's tour out of its tree prefix, [`update_core`], then
    /// [`rewrite_entry`] on every decoded entry. Once the edge's entries are
    /// in, each prefix must name the list `update_core` computed.
    pub(super) fn apply_struct_oracle(&mut self, b: &StructBroadcast) -> ApplyOutcome {
        let mut best: Option<(Weight, Edge)> = None;
        let mut outcome = ApplyOutcome::default();
        let (cut_comp, cut_new) = match b.main {
            TourOp::Cut { comp, new_comp, .. } => (comp, new_comp),
            _ => (COMP_NONE, COMP_NONE),
        };
        let mut cores = Vec::new();
        for slot in 0..self.comp.len() {
            if self.comp[slot] == COMP_NONE {
                continue;
            }
            let v = self.base + slot as V;
            let mut idx = self.index_list(slot);
            let mut comp = self.comp[slot];
            let mut size = self.size[slot] as u64;
            let fl = update_core(b, v, &mut comp, &mut size, &mut idx);
            self.comp[slot] = comp;
            self.size[slot] = size as u32;
            if comp == cut_comp {
                outcome.owns_parent = true;
            } else if comp == cut_new {
                outcome.owns_child = true;
            }
            for i in self.apos[slot].range() {
                let (mut kind, w) = self.entry(slot, i);
                rewrite_entry(b, &fl, v, self.afar[i], &mut kind, w, &mut best);
                let (_, a, bb) = encode_kind(&kind);
                self.aa[i] = a;
                self.ab[i] = bb;
            }
            self.lift_parent_edge(slot);
            cores.push((slot, idx));
        }
        outcome.best = best.map(|(w, e)| (e, w));
        self.materialize_edge(b);
        for (slot, idx) in cores {
            assert_eq!(self.index_list(slot), idx, "slot {slot} after {b:?}");
        }
        outcome
    }

    /// Path-max as a scan of every tree entry of every member: the edge is
    /// judged by its own child-side `(lo, hi)`, not by the vertex's span.
    pub(super) fn path_max_oracle(&self, path: &PathSpans) -> Option<(Edge, Weight)> {
        let mut best: Option<(Weight, Edge)> = None;
        for slot in 0..self.comp.len() {
            if self.comp[slot] != path.comp {
                continue;
            }
            let v = self.base + slot as V;
            for i in self.apos[slot].range() {
                let (EntryKind::Tree { lo, hi }, w) = self.entry(slot, i) else {
                    continue;
                };
                // Process each tree edge once: at its child endpoint.
                if !lo.is_multiple_of(2) {
                    continue;
                }
                // Child's subtree span is [lo, hi]; the edge is on the
                // x..y path iff the span contains exactly one endpoint.
                let contains_x = lo <= path.fx && path.lx <= hi;
                let contains_y = lo <= path.fy && path.ly <= hi;
                if contains_x ^ contains_y {
                    let e = Edge::new(v, self.afar[i]);
                    let better = match best {
                        None => true,
                        Some((bw, be)) => w > bw || (w == bw && e < be),
                    };
                    if better {
                        best = Some((w, e));
                    }
                }
            }
        }
        best.map(|(w, e)| (e, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmpcMst;
    use dmpc_core::DmpcParams;
    use dmpc_eulertour::indexed::IndexedForest;
    use dmpc_graph::streams::{self, WeightedUpdate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The whole graph a shard under test holds a slice of: the tour indexes
    /// as an [`IndexedForest`] plus weighted tree and non-tree edge sets.
    /// Non-tree edges may join different components (as they do between a
    /// cut and its replacement link), which is what leaves bystander
    /// vertices holding entries into the components an op names.
    struct World {
        forest: IndexedForest,
        tree: BTreeMap<Edge, Weight>,
        non_tree: BTreeMap<Edge, Weight>,
        rng: StdRng,
        /// Op shapes generated so far.
        shapes: BTreeSet<&'static str>,
    }

    impl World {
        fn new(n: usize, seed: u64) -> Self {
            World {
                forest: IndexedForest::new(n),
                tree: BTreeMap::new(),
                non_tree: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed),
                shapes: BTreeSet::new(),
            }
        }

        /// Two distinct vertices.
        fn pair(&mut self) -> (V, V) {
            let n = self.forest.n() as V;
            let x = self.rng.gen_range(0..n);
            let y = (x + self.rng.gen_range(1..n)) % n;
            (x, y)
        }

        /// Some live tour index of `v` (0 for a singleton).
        fn some_index(&mut self, v: V) -> TourIx {
            match self.forest.indexes(v) {
                [] => 0,
                idx => idx[self.rng.gen_range(0..idx.len())],
            }
        }

        fn non_tree_entry(&mut self, far: V) -> EntryKind {
            EntryKind::NonTree {
                cached: self.some_index(far),
                far_comp: self.forest.comp_of(far),
            }
        }

        /// The tree entry `v` holds for tree edge `e`: the child side holds
        /// the child's span, the parent side the two indexes around it.
        fn tree_entry(&self, e: Edge, v: V) -> EntryKind {
            let (_, c) = self.forest.orient_tree_edge(e);
            let (f, l) = (self.forest.f(c), self.forest.l(c));
            if v == c {
                EntryKind::Tree { lo: f, hi: l }
            } else {
                EntryKind::Tree {
                    lo: f - 1,
                    hi: l + 1,
                }
            }
        }

        fn state_of(&mut self, v: V) -> VertexState {
            let mut adj = BTreeMap::new();
            for (&e, &w) in self.tree.iter().filter(|(e, _)| e.touches(v)) {
                adj.insert(e.other(v), (self.tree_entry(e, v), w));
            }
            let incident: Vec<(V, Weight)> = (self.non_tree.iter())
                .filter(|(e, _)| e.touches(v))
                .map(|(e, &w)| (e.other(v), w))
                .collect();
            for (far, w) in incident {
                adj.insert(far, (self.non_tree_entry(far), w));
            }
            VertexState {
                comp: self.forest.comp_of(v),
                size: self.forest.tree_size(v) as u64,
                idx: self.forest.indexes(v).to_vec(),
                adj,
            }
        }

        /// Cuts tree edge `e` in the world and returns the broadcast that
        /// tells a shard about it.
        fn cut(&mut self, e: Edge, mode: CutMode, searching: bool) -> StructBroadcast {
            let w = self.tree.remove(&e).expect("cutting a tree edge");
            if mode == CutMode::Demote {
                self.non_tree.insert(e, w);
            }
            let main = self.forest.cut(e.u, e.v);
            let TourOp::Cut { x, fy, ly, .. } = main else {
                unreachable!("a cut returns a cut op")
            };
            self.shapes.extend([
                if searching {
                    "cut searching"
                } else {
                    "cut quiet"
                },
                if mode == CutMode::Demote {
                    "cut demote"
                } else {
                    "cut remove"
                },
            ]);
            if ly == fy + 1 {
                self.shapes.insert("cut child singleton");
            }
            if fy == 2 {
                self.shapes.insert("cut root's first child");
            }
            StructBroadcast {
                reroot: None,
                main,
                merged_size: 0,
                x_after: self.forest.f(x),
                edge: e,
                weight: 0,
                cut_mode: mode,
                rendezvous: searching.then_some(0),
                lane: None,
            }
        }

        /// Links `x` and `y` (in different trees) by a tree edge of weight
        /// `w`, promoting a non-tree edge between them if there is one.
        fn link(&mut self, x: V, y: V, w: Weight) -> StructBroadcast {
            let (size_x, size_y) = (self.forest.tree_size(x), self.forest.tree_size(y));
            let x_is_root = self.forest.f(x) == 1;
            let ops = self.forest.link(x, y);
            let (reroot, main) = match ops[..] {
                [main] => (None, main),
                [reroot, main] => (Some(reroot), main),
                _ => unreachable!("a link is at most a reroot and a link op"),
            };
            self.shapes.insert(if reroot.is_some() {
                "link reroot"
            } else {
                "link plain"
            });
            if size_x == 1 {
                self.shapes.insert("link singleton x");
            }
            if size_y == 1 {
                self.shapes.insert("link singleton y");
            }
            if x_is_root {
                self.shapes.insert("link root x");
            }
            let e = Edge::new(x, y);
            self.non_tree.remove(&e);
            self.tree.insert(e, w);
            StructBroadcast {
                reroot,
                main,
                merged_size: (size_x + size_y) as u64,
                x_after: 0,
                edge: e,
                weight: w,
                cut_mode: CutMode::Remove,
                rendezvous: None,
                lane: None,
            }
        }

        /// The next structural op: cuts and links balance around a half-full
        /// forest, so singletons, small trees and roots all stay common.
        fn struct_op(&mut self) -> StructBroadcast {
            let n = self.forest.n();
            if self.rng.gen_range(0..n - 1) < self.tree.len() {
                let k = self.rng.gen_range(0..self.tree.len());
                let e = *self.tree.keys().nth(k).expect("k < len");
                let mode = if self.rng.gen_bool(0.5) {
                    CutMode::Demote
                } else {
                    CutMode::Remove
                };
                let searching = self.rng.gen_bool(0.5);
                self.cut(e, mode, searching)
            } else {
                let (x, y) = loop {
                    let (x, y) = self.pair();
                    if !self.forest.connected(x, y) {
                        break (x, y);
                    }
                };
                let w = self.rng.gen_range(1..6);
                self.link(x, y, w)
            }
        }

        /// An MST swap: demotes a random tree edge `d`, then links an absent
        /// edge `e` across the two sides, `e.u` as the link's `x` (as the
        /// protocol links). Returns the fused broadcast and the two it
        /// stands for, or `None` when no such `e` exists.
        fn swap(&mut self) -> Option<(SwapBroadcast, [StructBroadcast; 2])> {
            let k = self.rng.gen_range(0..self.tree.len().max(1));
            let d = *self.tree.keys().nth(k)?;
            let f = &self.forest;
            let (_, c) = f.orient_tree_edge(d);
            let (comp, fc, lc) = (f.comp_of(c), f.f(c), f.l(c));
            let members = (0..f.n() as V).filter(|&v| f.comp_of(v) == comp);
            let (child, parent): (Vec<V>, Vec<V>) =
                members.partition(|&v| fc <= f.f(v) && f.l(v) <= lc);
            let across: Vec<Edge> = (parent.iter())
                .flat_map(|&p| child.iter().map(move |&c| Edge::new(p, c)))
                .filter(|e| *e != d && !self.non_tree.contains_key(e))
                .collect();
            let e = *across.get(self.rng.gen_range(0..across.len().max(1)))?;
            let w = self.rng.gen_range(1..6);
            let cut = self.cut(d, CutMode::Demote, false);
            let link = self.link(e.u, e.v, w);
            if child.contains(&e.u) {
                self.shapes.insert("swap e.u on the child side");
            }
            if link.reroot.is_some() {
                self.shapes.insert(if child.contains(&e.v) {
                    "swap reroot of the child side"
                } else {
                    "swap reroot of the parent side"
                });
            }
            if child.len() == 1 {
                self.shapes.insert("swap child singleton");
            }
            if e.touches(d.u) || e.touches(d.v) {
                self.shapes.insert("swap shares an endpoint with d");
            }
            let (TourOp::Link { b, y, elen_b, .. }, reroot) = (link.main, link.reroot) else {
                unreachable!("a link links")
            };
            // The swap carries the reroot as `l(y)` alone.
            let reroot_l_y = reroot.map(|r| {
                let TourOp::Reroot {
                    comp,
                    elen,
                    l_y,
                    y: root,
                } = r
                else {
                    unreachable!("a link reroots with a reroot")
                };
                assert_eq!((comp, elen, root), (b, elen_b, y));
                l_y
            });
            let s = SwapBroadcast {
                cut: cut.main,
                x_after: cut.x_after,
                link: link.main,
                reroot_l_y,
                weight: w,
            };
            Some((s, [cut, link]))
        }

        /// Adds a non-tree edge, or removes it if it is there; mirrors the
        /// change into the owned endpoints' entries of every shard.
        fn toggle_non_tree(&mut self, shards: &mut [&mut Shard]) {
            let (u, v) = self.pair();
            let e = Edge::new(u, v);
            if self.tree.contains_key(&e) {
                return;
            }
            let w = self.rng.gen_range(1..6);
            let added = self.non_tree.remove(&e).is_none();
            if added {
                self.non_tree.insert(e, w);
            }
            for (v, far) in [(u, v), (v, u)] {
                let kind = self.non_tree_entry(far);
                for sh in shards.iter_mut().filter(|sh| sh.contains(v)) {
                    if added {
                        sh.adj_set(v, far, kind, w);
                    } else {
                        sh.adj_remove(v, far);
                    }
                }
            }
        }

        /// Every vertex the shard owns is what the world says it is.
        fn check(&self, sh: &Shard, ctx: &str) {
            for (v, st) in sh.vertices() {
                let f = &self.forest;
                assert_eq!(st.comp, f.comp_of(v), "{ctx}: comp of {v}");
                assert_eq!(st.size, f.tree_size(v) as u64, "{ctx}: size of {v}");
                assert_eq!(st.idx, f.indexes(v), "{ctx}: indexes of {v}");
                let mut want: Vec<(V, Weight)> = (self.tree.iter().chain(&self.non_tree))
                    .filter(|(e, _)| e.touches(v))
                    .map(|(e, &w)| (e.other(v), w))
                    .collect();
                want.sort_unstable();
                let got: Vec<(V, Weight)> = st.adj.iter().map(|(&far, &(_, w))| (far, w)).collect();
                assert_eq!(got, want, "{ctx}: edges at {v}");
                for (&far, &(kind, _)) in &st.adj {
                    let e = Edge::new(v, far);
                    match kind {
                        EntryKind::Tree { .. } => {
                            assert!(self.tree.contains_key(&e), "{ctx}: {e} is no tree edge");
                            assert_eq!(kind, self.tree_entry(e, v), "{ctx}: tree {e} at {v}");
                        }
                        EntryKind::NonTree { cached, far_comp } => {
                            assert!(self.non_tree.contains_key(&e), "{ctx}: {e} is a tree edge");
                            assert_eq!(far_comp, f.comp_of(far), "{ctx}: far_comp of {e} at {v}");
                            let live = f.indexes(far).contains(&cached)
                                || (cached == 0 && f.indexes(far).is_empty());
                            assert!(live, "{ctx}: cached {cached} of {e} at {v} is dead");
                        }
                    }
                }
            }
        }

        /// The heaviest tree edge (ties toward the smaller edge) on the
        /// `x`..`y` path whose child endpoint `sh` owns.
        fn path_max(&self, sh: &Shard, x: V, y: V) -> Option<(Edge, Weight)> {
            self.tree
                .iter()
                .filter(|(&e, _)| {
                    self.forest.connected(e.u, x)
                        && self.forest.on_path(e, x, y)
                        && sh.contains(self.forest.orient_tree_edge(e).1)
                })
                .map(|(&e, &w)| (e, w))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        }
    }

    fn text_of(sh: &Shard) -> String {
        dmpc_mpc::text::render(|s| sh.write_all(s))
    }

    /// Both shards pass the layout audit.
    fn check_layout(new: &Shard, old: &Shard, ctx: &str) {
        for (sh, which) in [(new, "kernels"), (old, "oracle")] {
            if let Err(e) = sh.check_layout() {
                panic!("{ctx}: {which} shard: {e}");
            }
        }
    }

    /// Seeded worlds × shard geometries × every op shape: the in-place
    /// kernels and the per-vertex fold, fed the same broadcasts, agree on
    /// the outcome, on every vertex and on the snapshot text — and both
    /// agree with the world. An MST swap runs as the fused kernel on one
    /// side and as the fold of its demote and then its link on the other.
    #[test]
    fn kernels_match_the_per_vertex_definition() {
        const N: usize = 40;
        let mut shapes = BTreeSet::new();
        let mut candidates = 0;
        for seed in 0..10u64 {
            let mut w = World::new(N, seed);
            // Grow a forest with some non-tree edges before any shard
            // exists, so the shards start from bulk-loaded (exact-cap)
            // segments that the first links must relocate.
            for _ in 0..N / 2 {
                w.struct_op();
            }
            for _ in 0..N {
                w.toggle_non_tree(&mut []);
            }
            // Seed 0 owns everything; the others a random range with
            // random absent slots.
            let (lo, hi, absent) = if seed == 0 {
                (0, N as V, 0.0)
            } else {
                let lo = w.rng.gen_range(0..N as V / 2);
                (lo, w.rng.gen_range(lo + 8..N as V + 1), 0.2)
            };
            let (mut new, mut old) = (Shard::default(), Shard::default());
            for v in lo..hi {
                if !w.rng.gen_bool(absent) {
                    let st = w.state_of(v);
                    new.load_vertex(v, st.clone());
                    old.load_vertex(v, st);
                }
            }
            check_layout(&new, &old, &format!("seed {seed} bulk load"));
            for step in 0..400 {
                let ctx = format!("seed {seed} step {step}");
                if w.rng.gen_bool(0.3) {
                    w.toggle_non_tree(&mut [&mut new, &mut old]);
                    check_layout(&new, &old, &ctx);
                    continue;
                }
                let swap = w.rng.gen_bool(0.25).then(|| w.swap()).flatten();
                let op = if let Some((s, [cut, link])) = swap {
                    new.apply_swap(&s);
                    old.apply_struct_oracle(&cut);
                    old.apply_struct_oracle(&link);
                    format!("{s:?}")
                } else {
                    let b = w.struct_op();
                    let got = new.apply_struct(&b);
                    let want = old.apply_struct_oracle(&b);
                    assert_eq!(
                        (got.best, got.owns_parent, got.owns_child),
                        (want.best, want.owns_parent, want.owns_child),
                        "{ctx}: outcome of {b:?}"
                    );
                    candidates += usize::from(got.best.is_some());
                    format!("{b:?}")
                };
                assert_eq!(new.vertices(), old.vertices(), "{ctx}: after {op}");
                assert_eq!(text_of(&new), text_of(&old), "{ctx}: after {op}");
                w.check(&new, &ctx);
                check_layout(&new, &old, &ctx);
                // Path maxima on the post-op forest: span scan, entry scan
                // and the world agree.
                for _ in 0..4 {
                    let (x, y) = w.pair();
                    if !w.forest.connected(x, y) {
                        continue;
                    }
                    let f = &w.forest;
                    let q = PathSpans {
                        comp: f.comp_of(x),
                        fx: f.f(x),
                        lx: f.l(x),
                        fy: f.f(y),
                        ly: f.l(y),
                    };
                    let got = new.path_max(&q);
                    assert_eq!(got, new.path_max_oracle(&q), "{ctx}");
                    assert_eq!(got, w.path_max(&new, x, y), "{ctx}: path {x}..{y}");
                }
            }
            shapes.extend(w.shapes);
        }
        let want = [
            "cut child singleton",
            "cut demote",
            "cut quiet",
            "cut remove",
            "cut root's first child",
            "cut searching",
            "link plain",
            "link reroot",
            "link root x",
            "link singleton x",
            "link singleton y",
            "swap child singleton",
            "swap e.u on the child side",
            "swap reroot of the child side",
            "swap reroot of the parent side",
            "swap shares an endpoint with d",
        ];
        assert_eq!(shapes.into_iter().collect::<Vec<_>>(), want);
        assert!(candidates > 100, "only {candidates} replacement candidates");
    }

    /// On the states the MST protocol itself produces: the span scan equals
    /// the entry scan at every machine, for every pair of connected
    /// vertices.
    #[test]
    fn path_max_span_scan_equals_entry_scan_after_mst_churn() {
        let n = 48;
        let mut hits = 0;
        for seed in 0..4 {
            let mut alg = DmpcMst::new(DmpcParams::new(n, 3 * n), 0.1);
            let ups = streams::churn_stream(n, 2 * n, 240, 0.5, seed);
            // Few distinct weights, so ties reach the tie-break.
            for (step, &u) in streams::with_weights(&ups, 6, seed).iter().enumerate() {
                let m = match u {
                    WeightedUpdate::Insert(e, w) => alg.insert(e, w),
                    WeightedUpdate::Delete(e) => alg.delete(e),
                };
                assert!(m.clean());
                if step % 24 != 0 {
                    continue;
                }
                let shards: Vec<&Shard> = alg.driver().machines().map(|m| m.shard()).collect();
                let infos: Vec<VertexInfo> = shards
                    .iter()
                    .flat_map(|sh| sh.slots().map(|(_, v)| sh.info(v)))
                    .collect();
                for x in &infos {
                    for y in infos.iter().filter(|y| y.comp == x.comp && y.v > x.v) {
                        let q = PathSpans {
                            comp: x.comp,
                            fx: x.f,
                            lx: x.l,
                            fy: y.f,
                            ly: y.l,
                        };
                        for sh in &shards {
                            let got = sh.path_max(&q);
                            let want = sh.path_max_oracle(&q);
                            assert_eq!(got, want, "seed {seed} step {step}: {x:?}..{y:?}");
                            hits += usize::from(got.is_some());
                        }
                    }
                }
            }
        }
        assert!(hits > 1000, "only {hits} non-empty path maxima");
    }
}
