//! The bulk-load state builder against the per-vertex construction it
//! replaced: Kruskal, one `ExplicitTour::from_tree` per tree, then
//! `indexes`/`f`/`l` looked up vertex by vertex (a tour scan each). The
//! two must agree state by state on every input; and a giant component,
//! where the per-vertex scans cost Θ(k²), must load in well under a second.

use dmpc_connectivity::machine::{EntryKind, VertexState};
use dmpc_connectivity::preprocess::build_states;
use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::DmpcParams;
use dmpc_eulertour::ExplicitTour;
use dmpc_graph::{generators, Edge, UnionFind, Weight, V};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The reference construction, written for obviousness, not speed.
fn oracle(n: usize, edges: &[(Edge, Weight)]) -> Vec<(V, VertexState)> {
    let mut sorted: Vec<(Weight, Edge)> = edges.iter().map(|&(e, w)| (w, e)).collect();
    sorted.sort_unstable();
    let mut uf = UnionFind::new(n);
    let tree: HashSet<Edge> = sorted
        .iter()
        .filter(|&&(_, e)| uf.union(e.u, e.v))
        .map(|&(_, e)| e)
        .collect();
    let mut comp_edges: HashMap<V, Vec<Edge>> = HashMap::new();
    for &e in &tree {
        comp_edges.entry(uf.find(e.u)).or_default().push(e);
    }
    let mut comp: Vec<V> = (0..n as V).collect();
    let mut size = vec![1u64; n];
    let mut idx = vec![Vec::new(); n];
    let (mut f, mut l) = (vec![0; n], vec![0; n]);
    for es in comp_edges.values() {
        let mut members: Vec<V> = es.iter().flat_map(|e| [e.u, e.v]).collect();
        members.sort_unstable();
        members.dedup();
        let root = members[0];
        let tour = ExplicitTour::from_tree(es, root);
        for &v in &members {
            let i = v as usize;
            (comp[i], size[i]) = (root, members.len() as u64);
            (idx[i], f[i], l[i]) = (tour.indexes(v), tour.f(v), tour.l(v));
        }
    }
    let mut adj: Vec<BTreeMap<V, (EntryKind, Weight)>> = vec![BTreeMap::new(); n];
    for &(e, w) in edges {
        let (u, v) = (e.u as usize, e.v as usize);
        if tree.contains(&e) {
            // The child's span nests inside its parent's.
            let (p, c) = if f[u] <= f[v] && l[u] >= l[v] {
                (u, v)
            } else {
                (v, u)
            };
            let (lo, hi) = (f[c], l[c]);
            adj[c].insert(p as V, (EntryKind::Tree { lo, hi }, w));
            let (lo, hi) = (lo - 1, hi + 1);
            adj[p].insert(c as V, (EntryKind::Tree { lo, hi }, w));
        } else {
            for (a, b) in [(u, v), (v, u)] {
                let entry = EntryKind::NonTree {
                    cached: f[b],
                    far_comp: comp[b],
                };
                adj[a].insert(b as V, (entry, w));
            }
        }
    }
    (0..n)
        .map(|v| {
            let st = VertexState {
                comp: comp[v],
                size: size[comp[v] as usize],
                idx: std::mem::take(&mut idx[v]),
                adj: std::mem::take(&mut adj[v]),
            };
            (v as V, st)
        })
        .collect()
}

/// Weights in `1..=max_w`: a small `max_w` ties many edges, so which of
/// them Kruskal keeps depends on its (weight, edge) order.
fn weighted(edges: &[Edge], max_w: Weight, seed: u64) -> Vec<(Edge, Weight)> {
    let mut rng = StdRng::seed_from_u64(seed);
    edges
        .iter()
        .map(|&e| (e, rng.gen_range(1..max_w + 1)))
        .collect()
}

fn assert_matches_oracle(n: usize, edges: &[(Edge, Weight)], what: &str) {
    let got = build_states(n, edges);
    let want = oracle(n, edges);
    assert_eq!(got.len(), want.len(), "{what}");
    for ((v, g), (_, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "{what}: vertex {v}");
    }
}

#[test]
fn sparse_graphs_with_several_components_and_singletons() {
    for seed in 0..20 {
        let n = 30 + seed as usize * 7;
        let edges = generators::gnm(n, n * 2 / 3, seed);
        for max_w in [1, 3, 1000] {
            let what = format!("gnm seed {seed}, weights 1..={max_w}");
            assert_matches_oracle(n, &weighted(&edges, max_w, seed), &what);
        }
    }
}

#[test]
fn one_spanning_tree_with_non_tree_edges() {
    for seed in 0..10 {
        let n = 50 + seed as usize * 13;
        let edges = generators::random_tree_plus(n, n, seed);
        for max_w in [1, 2, 50] {
            let what = format!("spanning tree seed {seed}, weights 1..={max_w}");
            assert_matches_oracle(n, &weighted(&edges, max_w, seed), &what);
        }
    }
}

#[test]
fn deep_and_wide_trees() {
    let n = 300;
    let mut path = generators::path(n);
    path.extend(generators::gnm(n, 100, 5));
    path.sort_unstable();
    path.dedup();
    assert_matches_oracle(n, &weighted(&path, 4, 5), "path plus chords");
    let star = generators::star(n);
    assert_matches_oracle(n, &weighted(&star, 1, 6), "star");
    assert_matches_oracle(n, &[], "no edges");
}

/// One component of 2^15 vertices: the per-vertex construction scans the
/// whole tour three times per vertex (Θ(k²), seconds even in release), the
/// one-pass builder does not.
#[test]
fn giant_component_loads_and_audits() {
    let n = 1 << 15;
    let edges = generators::random_tree_plus(n, 2 * n, 15);
    let params = DmpcParams::new(n, edges.len());
    let mut cc = DmpcConnectivity::new(params);
    cc.bulk_load(&edges);
    cc.driver().audit().unwrap();
    cc.driver().audit_directory().unwrap();
    assert_eq!(cc.driver().tree_edges().len(), n - 1);

    let mut mst = DmpcMst::new(params, 0.25);
    mst.bulk_load(&weighted(&edges, 1000, 15));
    mst.driver().audit().unwrap();
    mst.driver().audit_directory().unwrap();
    assert_eq!(mst.driver().tree_edges().len(), n - 1);
}
