//! Graph generators for the experiment workloads.

use crate::{Edge, V};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Uniform G(n, m): `m` distinct random edges on `n` vertices.
pub fn gnm(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    assert!(n >= 2 || m == 0);
    let max_m = n * (n - 1) / 2;
    assert!(m <= max_m, "requested {m} edges but only {max_m} possible");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let a = rng.gen_range(0..n as V);
        let b = rng.gen_range(0..n as V);
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if set.insert(e) {
            edges.push(e);
        }
    }
    edges
}

/// A `rows x cols` grid graph — the road-network-like workload.
pub fn grid(rows: usize, cols: usize) -> Vec<Edge> {
    let id = |r: usize, c: usize| (r * cols + c) as V;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::new(id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push(Edge::new(id(r, c), id(r + 1, c)));
            }
        }
    }
    edges
}

/// Random spanning tree on `0..n` (each vertex hooks to a random predecessor)
/// plus `extra` random non-tree edges. Useful for connectivity stress tests.
pub fn random_tree_plus(n: usize, extra: usize, seed: u64) -> Vec<Edge> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = HashSet::new();
    let mut edges = Vec::new();
    for v in 1..n as V {
        let p = rng.gen_range(0..v);
        let e = Edge::new(p, v);
        set.insert(e);
        edges.push(e);
    }
    let mut added = 0;
    let max_m = n * (n - 1) / 2;
    while added < extra && set.len() < max_m {
        let a = rng.gen_range(0..n as V);
        let b = rng.gen_range(0..n as V);
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if set.insert(e) {
            edges.push(e);
            added += 1;
        }
    }
    edges
}

/// A path graph 0-1-2-...-(n-1): the deepest spanning tree, worst case for
/// tour renumbering breadth.
pub fn path(n: usize) -> Vec<Edge> {
    (1..n as V).map(|v| Edge::new(v - 1, v)).collect()
}

/// A star graph centered at 0: maximal degree concentration, worst case for
/// the heavy-vertex machinery of the matching algorithms.
pub fn star(n: usize) -> Vec<Edge> {
    (1..n as V).map(|v| Edge::new(0, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicGraph;

    #[test]
    fn gnm_has_exact_count_and_no_dups() {
        let es = gnm(30, 100, 3);
        assert_eq!(es.len(), 100);
        let set: HashSet<Edge> = es.iter().copied().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn grid_edge_count() {
        let es = grid(4, 5);
        // 4*4 horizontal + 3*5 vertical = 16 + 15
        assert_eq!(es.len(), 31);
    }

    #[test]
    fn random_tree_plus_connected() {
        let es = random_tree_plus(50, 20, 5);
        assert_eq!(es.len(), 49 + 20);
        let g = DynamicGraph::from_edges(50, &es);
        let labels = g.components();
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn star_and_path_shapes() {
        let s = star(6);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|e| e.touches(0)));
        let p = path(6);
        assert_eq!(p.len(), 5);
    }
}
