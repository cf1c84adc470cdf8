//! Reference minimum spanning forest (Kruskal).

use crate::{Edge, UnionFind, Weight};

/// Kruskal's algorithm over an explicit weighted edge list. Returns the
/// minimum spanning forest edges and the total weight. Ties are broken by the
/// normalized edge ordering so results are deterministic.
pub fn kruskal(n: usize, edges: &[(Edge, Weight)]) -> (Vec<Edge>, Weight) {
    let mut es: Vec<(Weight, Edge)> = edges.iter().map(|&(e, w)| (w, e)).collect();
    es.sort_unstable();
    let mut uf = UnionFind::new(n);
    let mut forest = Vec::new();
    let mut total: Weight = 0;
    for (w, e) in es {
        if uf.union(e.u, e.v) {
            forest.push(e);
            total += w;
        }
    }
    (forest, total)
}

/// Weight of the minimum spanning forest (convenience).
pub fn msf_weight(n: usize, edges: &[(Edge, Weight)]) -> Weight {
    kruskal(n, edges).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::streams::edge_weight;

    #[test]
    fn kruskal_on_square_with_diagonal() {
        // Square 0-1-2-3 plus diagonal; weights force specific tree.
        let edges = vec![
            (Edge::new(0, 1), 1),
            (Edge::new(1, 2), 4),
            (Edge::new(2, 3), 2),
            (Edge::new(0, 3), 3),
            (Edge::new(0, 2), 10),
        ];
        let (forest, w) = kruskal(4, &edges);
        assert_eq!(forest.len(), 3);
        assert_eq!(w, 1 + 2 + 3);
    }

    #[test]
    fn kruskal_on_disconnected_graph() {
        let edges = vec![(Edge::new(0, 1), 5), (Edge::new(2, 3), 7)];
        let (forest, w) = kruskal(4, &edges);
        assert_eq!(forest.len(), 2);
        assert_eq!(w, 12);
    }

    #[test]
    fn msf_weight_monotone_under_extra_edges() {
        let n = 30;
        let base = generators::random_tree_plus(n, 10, 3);
        let wedges: Vec<(Edge, Weight)> =
            base.iter().map(|&e| (e, edge_weight(e, 50, 1))).collect();
        let w1 = msf_weight(n, &wedges);
        // Adding an edge can only keep or reduce MSF weight.
        let mut more = wedges.clone();
        more.push((Edge::new(0, (n - 1) as u32), 1));
        let w2 = msf_weight(n, &more);
        assert!(w2 <= w1);
    }
}
