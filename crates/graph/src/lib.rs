//! Graph substrate for the DMPC reproduction.
//!
//! This crate provides everything the distributed algorithms are built on and
//! verified against:
//!
//! * [`Edge`], [`Update`] — the update-stream vocabulary shared by all crates.
//! * [`Query`], [`QueryAnswer`], [`Op`] — the read-side vocabulary and mixed
//!   read/write workload streams (`streams::mixed_stream`).
//! * [`arrivals`] — clocked arrival processes (steady, bursty, diurnal) that
//!   pin an op stream to simulated-clock ticks for the online service loop.
//! * [`DynamicGraph`] — a simple adjacency-set dynamic graph used as ground
//!   truth during verification.
//! * [`generators`] — graph and update-stream generators (G(n,m), preferential
//!   attachment, grids, churn/sliding-window streams).
//! * [`UnionFind`] — reference connectivity.
//! * [`conflict`] — the batch conflict partitioner backing the
//!   conflict-group scheduler (`streams::conflict_batches` generates batches
//!   with a known conflict depth).
//! * [`matching`] — matching validity/maximality checks, greedy baselines, and
//!   the short-augmenting-path detector used by the 3/2-approximation proofs.
//! * [`maxmatch`] — an Edmonds blossom maximum-matching implementation used to
//!   measure empirical approximation ratios.
//! * [`mst`] — Kruskal reference minimum spanning forest.
//!
//! # Example
//!
//! ```
//! use dmpc_graph::{DynamicGraph, Edge, UnionFind};
//!
//! let mut g = DynamicGraph::new(4);
//! g.insert(Edge::new(2, 0)).unwrap();
//! assert!(g.has_edge(Edge::new(0, 2))); // edges are stored normalized
//!
//! let mut uf = UnionFind::new(4);
//! uf.union(0, 2);
//! assert!(uf.same(0, 2));
//! assert_eq!(uf.components(), 3);
//! ```

pub mod arrivals;
pub mod conflict;
pub mod dynamic_graph;
pub mod generators;
pub mod matching;
pub mod maxmatch;
pub mod mst;
pub mod queries;
pub mod streams;
pub mod unionfind;

pub use arrivals::{arrival_trace, Arrival, ArrivalProcess};
pub use conflict::{partition_conflicts, ConflictPartition};
pub use dynamic_graph::DynamicGraph;
pub use queries::{Op, Query, QueryAnswer};
pub use streams::{Update, WeightedUpdate};
pub use unionfind::UnionFind;

/// Vertex identifier. Vertices are dense integers `0..n`.
pub type V = u32;

/// Edge weight used by the MST algorithms (integral; ties broken by edge).
pub type Weight = u64;

/// An undirected edge, stored in normalized form (`u <= v`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: V,
    /// Larger endpoint.
    pub v: V,
}

impl Edge {
    /// Creates a normalized edge. Panics on self-loops: the DMPC model (and
    /// the paper's algorithms) operate on simple graphs.
    pub fn new(a: V, b: V) -> Self {
        assert!(a != b, "self-loops are not allowed");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The endpoint different from `x`. Panics if `x` is not an endpoint.
    pub fn other(&self, x: V) -> V {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x} is not an endpoint of {self:?}")
        }
    }

    /// Returns both endpoints as a tuple `(u, v)` with `u <= v`.
    pub fn ends(&self) -> (V, V) {
        (self.u, self.v)
    }

    /// True if `x` is one of the two endpoints.
    pub fn touches(&self, x: V) -> bool {
        self.u == x || self.v == x
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalizes() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(3, 1).ends(), (1, 3));
    }

    #[test]
    #[should_panic]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(2, 2);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(4, 7);
        assert_eq!(e.other(4), 7);
        assert_eq!(e.other(7), 4);
        assert!(e.touches(4) && e.touches(7) && !e.touches(5));
    }
}
