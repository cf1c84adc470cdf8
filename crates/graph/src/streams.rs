//! Update streams: the sequences of edge insertions/deletions that drive the
//! dynamic algorithms, plus generators for the workload patterns used in the
//! paper-shaped experiments.

use crate::{DynamicGraph, Edge, Weight, V};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An unweighted graph update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert an edge that is currently absent.
    Insert(Edge),
    /// Delete an edge that is currently present.
    Delete(Edge),
}

impl Update {
    /// The edge being inserted or deleted.
    pub fn edge(&self) -> Edge {
        match *self {
            Update::Insert(e) | Update::Delete(e) => e,
        }
    }

    /// True for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(_))
    }
}

/// A weighted graph update (for MST maintenance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightedUpdate {
    /// Insert an absent edge with the given weight.
    Insert(Edge, Weight),
    /// Delete a present edge.
    Delete(Edge),
}

impl WeightedUpdate {
    /// The edge being inserted or deleted.
    pub fn edge(&self) -> Edge {
        match *self {
            WeightedUpdate::Insert(e, _) | WeightedUpdate::Delete(e) => e,
        }
    }
}

/// Drops the weight.
impl From<WeightedUpdate> for Update {
    fn from(u: WeightedUpdate) -> Update {
        match u {
            WeightedUpdate::Insert(e, _) => Update::Insert(e),
            WeightedUpdate::Delete(e) => Update::Delete(e),
        }
    }
}

/// Builds update streams that are *valid by construction*: inserts only absent
/// edges, deletes only present ones. Internally tracks the evolving graph.
pub struct StreamBuilder {
    rng: StdRng,
    graph: DynamicGraph,
    present: Vec<Edge>,
    updates: Vec<Update>,
}

impl StreamBuilder {
    /// A builder over `n` vertices seeded deterministically.
    pub fn new(n: usize, seed: u64) -> Self {
        StreamBuilder {
            rng: StdRng::seed_from_u64(seed),
            graph: DynamicGraph::new(n),
            present: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Edges currently present.
    pub fn m(&self) -> usize {
        self.present.len()
    }

    fn random_absent_edge(&mut self) -> Option<Edge> {
        let n = self.graph.n() as V;
        if n < 2 {
            return None;
        }
        // Rejection sampling; fine while the graph is sparse relative to n^2.
        for _ in 0..10_000 {
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if !self.graph.has_edge(e) {
                return Some(e);
            }
        }
        None
    }

    /// Appends a random insertion; returns the edge if one was found.
    pub fn random_insert(&mut self) -> Option<Edge> {
        let e = self.random_absent_edge()?;
        self.graph.insert(e).expect("absent edge");
        self.present.push(e);
        self.updates.push(Update::Insert(e));
        Some(e)
    }

    /// Appends a deletion of a uniformly random present edge.
    pub fn random_delete(&mut self) -> Option<Edge> {
        if self.present.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.present.len());
        let e = self.present.swap_remove(i);
        self.graph.delete(e).expect("present edge");
        self.updates.push(Update::Delete(e));
        Some(e)
    }

    /// Appends the insertion of a specific (absent) edge.
    pub fn insert(&mut self, e: Edge) {
        self.graph.insert(e).expect("insert of present edge");
        self.present.push(e);
        self.updates.push(Update::Insert(e));
    }

    /// Appends the deletion of a specific (present) edge.
    pub fn delete(&mut self, e: Edge) {
        self.graph.delete(e).expect("delete of absent edge");
        let i = self
            .present
            .iter()
            .position(|&x| x == e)
            .expect("edge tracked");
        self.present.swap_remove(i);
        self.updates.push(Update::Delete(e));
    }

    /// Finishes the stream.
    pub fn build(self) -> Vec<Update> {
        self.updates
    }
}

// ---------------------------------------------------------------------------
// Batches.
//
// A *batch* is an ordered slice of updates handed to an algorithm as one unit
// of work. Batch semantics are sequential: applying a batch must leave the
// graph (and any maintained structure, up to non-unique representations such
// as which maximal matching is held) in the state reached by applying its
// updates one by one, in order. In particular a batch may contain an insert
// and a delete of the *same* edge; the net effect on that edge is defined by
// `coalesce` below.
// ---------------------------------------------------------------------------

/// Reduces a sequentially-valid batch to its *net* updates: for each edge,
/// ops cancel in pairs and only the last op survives (an odd number of ops
/// nets to the final op, an even number cancels entirely). This is the
/// intra-batch cancellation semantics: replaying `coalesce(batch)` from the
/// pre-batch graph reaches exactly the same graph as replaying `batch`.
///
/// Surviving updates keep the relative order of their edges' first
/// appearances, so coalescing is deterministic.
///
/// The input must be valid as a sequential stream from the pre-batch graph
/// (ops on one edge alternate insert/delete); then the output is valid too.
///
/// Validity is enforced in **release builds too**: an invalid batch (two
/// consecutive ops of the same kind on one edge) panics instead of silently
/// keeping the last op. This is the batch boundary every `apply_batch`
/// driver funnels through, so corrupt batches fail loudly at the driver
/// boundary rather than desynchronizing machine state downstream. Callers
/// that want to reject instead of panic use [`try_coalesce`].
pub fn coalesce(batch: &[Update]) -> Vec<Update> {
    match try_coalesce(batch) {
        Ok(net) => net,
        Err(e) => panic!("invalid batch: {e}"),
    }
}

/// Error describing why a batch is not sequentially valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidBatch {
    /// The edge whose ops do not alternate insert/delete.
    pub edge: Edge,
    /// Index (within the batch) of the offending op.
    pub at: usize,
}

impl std::fmt::Display for InvalidBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops on {} do not alternate insert/delete (op #{} repeats the previous kind); \
             the batch is not a valid sequential stream",
            self.edge, self.at
        )
    }
}

/// Fallible [`coalesce`]: returns the net updates, or [`InvalidBatch`] when
/// ops on some edge do not alternate insert/delete.
pub fn try_coalesce(batch: &[Update]) -> Result<Vec<Update>, InvalidBatch> {
    let mut order: Vec<Edge> = Vec::new();
    let mut per_edge: std::collections::HashMap<Edge, (usize, Update)> =
        std::collections::HashMap::new();
    for (i, &u) in batch.iter().enumerate() {
        let e = u.edge();
        match per_edge.entry(e) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert((1, u));
                order.push(e);
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let (count, last) = slot.get_mut();
                if last.is_insert() == u.is_insert() {
                    return Err(InvalidBatch { edge: e, at: i });
                }
                *count += 1;
                *last = u;
            }
        }
    }
    Ok(order
        .into_iter()
        .filter_map(|e| {
            let (count, last) = per_edge[&e];
            (count % 2 == 1).then_some(last)
        })
        .collect())
}

/// Splits a stream into consecutive *owned* batches of (at most) `k`
/// updates (the last may be shorter; `k` is clamped to at least 1). Use
/// this when batches must outlive the stream or be reordered/mutated; for
/// read-only iteration, plain `updates.chunks(k)` borrows without
/// allocating and is what the experiment drivers use.
pub fn chunk_stream(updates: &[Update], k: usize) -> Vec<Vec<Update>> {
    updates.chunks(k.max(1)).map(|c| c.to_vec()).collect()
}

// ---------------------------------------------------------------------------
// Seeded-RNG entry point.
//
// Every generator in this module derives its RNG through [`stream_rng`]
// with a fixed per-generator salt: one user seed reproduces each
// generator's stream independently (domain separation), and two generators
// given the same seed never see correlated draws. Reproducibility is
// documented and tested here, in one place — see the
// `one_seed_reproduces_every_generator` test.
// ---------------------------------------------------------------------------

/// Salt of [`churn_stream`].
pub const SALT_CHURN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt of [`clustered_churn_stream`].
pub const SALT_CLUSTERED: u64 = 0x0005_eed5_eed5_eed5;
/// Salt of [`mixed_stream`].
pub const SALT_MIXED: u64 = 0x0dd5_7e4d_0dd5_7e4d;
/// Salt of [`chaos_churn_batches`] (the chaos plane's workload stream —
/// deliberately distinct from [`SALT_CLUSTERED`] so chaos runs and plain
/// clustered benches over one seed stay uncorrelated).
pub const SALT_CHAOS: u64 = 0x00c4_a05c_4a05_c4a0;

/// Salt of [`conflict_batches`].
pub const SALT_CONFLICT: u64 = 0x00c0_4f11_c7ba_7c45;

/// The single seeded-RNG entry point of all stream generators: a
/// deterministic [`StdRng`] from one user seed, domain-separated by the
/// generator's salt.
pub fn stream_rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt)
}

/// Insert `m` random edges, then churn for `steps` updates with the given
/// probability of insertion (deletions otherwise). This is the default mixed
/// workload for Table-1 experiments.
pub fn churn_stream(n: usize, m: usize, steps: usize, p_insert: f64, seed: u64) -> Vec<Update> {
    let mut b = StreamBuilder::new(n, seed);
    let mut rng = stream_rng(seed, SALT_CHURN);
    for _ in 0..m {
        b.random_insert();
    }
    for _ in 0..steps {
        let do_insert = rng.gen_bool(p_insert) || b.m() == 0;
        if do_insert {
            if b.random_insert().is_none() {
                b.random_delete();
            }
        } else {
            b.random_delete();
        }
    }
    b.build()
}

/// Churn restricted to `clusters` disjoint contiguous vertex ranges: edges
/// only ever connect vertices of the same cluster, so components stay inside
/// one cluster and — under the block vertex partitioning the owner machines
/// use — each component's owner set stays small regardless of the machine
/// count. This is the workload that separates component-owner multicast
/// (active machines ~ owner-set size) from broadcast (active machines ~ P).
pub fn clustered_churn_stream(
    n: usize,
    clusters: usize,
    m_per_cluster: usize,
    steps: usize,
    p_insert: f64,
    seed: u64,
) -> Vec<Update> {
    clustered_churn(
        n,
        clusters,
        m_per_cluster,
        steps,
        p_insert,
        seed,
        SALT_CLUSTERED,
    )
}

/// The clustered-churn stream chopped into `k`-update batches: the chaos
/// plane's canonical workload (components span few machines, so shard
/// migrations and directory repairs are exercised without every component
/// touching every machine). Same core generator as
/// [`clustered_churn_stream`], same single RNG entry point
/// ([`stream_rng`]), its own salt ([`SALT_CHAOS`]).
pub fn chaos_churn_batches(
    n: usize,
    clusters: usize,
    m_per_cluster: usize,
    steps: usize,
    k: usize,
    seed: u64,
) -> Vec<Vec<Update>> {
    let ups = clustered_churn(n, clusters, m_per_cluster, steps, 0.5, seed, SALT_CHAOS);
    chunk_stream(&ups, k)
}

/// Batches with a *known* conflict-graph depth, for the conflict-group
/// scheduler's depth-scaling experiments. Each batch consists of `groups`
/// vertex-disjoint paths of `depth` link insertions, every path built from
/// fresh vertices that were singletons before the batch: the conflict
/// partition of such a batch is exactly `groups` groups of `depth` items
/// each (consecutive path edges share a vertex, so a path chains into one
/// group; distinct paths share nothing). Items are interleaved round-robin
/// across the paths so a scheduler cannot exploit submission order.
/// Successive batches draw from disjoint vertex pools, so the whole stream
/// applied to one instance keeps the per-batch partition exact; the pool is
/// shuffled by the seeded RNG so vertex placement (and thus machine
/// ownership) varies with the seed. Requires
/// `groups * (depth + 1) * batches <= n`.
pub fn conflict_batches(
    n: usize,
    groups: usize,
    depth: usize,
    batches: usize,
    seed: u64,
) -> Vec<Vec<Update>> {
    assert!(groups >= 1 && depth >= 1 && batches >= 1);
    let per_batch = groups * (depth + 1);
    assert!(
        per_batch * batches <= n,
        "conflict_batches needs {} fresh vertices but n = {n}",
        per_batch * batches
    );
    let mut rng = stream_rng(seed, SALT_CONFLICT);
    let mut pool: Vec<V> = (0..n as V).collect();
    // Fisher-Yates; the vendored rand's slice shuffle is not assumed.
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..i + 1));
    }
    let mut next = 0usize;
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let paths: Vec<&[V]> = (0..groups)
            .map(|g| &pool[next + g * (depth + 1)..next + (g + 1) * (depth + 1)])
            .collect();
        next += per_batch;
        let mut batch = Vec::with_capacity(groups * depth);
        for s in 0..depth {
            for path in &paths {
                batch.push(Update::Insert(Edge::new(path[s], path[s + 1])));
            }
        }
        out.push(batch);
    }
    out
}

/// Shared core of [`clustered_churn_stream`] and [`chaos_churn_batches`].
#[allow(clippy::too_many_arguments)]
fn clustered_churn(
    n: usize,
    clusters: usize,
    m_per_cluster: usize,
    steps: usize,
    p_insert: f64,
    seed: u64,
    salt: u64,
) -> Vec<Update> {
    assert!(n >= 2, "clustered churn needs at least two vertices");
    let clusters = clusters.clamp(1, n / 2);
    let span = n / clusters; // last cluster absorbs the remainder
    let mut b = StreamBuilder::new(n, seed);
    let mut rng = stream_rng(seed, salt);
    let range_of = |c: usize| {
        let lo = c * span;
        let hi = if c + 1 == clusters { n } else { lo + span };
        (lo as V, hi as V)
    };
    let random_edge_in = |rng: &mut StdRng, c: usize, g: &DynamicGraph| -> Option<Edge> {
        let (lo, hi) = range_of(c);
        for _ in 0..1_000 {
            let a = rng.gen_range(lo..hi);
            let d = rng.gen_range(lo..hi);
            if a == d {
                continue;
            }
            let e = Edge::new(a, d);
            if !g.has_edge(e) {
                return Some(e);
            }
        }
        None
    };
    // Build-up: m edges per cluster.
    for c in 0..clusters {
        for _ in 0..m_per_cluster {
            if let Some(e) = random_edge_in(&mut rng, c, &b.graph) {
                b.insert(e);
            }
        }
    }
    // Churn: pick a cluster, then insert or delete inside it.
    for _ in 0..steps {
        let c = rng.gen_range(0..clusters);
        let (lo, hi) = range_of(c);
        let in_cluster: Vec<Edge> = b
            .present
            .iter()
            .copied()
            .filter(|e| e.u >= lo && e.u < hi)
            .collect();
        let do_insert = rng.gen_bool(p_insert) || in_cluster.is_empty();
        if do_insert {
            if let Some(e) = random_edge_in(&mut rng, c, &b.graph) {
                b.insert(e);
            } else if let Some(&e) = in_cluster.first() {
                b.delete(e);
            }
        } else {
            let e = in_cluster[rng.gen_range(0..in_cluster.len())];
            b.delete(e);
        }
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Mixed read/write workloads.
//
// The ROADMAP's north star is a read-heavy service: most production traffic
// *queries* the maintained structure and only a sliver updates it (Durfee et
// al., arXiv:1908.01956, measure exactly such interleaved workloads). These
// generators emit `Op` streams at a fixed read percentage with either
// uniform or clustered targets, valid-by-construction on the write side.
// ---------------------------------------------------------------------------

/// How the targets of reads (and, under clustering, writes) are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetDist {
    /// Uniform over all vertices.
    Uniform,
    /// Confined to `clusters` contiguous vertex ranges: each op first picks
    /// a cluster, then vertices inside it — the locality-heavy traffic shape
    /// (one community served by few owner machines) that separates
    /// owner-multicast routing from broadcast.
    Clustered {
        /// Number of contiguous vertex ranges.
        clusters: usize,
    },
}

/// Which query kinds a mixed stream's reads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMix {
    /// `Connected` / `ComponentOf` (the connectivity/MST service).
    Connectivity,
    /// `Connected` / `ComponentOf` / `PathMax` (the MST service).
    Mst,
    /// `IsMatched` / `MatchingSize` (the matching service).
    Matching,
}

/// Generates a mixed read/write stream of `steps` operations: each step is a
/// read with probability `read_pct`/100 (targets drawn per `dist`, kinds per
/// `mix`), otherwise a valid-by-construction edge update (under
/// [`TargetDist::Clustered`] the writes stay inside clusters too, like
/// [`clustered_churn_stream`]). The canonical ratios are 95/5, 50/50 and
/// 5/95.
pub fn mixed_stream(
    n: usize,
    steps: usize,
    read_pct: u32,
    dist: TargetDist,
    mix: QueryMix,
    seed: u64,
) -> Vec<crate::queries::Op> {
    use crate::queries::{Op, Query};
    assert!(n >= 4, "mixed streams need at least four vertices");
    assert!(read_pct <= 100, "read_pct is a percentage");
    let clusters = match dist {
        TargetDist::Uniform => 1,
        TargetDist::Clustered { clusters } => clusters.clamp(1, n / 2),
    };
    let span = n / clusters;
    let range_of = |c: usize| {
        let lo = c * span;
        let hi = if c + 1 == clusters { n } else { lo + span };
        (lo as V, hi as V)
    };
    let mut b = StreamBuilder::new(n, seed);
    let mut rng = stream_rng(seed, SALT_MIXED);
    let mut out = Vec::with_capacity(steps);
    let mut written = 0usize;
    for _ in 0..steps {
        let c = rng.gen_range(0..clusters);
        let (lo, hi) = range_of(c);
        if rng.gen_range(0..100) < read_pct {
            let a = rng.gen_range(lo..hi);
            let d = {
                let d = rng.gen_range(lo..hi - 1);
                if d >= a {
                    d + 1
                } else {
                    d
                }
            };
            let q = match mix {
                QueryMix::Connectivity => match rng.gen_range(0..2) {
                    0 => Query::Connected(a, d),
                    _ => Query::ComponentOf(a),
                },
                QueryMix::Mst => match rng.gen_range(0..3) {
                    0 => Query::Connected(a, d),
                    1 => Query::ComponentOf(a),
                    _ => Query::PathMax(a, d),
                },
                QueryMix::Matching => match rng.gen_range(0..4) {
                    0 => Query::MatchingSize,
                    _ => Query::IsMatched(a),
                },
            };
            out.push(Op::Read(q));
        } else {
            // A valid write inside the chosen cluster: toggle a random pair.
            let mut placed = false;
            for _ in 0..1_000 {
                let a = rng.gen_range(lo..hi);
                let d = rng.gen_range(lo..hi);
                if a == d {
                    continue;
                }
                let e = Edge::new(a, d);
                if b.graph.has_edge(e) {
                    b.delete(e);
                } else {
                    b.insert(e);
                }
                placed = true;
                written += 1;
                break;
            }
            if placed {
                out.push(crate::queries::Op::Write(*b.updates.last().unwrap()));
            }
        }
    }
    debug_assert_eq!(written, b.updates.len());
    out
}

/// A forest-heavy stream: builds a random spanning tree then repeatedly
/// deletes a random *tree* edge and reinserts an edge reconnecting the two
/// sides. This is the worst case for connectivity/MST maintenance (every
/// deletion splits a component and forces a replacement search).
pub fn tree_churn_stream(n: usize, steps: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StreamBuilder::new(n, seed ^ 0xdead_beef);
    // Random spanning tree: attach each vertex to a random earlier vertex.
    let mut tree: Vec<Edge> = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n as V {
        let p = rng.gen_range(0..v);
        let e = Edge::new(p, v);
        b.insert(e);
        tree.push(e);
    }
    for _ in 0..steps {
        if tree.is_empty() {
            break;
        }
        let i = rng.gen_range(0..tree.len());
        let e = tree.swap_remove(i);
        b.delete(e);
        // Reconnect with a fresh random edge across the cut if possible,
        // otherwise reinsert the same edge.
        let replacement = e;
        b.insert(replacement);
        tree.push(replacement);
    }
    b.build()
}

/// Attaches deterministic pseudo-random weights to an unweighted stream.
/// Weights are in `1..=max_w`; a given edge always receives the same weight
/// (so delete/re-insert cycles are consistent).
pub fn with_weights(updates: &[Update], max_w: Weight, seed: u64) -> Vec<WeightedUpdate> {
    updates
        .iter()
        .map(|u| match *u {
            Update::Insert(e) => WeightedUpdate::Insert(e, edge_weight(e, max_w, seed)),
            Update::Delete(e) => WeightedUpdate::Delete(e),
        })
        .collect()
}

/// Deterministic per-edge weight in `1..=max_w` derived by hashing.
pub fn edge_weight(e: Edge, max_w: Weight, seed: u64) -> Weight {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((e.u as u64) << 32 | e.v as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    1 + h % max_w
}

/// Replays a stream into a fresh [`DynamicGraph`], returning the final graph.
/// Panics if the stream is invalid (insert of present / delete of absent).
pub fn replay(n: usize, updates: &[Update]) -> DynamicGraph {
    let mut g = DynamicGraph::new(n);
    for u in updates {
        match *u {
            Update::Insert(e) => g.insert(e).expect("valid stream"),
            Update::Delete(e) => g.delete(e).expect("valid stream"),
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_stream_is_valid() {
        let ups = churn_stream(50, 100, 500, 0.5, 7);
        let g = replay(50, &ups); // panics if invalid
        assert!(g.m() <= 50 * 49 / 2);
    }

    #[test]
    fn tree_churn_keeps_tree_size() {
        let ups = tree_churn_stream(20, 50, 9);
        let g = replay(20, &ups);
        assert_eq!(g.m(), 19);
        // Every deletion in the stream is immediately followed by a reconnect.
        let labels = g.components();
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn conflict_batches_have_the_advertised_partition() {
        // Every vertex is a singleton before its batch (fresh, disjoint
        // pools), so an insert touches the components named by its own
        // endpoints — exactly what the connectivity classifier would
        // report. The partitioner must see `groups` groups of `depth`
        // items in every batch.
        for (groups, depth) in [(1, 1), (4, 1), (3, 4), (2, 7)] {
            let batches = conflict_batches(128, groups, depth, 3, 42);
            assert_eq!(batches.len(), 3);
            for batch in &batches {
                assert_eq!(batch.len(), groups * depth);
                let touches: Vec<(u64, u64)> = batch
                    .iter()
                    .map(|u| {
                        let e = u.edge();
                        (u64::from(e.u), u64::from(e.v))
                    })
                    .collect();
                let p = crate::conflict::partition_conflicts(&touches);
                assert_eq!(p.groups, groups, "groups at depth {depth}");
                assert_eq!(p.depth, depth, "depth with {groups} groups");
            }
        }
    }

    #[test]
    fn conflict_batches_pools_are_disjoint_across_batches() {
        let batches = conflict_batches(64, 2, 3, 4, 7);
        let mut seen: std::collections::BTreeSet<V> = std::collections::BTreeSet::new();
        for batch in &batches {
            let mut mine: std::collections::BTreeSet<V> = std::collections::BTreeSet::new();
            for u in batch {
                let e = u.edge();
                mine.insert(e.u);
                mine.insert(e.v);
            }
            assert!(seen.is_disjoint(&mine), "batches share vertices");
            seen.extend(mine);
        }
        // Round-robin interleave: consecutive items belong to distinct paths.
        let b0 = &batches[0];
        let e0 = b0[0].edge();
        let e1 = b0[1].edge();
        assert!(!e0.touches(e1.u) && !e0.touches(e1.v));
    }

    #[test]
    fn weights_are_stable_per_edge() {
        let e = Edge::new(3, 9);
        assert_eq!(edge_weight(e, 100, 5), edge_weight(e, 100, 5));
        let ups = vec![Update::Insert(e), Update::Delete(e), Update::Insert(e)];
        let w = with_weights(&ups, 100, 5);
        match (w[0], w[2]) {
            (WeightedUpdate::Insert(_, a), WeightedUpdate::Insert(_, b)) => assert_eq!(a, b),
            _ => panic!("unexpected shapes"),
        }
    }

    #[test]
    fn coalesce_nets_out_cancelling_pairs() {
        let (a, b, c) = (Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3));
        // a: I,D (cancels); b: D,I (cancels); c: I,D,I (nets to I).
        let batch = vec![
            Update::Insert(a),
            Update::Delete(b),
            Update::Insert(c),
            Update::Delete(a),
            Update::Insert(b),
            Update::Delete(c),
            Update::Insert(c),
        ];
        assert_eq!(coalesce(&batch), vec![Update::Insert(c)]);
        assert!(coalesce(&[]).is_empty());
    }

    #[test]
    fn coalesce_preserves_replay_state() {
        // Replaying coalesce(batch) reaches the same graph as replaying batch.
        // Churn on a graph this small revisits edges within a batch.
        let n = 8;
        for seed in 0..4 {
            let batches = chunk_stream(&churn_stream(n, 10, 72, 0.5, seed), 12);
            assert!(
                batches.iter().any(|b| coalesce(b).len() < b.len()),
                "no cancelling pair to net out"
            );
            let mut g_full = DynamicGraph::new(n);
            let mut g_net = DynamicGraph::new(n);
            for batch in &batches {
                for &u in batch {
                    match u {
                        Update::Insert(e) => g_full.insert(e).unwrap(),
                        Update::Delete(e) => g_full.delete(e).unwrap(),
                    }
                }
                for u in coalesce(batch) {
                    match u {
                        Update::Insert(e) => g_net.insert(e).unwrap(),
                        Update::Delete(e) => g_net.delete(e).unwrap(),
                    }
                }
                let sorted = |g: &DynamicGraph| {
                    let mut es: Vec<Edge> = g.edges().collect();
                    es.sort_unstable();
                    es
                };
                assert_eq!(sorted(&g_full), sorted(&g_net));
            }
        }
    }

    /// Regression (PR 4): batch validity is enforced in release builds too.
    /// A repeated-kind pair on one edge must be rejected, not silently
    /// coalesced to the last op.
    #[test]
    fn try_coalesce_rejects_non_alternating_ops() {
        let e = Edge::new(0, 1);
        let bad = vec![Update::Insert(e), Update::Insert(e)];
        let err = try_coalesce(&bad).unwrap_err();
        assert_eq!(err.edge, e);
        assert_eq!(err.at, 1);
        let bad2 = vec![
            Update::Insert(e),
            Update::Delete(e),
            Update::Delete(e), // repeats the kind
        ];
        assert_eq!(try_coalesce(&bad2).unwrap_err().at, 2);
        // Valid batches still pass through the fallible path.
        let good = vec![Update::Insert(e), Update::Delete(e), Update::Insert(e)];
        assert_eq!(try_coalesce(&good).unwrap(), vec![Update::Insert(e)]);
    }

    /// `coalesce` panics on invalid batches — with a real check, not a
    /// `debug_assert!`, so the behavior is identical in release builds
    /// (this test compiles under both profiles and pins the panic).
    #[test]
    #[should_panic(expected = "invalid batch")]
    fn coalesce_panics_on_invalid_batch_in_all_profiles() {
        let e = Edge::new(2, 3);
        coalesce(&[Update::Delete(e), Update::Delete(e)]);
    }

    #[test]
    fn clustered_churn_stays_within_clusters() {
        let n = 64;
        let clusters = 8;
        let ups = clustered_churn_stream(n, clusters, 6, 100, 0.5, 3);
        assert!(!ups.is_empty());
        let span = n / clusters;
        for u in &ups {
            let e = u.edge();
            assert_eq!(
                e.u as usize / span,
                e.v as usize / span,
                "edge {e} crosses clusters"
            );
        }
        replay(n, &ups); // panics if the stream is invalid
    }

    #[test]
    fn chunk_stream_partitions() {
        let ups = churn_stream(20, 30, 50, 0.5, 11);
        let chunks = chunk_stream(&ups, 16);
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), ups.len());
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == 16));
        let flat: Vec<Update> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, ups);
        // k = 0 clamps to 1.
        assert_eq!(chunk_stream(&ups, 0).len(), ups.len());
    }

    #[test]
    fn mixed_stream_hits_the_requested_ratio_and_stays_valid() {
        use crate::queries::Op;
        for (pct, dist) in [
            (95, TargetDist::Uniform),
            (50, TargetDist::Clustered { clusters: 4 }),
            (5, TargetDist::Uniform),
        ] {
            let ops = mixed_stream(64, 2000, pct, dist, QueryMix::Connectivity, 9);
            let reads = ops.iter().filter(|o| o.is_read()).count() as f64;
            let frac = reads / ops.len() as f64;
            assert!(
                (frac - pct as f64 / 100.0).abs() < 0.05,
                "read fraction {frac} far from {pct}%"
            );
            // The write subsequence must be a valid update stream.
            let writes: Vec<Update> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Write(u) => Some(*u),
                    Op::Read(_) => None,
                })
                .collect();
            replay(64, &writes);
        }
    }

    #[test]
    fn mixed_stream_clustered_targets_stay_in_cluster() {
        use crate::queries::{Op, Query};
        let n = 64;
        let clusters = 8;
        let span = n / clusters;
        let ops = mixed_stream(
            n,
            500,
            50,
            TargetDist::Clustered { clusters },
            QueryMix::Mst,
            3,
        );
        for op in &ops {
            match op {
                Op::Write(u) => {
                    let e = u.edge();
                    assert_eq!(e.u as usize / span, e.v as usize / span);
                }
                Op::Read(Query::Connected(a, b)) | Op::Read(Query::PathMax(a, b)) => {
                    assert_eq!(*a as usize / span, *b as usize / span);
                    assert_ne!(a, b);
                }
                Op::Read(_) => {}
            }
        }
        // The MST mix actually emits path-max queries.
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Read(Query::PathMax(_, _)))));
    }

    #[test]
    fn mixed_stream_matching_mix_emits_matching_queries() {
        use crate::queries::{Op, Query};
        let ops = mixed_stream(32, 400, 95, TargetDist::Uniform, QueryMix::Matching, 7);
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Read(Query::IsMatched(_)))));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Read(Query::MatchingSize))));
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::Read(Query::Connected(_, _)))));
    }

    #[test]
    fn stream_builder_deterministic() {
        let a = churn_stream(25, 40, 100, 0.4, 42);
        let b = churn_stream(25, 40, 100, 0.4, 42);
        assert_eq!(a, b);
    }

    /// The single reproducibility contract for every generator in this
    /// module: one seed through [`stream_rng`] fully determines each stream,
    /// and the per-generator salts keep generators decorrelated even when
    /// they share a seed.
    #[test]
    fn one_seed_reproduces_every_generator() {
        let seed = 42;
        // Same seed → bit-identical stream, for every generator.
        assert_eq!(
            churn_stream(25, 40, 100, 0.4, seed),
            churn_stream(25, 40, 100, 0.4, seed)
        );
        assert_eq!(
            clustered_churn_stream(64, 8, 6, 100, 0.5, seed),
            clustered_churn_stream(64, 8, 6, 100, 0.5, seed)
        );
        assert_eq!(
            chaos_churn_batches(64, 8, 6, 100, 16, seed),
            chaos_churn_batches(64, 8, 6, 100, 16, seed)
        );
        assert_eq!(
            mixed_stream(
                64,
                500,
                50,
                TargetDist::Uniform,
                QueryMix::Connectivity,
                seed
            ),
            mixed_stream(
                64,
                500,
                50,
                TargetDist::Uniform,
                QueryMix::Connectivity,
                seed
            )
        );
        // Distinct salts: the chaos stream is not a re-chunked clustered
        // stream, even with identical shape parameters and seed.
        let clustered = clustered_churn_stream(64, 8, 6, 100, 0.5, seed);
        let chaos: Vec<Update> = chaos_churn_batches(64, 8, 6, 100, 16, seed)
            .into_iter()
            .flatten()
            .collect();
        assert_ne!(clustered, chaos, "salts failed to decorrelate generators");
        // The chaos batches form a valid, cluster-local update stream.
        let span = 64 / 8;
        for u in &chaos {
            let e = u.edge();
            assert_eq!(e.u as usize / span, e.v as usize / span);
        }
        replay(64, &chaos);
        // Different seeds actually change the stream.
        assert_ne!(
            churn_stream(25, 40, 100, 0.4, seed),
            churn_stream(25, 40, 100, 0.4, seed + 1)
        );
    }
}
