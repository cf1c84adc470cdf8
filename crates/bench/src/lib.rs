//! Shared drivers for the paper-experiment binaries: run each algorithm
//! over the standard workloads and collect the Table-1 quantities.
//!
//! # Example
//!
//! ```
//! use dmpc_bench::{run_unweighted, standard_stream};
//! use dmpc_reduction::ReducedConnectivity;
//!
//! let ups = standard_stream(16, 20, 7);
//! let agg = run_unweighted(&mut ReducedConnectivity::new(16), &ups);
//! assert!(agg.updates > 0);
//! assert_eq!(agg.violations, 0);
//! ```

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::experiment::ScalingSweep;
use dmpc_core::{
    run_stream_batched, DmpcParams, DynamicGraphAlgorithm, QueryableAlgorithm,
    WeightedDynamicGraphAlgorithm,
};
use dmpc_graph::streams::{self, Update, WeightedUpdate};
use dmpc_graph::{Query, V};
use dmpc_matching::cs::{CsMatching, CsParams};
use dmpc_matching::{DmpcMaximalMatching, DmpcThreeHalves};
use dmpc_mpc::{AggregateMetrics, BatchMetrics, QueryMetrics};
use dmpc_reduction::{ReducedConnectivity, ReducedMatching, ReducedMst};

/// Standard workload: build-up plus churn, sized to the vertex count.
pub fn standard_stream(n: usize, steps: usize, seed: u64) -> Vec<Update> {
    streams::churn_stream(n, 2 * n, steps, 0.5, seed)
}

/// The canonical deployment at vertex count `n`: `m_max = 3n`, so the
/// model provisions `P = Θ(N/S)` storage machines. Every bench bin sizes
/// its instances through this one helper.
pub fn canonical_params(n: usize) -> DmpcParams {
    DmpcParams::new(n, 3 * n)
}

/// Cluster grain of the large-n trajectory workload: components stay inside
/// 256-vertex ranges, so a structural op's owner set is bounded by a
/// constant as `n` (and with it `P`) grows. The uniform churn stream would
/// instead grow one giant component owned by every machine, making each
/// simulated update cost Θ(n) — a property of simulating the *model* on one
/// host, not of the algorithms.
pub const TRAJECTORY_CLUSTER: usize = 256;

/// Large-n trajectory setup: the [`canonical_params`] deployment plus
/// clustered churn at the fixed [`TRAJECTORY_CLUSTER`] grain, density
/// matched to the canonical stream (2 edges per vertex build-up, then
/// `steps` mixed updates at 50% inserts).
pub fn trajectory_workload(n: usize, steps: usize, seed: u64) -> (DmpcParams, Vec<Update>) {
    let grain = TRAJECTORY_CLUSTER.min(n);
    let ups = streams::clustered_churn_stream(n, (n / grain).max(1), 2 * grain, steps, 0.5, seed);
    (canonical_params(n), ups)
}

/// Worst-case connectivity workload: every deletion splits a tree.
pub fn tree_stream(n: usize, steps: usize, seed: u64) -> Vec<Update> {
    streams::tree_churn_stream(n, steps, seed)
}

/// Runs an unweighted dynamic algorithm over a stream.
pub fn run_unweighted<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    ups: &[Update],
) -> AggregateMetrics {
    let mut agg = AggregateMetrics::default();
    for &u in ups {
        let m = alg.apply(u);
        agg.absorb(&m);
    }
    agg
}

/// Runs a weighted dynamic algorithm over a weighted stream.
pub fn run_weighted<A: WeightedDynamicGraphAlgorithm>(
    alg: &mut A,
    ups: &[WeightedUpdate],
) -> AggregateMetrics {
    let mut agg = AggregateMetrics::default();
    for &u in ups {
        let m = alg.apply(u);
        agg.absorb(&m);
    }
    agg
}

/// One wall-clock-timed batched replay: the model-level batch cost plus the
/// real time the simulator needed and the peak resident-memory proxy.
#[derive(Clone, Debug)]
pub struct TimedRun {
    /// Model-level cost of the whole stream.
    pub batch: BatchMetrics,
    /// Wall-clock seconds for the whole stream.
    pub secs: f64,
    /// Peak of [`DynamicGraphAlgorithm::resident_words`] sampled after
    /// every batch (the RSS proxy — simulated words, not host bytes).
    pub peak_resident_words: usize,
}

impl TimedRun {
    /// Wall-clock updates per second.
    pub fn updates_per_sec(&self) -> f64 {
        per_sec(self.batch.updates as f64, self.secs)
    }

    /// Wall-clock simulator rounds per second.
    pub fn rounds_per_sec(&self) -> f64 {
        per_sec(self.batch.rounds as f64, self.secs)
    }
}

fn per_sec(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Replays `ups` through `apply_batch` in chunks of `k` (like
/// [`run_stream_batched`]) under a wall-clock timer, sampling the
/// resident-memory proxy after every chunk.
pub fn time_stream_batched<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    ups: &[Update],
    k: usize,
) -> TimedRun {
    let mut total = BatchMetrics::default();
    let mut peak = alg.resident_words();
    let mut secs = 0.0;
    for batch in ups.chunks(k.max(1)) {
        // The memory sampling between chunks walks machine state (O(n)), so
        // it stays outside the timed region.
        let start = std::time::Instant::now();
        total.merge(&alg.apply_batch(batch));
        secs += start.elapsed().as_secs_f64();
        peak = peak.max(alg.resident_words());
    }
    TimedRun {
        batch: total,
        secs,
        peak_resident_words: peak,
    }
}

/// Table-1 style measurement of every algorithm at one size.
pub struct Table1Row {
    /// Row label.
    pub name: &'static str,
    /// Claimed (rounds, machines, communication).
    pub claimed: (&'static str, &'static str, &'static str),
    /// Measured aggregate.
    pub agg: AggregateMetrics,
    /// Batched execution of the same stream (k = 16), for the algorithms
    /// shipping a genuinely batched `apply_batch` override.
    pub batch: Option<BatchMetrics>,
    /// Batched query wave (q = 16) against the post-stream structure, for
    /// the algorithms shipping a genuinely batched `answer_queries`.
    pub query: Option<QueryMetrics>,
}

/// A deterministic pool of uniform connectivity queries over `n` vertices.
fn connectivity_query_pool(n: usize, count: usize, seed: u64) -> Vec<Query> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bee_f00d_5eed_cafe);
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n as V);
            let b = {
                let b = rng.gen_range(0..n as V - 1);
                if b >= a {
                    b + 1
                } else {
                    b
                }
            };
            match rng.gen_range(0..2) {
                0 => Query::Connected(a, b),
                _ => Query::ComponentOf(a),
            }
        })
        .collect()
}

/// A deterministic pool of uniform matching queries over `n` vertices.
fn matching_query_pool(n: usize, count: usize, seed: u64) -> Vec<Query> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bee_f00d_5eed_cafe);
    (0..count)
        .map(|_| match rng.gen_range(0..4) {
            0 => Query::MatchingSize,
            _ => Query::IsMatched(rng.gen_range(0..n as V)),
        })
        .collect()
}

/// Runs the pool through `answer_queries` in waves of `q`, merging the
/// per-wave costs (the query-plane analogue of [`run_stream_batched`]).
fn run_queries_batched<A: QueryableAlgorithm + ?Sized>(
    alg: &mut A,
    pool: &[Query],
    q: usize,
) -> QueryMetrics {
    let mut total = QueryMetrics::default();
    for wave in pool.chunks(q.max(1)) {
        total.merge(&alg.answer_queries(wave).1);
    }
    total
}

/// Measures all eight Table-1 rows at vertex count `n` with `steps` churn
/// updates.
pub fn measure_table1(n: usize, steps: usize, seed: u64) -> Vec<Table1Row> {
    let params = canonical_params(n);
    let ups = standard_stream(n, steps, seed);
    let m_max = params.m_max;
    let tree_ups = tree_stream(n, steps, seed);
    let wups = streams::with_weights(&ups, 1000, seed);

    // Query measurements run a q=16-wave pool against the post-stream
    // structure (reads are free to reuse the instance: they never mutate).
    let pool_len = 64.min(4 * n);
    let conn_pool = connectivity_query_pool(n, pool_len, seed);
    let match_pool = matching_query_pool(n, pool_len, seed);

    let mut rows = Vec::new();

    let mut mm = DmpcMaximalMatching::new(params);
    let mm_agg = run_unweighted(&mut mm, &ups);
    rows.push(Table1Row {
        name: "Maximal matching",
        claimed: ("O(1)", "O(1)", "O(sqrt N)"),
        agg: mm_agg,
        batch: Some(run_stream_batched(
            &mut DmpcMaximalMatching::new(params),
            &ups,
            16,
        )),
        query: Some(run_queries_batched(&mut mm, &match_pool, 16)),
    });

    let mut th = DmpcThreeHalves::new(params);
    rows.push(Table1Row {
        name: "3/2-app. matching",
        claimed: ("O(1)", "O(n/sqrt N)", "O(sqrt N)"),
        agg: run_unweighted(&mut th, &ups),
        batch: None,
        query: Some(run_queries_batched(&mut th, &match_pool, 16)),
    });

    let mut cs = CsMatching::new(n, CsParams::defaults(n, 0.3));
    rows.push(Table1Row {
        name: "(2+eps)-app. matching",
        claimed: ("O(1)", "~O(1)", "~O(1)"),
        agg: run_unweighted(&mut cs, &ups),
        batch: None,
        query: None,
    });

    let mut cc = DmpcConnectivity::new(params);
    let cc_agg = run_unweighted(&mut cc, &tree_ups);
    rows.push(Table1Row {
        name: "Connected comps",
        claimed: ("O(1)", "O(sqrt N)", "O(sqrt N)"),
        agg: cc_agg,
        batch: Some(run_stream_batched(
            &mut DmpcConnectivity::new(params),
            &tree_ups,
            16,
        )),
        query: Some(run_queries_batched(&mut cc, &conn_pool, 16)),
    });

    let mut mst = DmpcMst::new(params, 0.1);
    let mst_agg = run_weighted(&mut mst, &wups);
    rows.push(Table1Row {
        name: "(1+eps)-MST",
        claimed: ("O(1)", "O(sqrt N)", "O(sqrt N)"),
        agg: mst_agg,
        batch: None,
        query: Some(run_queries_batched(&mut mst, &conn_pool, 16)),
    });

    let mut rmm = ReducedMatching::new(n, m_max);
    rows.push(Table1Row {
        name: "Reduction: maximal matching",
        claimed: ("O(sqrt m)", "O(1)", "O(1)"),
        agg: run_unweighted(&mut rmm, &ups),
        batch: None,
        query: None,
    });

    let mut rcc = ReducedConnectivity::new(n);
    rows.push(Table1Row {
        name: "Reduction: connected comps",
        claimed: ("~O(1) am.", "O(1)", "O(1)"),
        agg: run_unweighted(&mut rcc, &tree_ups),
        batch: None,
        query: None,
    });

    let mut rmst = ReducedMst::new(n);
    rows.push(Table1Row {
        name: "Reduction: MST",
        claimed: ("O(m) (subst.)", "O(1)", "O(1)"),
        agg: run_weighted(&mut rmst, &wups),
        batch: None,
        query: None,
    });

    rows
}

/// Scaling sweep of one constructor over doubling sizes.
pub fn sweep<F>(mut make: F, sizes: &[usize], steps: usize, seed: u64, tree: bool) -> ScalingSweep
where
    F: FnMut(usize, DmpcParams) -> Box<dyn DynamicGraphAlgorithm>,
{
    let mut sw = ScalingSweep::default();
    for &n in sizes {
        let params = canonical_params(n);
        let mut alg = make(n, params);
        let ups = if tree {
            tree_stream(n, steps, seed)
        } else {
            standard_stream(n, steps, seed)
        };
        let agg = run_unweighted(alg.as_mut(), &ups);
        sw.push(params.input_size(), agg);
    }
    sw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_and_is_clean() {
        let rows = measure_table1(48, 60, 3);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.agg.violations, 0, "{} violated the model", r.name);
            assert!(r.agg.updates > 0);
        }
        // Dynamic rows are O(1) rounds; reduction rows are not.
        assert!(rows[0].agg.max_rounds <= 24);
        assert!(rows[3].agg.max_rounds <= 12);
    }
}
