//! The paper's reproduction layer: one table of the eight Table-1 rows, one
//! audited runner, one scaling sweep — printed by the `reproduce` bin and
//! asserted by `tests/paper_table1.rs` through the same functions.
//!
//! ```
//! // Row 7 (reduction over HDT) at n = 16, 20 churn updates, seed 7.
//! let row = dmpc_bench::ROWS[6].measure((16, 20, 7));
//! assert!(row.agg.updates > 0);
//! assert_eq!(row.agg.violations, 0);
//! ```

pub mod experiment;
pub mod report;

use dmpc_connectivity::algorithm::ConnDriver;
use dmpc_connectivity::{DmpcConnectivity, DmpcMst, StaticCc};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::matching::{is_maximal_matching, is_valid_matching};
use dmpc_graph::mst::msf_weight;
use dmpc_graph::streams::{self, QueryMix, TargetDist, Update, WeightedUpdate};
use dmpc_graph::{DynamicGraph, Edge, Op, Query, Weight, V};
use dmpc_matching::cs::{CsMatching, CsParams};
use dmpc_matching::maximal::Layout;
use dmpc_matching::static_mm::StaticMaximalMatching;
use dmpc_matching::{DmpcMaximalMatching, DmpcThreeHalves};
use dmpc_mpc::{AggregateMetrics, BatchMetrics, QueryMetrics, UpdateMetrics};
use dmpc_reduction::{ReducedConnectivity, ReducedMatching, ReducedMst};
use std::collections::HashMap;

/// The canonical deployment at vertex count `n`: `m_max = 3n`, so the
/// model provisions `P = Θ(N/S)` storage machines.
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
        if self.secs > 0.0 {
            self.batch.updates as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Replays `ups` through `apply_batch` in chunks of `k`, merging the
/// per-chunk costs into one amortizable total, under a wall-clock timer and
/// sampling the resident-memory proxy after every chunk.
pub fn time_stream_batched<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    ups: &[A::Update],
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

/// Where a row is measured: `(n, steps, seed)` — `n` vertices deployed at
/// [`canonical_params`], `steps` churn updates after the stream's build-up,
/// and the seed of the stream, its weights and its query pool.
pub type Cell = (usize, usize, u64);

const MAX_W: Weight = 1000;

/// Standard workload: `2n`-edge build-up plus churn at 50% inserts.
fn churn((n, steps, seed): Cell) -> Vec<Update> {
    streams::churn_stream(n, 2 * n, steps, 0.5, seed)
}

/// Worst-case connectivity workload: every deletion splits a tree.
fn tree((n, steps, seed): Cell) -> Vec<Update> {
    streams::tree_churn_stream(n, steps, seed)
}

/// [`churn`] with per-edge weights in `1..=MAX_W`.
fn weighted(c: Cell) -> Vec<WeightedUpdate> {
    streams::with_weights(&churn(c), MAX_W, c.2)
}

/// A paper bound as printed, and its exponent in `N` where it is a power.
pub type Bound = (&'static str, Option<f64>);
const O1: Bound = ("O(1)", Some(0.0));
const SQRT: Bound = ("O(sqrt N)", Some(0.5));

/// One row of the paper's Table 1: its label, its claimed rounds per
/// update, active machines and words per round, whether its counts come
/// from a cluster's meter, and how to measure it.
pub struct Row {
    pub name: &'static str,
    pub claimed: [Bound; 3],
    /// True when the row runs on a `dmpc_mpc::Cluster`, so its counts are
    /// metered and a violation can show; false when they come from a
    /// formula over the algorithm's own operations (the §6 row's four
    /// rounds per update, the §7 rows' two rounds per probe).
    pub metered: bool,
    run: fn(Cell) -> Measured,
}

/// What a row measures at one cell.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Worst cases and means over the stream, one update at a time.
    pub agg: AggregateMetrics,
    /// The same stream at k = 16, where `apply_batch` is a batched program.
    pub batch: Option<BatchMetrics>,
    /// 64 queries in waves of q = 16, where there is a query plane.
    pub query: Option<QueryMetrics>,
}

impl Row {
    /// Measures the row at `cell` over its own stream (see [`ROWS`]).
    pub fn measure(&self, cell: Cell) -> Measured {
        (self.run)(cell)
    }
}

/// The one runner. Replays `ups` one update at a time into a fresh instance
/// and into the [`DynamicGraph`] ground truth, auditing the instance against
/// it after the last update — and after every update where that is cheap
/// (`n <= 128`). An audit failure panics: no number measured on a corrupted
/// state is ever reported. Then the optional columns: the stream again on a
/// second fresh instance if `batched`, and uniform `mix` queries against
/// the audited one (reads never mutate).
fn measure<A: DynamicGraphAlgorithm>(
    (n, _, seed): Cell,
    make: impl Fn() -> A,
    ups: &[A::Update],
    audit: impl Fn(&mut A, &DynamicGraph) -> Result<(), String>,
    batched: bool,
    mix: Option<QueryMix>,
) -> Measured
where
    A::Update: Into<Update>,
{
    let (mut alg, mut truth) = (make(), DynamicGraph::new(n));
    let mut agg = AggregateMetrics::default();
    for (i, &u) in ups.iter().enumerate() {
        match u.into() {
            Update::Insert(e) => truth.insert(e),
            Update::Delete(e) => truth.delete(e),
        }
        .expect("valid stream");
        agg.absorb(&alg.apply(u));
        if n <= 128 || i + 1 == ups.len() {
            audit(&mut alg, &truth)
                .unwrap_or_else(|err| panic!("{} after update {i}: {err}", alg.name()));
        }
    }
    let batch = batched.then(|| time_stream_batched(&mut make(), ups, 16).batch);
    let query = mix.map(|mix| {
        let ops = streams::mixed_stream(n, 64, 100, TargetDist::Uniform, mix, seed);
        let reads = ops.iter().filter_map(|op| match op {
            Op::Read(q) => Some(*q),
            Op::Write(_) => None,
        });
        let mut total = QueryMetrics::default();
        for wave in reads.collect::<Vec<Query>>().chunks(16) {
            total.merge(&alg.answer_queries(wave).1);
        }
        total
    });
    Measured { agg, batch, query }
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

/// Structure and directory audits, and the same partition as BFS.
fn audit_conn(driver: &ConnDriver, truth: &DynamicGraph) -> Result<(), String> {
    driver.audit()?;
    driver.audit_directory()?;
    let (mut to_bfs, mut to_label) = (HashMap::new(), HashMap::new());
    let pairs = driver
        .component_labels()
        .into_iter()
        .zip(truth.components());
    let same = |(l, b)| *to_bfs.entry(l).or_insert(b) == b && *to_label.entry(b).or_insert(l) == l;
    check({ pairs }.all(same), "component labels disagree with BFS")
}

/// The maintained forest weighs what Kruskal's does on the live edges
/// (updates carry exact weights; only bulk loads are bucketed).
fn audit_msf(forest: Weight, truth: &DynamicGraph, seed: u64) -> Result<(), String> {
    let weigh = |e| (e, streams::edge_weight(e, MAX_W, seed));
    let live: Vec<(Edge, Weight)> = truth.edges().map(weigh).collect();
    let exact = msf_weight(truth.n(), &live);
    check(
        forest == exact,
        &format!("forest {forest}, Kruskal {exact}"),
    )
}

/// Every vertex against its BFS representative and against the next
/// vertex: O(n) probes instead of all pairs.
fn audit_reduced_conn(a: &mut ReducedConnectivity, truth: &DynamicGraph) -> Result<(), String> {
    let (n, bfs) = (truth.n(), truth.components());
    let agree = (0..n).all(|v| {
        let next = (v + 1) % n;
        a.connected(v as V, bfs[v]) && a.connected(v as V, next as V) == (bfs[v] == bfs[next])
    });
    check(agree, "connectivity disagrees with BFS")
}

/// Table 1, top to bottom: the §3, §4 and §6 matchings; §5 connectivity and
/// MST; the §7 reduction over Neiman–Solomon, HDT and the sequential MSF.
pub static ROWS: [Row; 8] = [
    Row {
        name: "Maximal matching",
        claimed: [O1, O1, SQRT],
        metered: true,
        run: |c @ (n, ..)| {
            let make = || DmpcMaximalMatching::new(canonical_params(n));
            measure(
                c,
                make,
                &churn(c),
                |a, g| a.audit(g),
                true,
                Some(QueryMix::Matching),
            )
        },
    },
    Row {
        name: "3/2-app. matching",
        claimed: [O1, ("O(n/sqrt N)", Some(0.5)), SQRT],
        metered: true,
        run: |c @ (n, ..)| {
            let make = || DmpcThreeHalves::new(canonical_params(n));
            measure(
                c,
                make,
                &churn(c),
                |a, g| a.audit(g),
                false,
                Some(QueryMix::Matching),
            )
        },
    },
    Row {
        name: "(2+eps)-app. matching",
        claimed: [O1, ("~O(1)", Some(0.0)), ("~O(1)", Some(0.0))],
        metered: false,
        run: |c @ (n, ..)| {
            let make = || CsMatching::new(n, CsParams::defaults(n, 0.3));
            let audit = |a: &mut CsMatching, g: &DynamicGraph| {
                a.audit()?;
                check(is_valid_matching(g, &a.matching()), "not a matching")
            };
            measure(c, make, &churn(c), audit, false, None)
        },
    },
    Row {
        name: "Connected comps",
        claimed: [O1, SQRT, SQRT],
        metered: true,
        run: |c @ (n, ..)| {
            let make = || DmpcConnectivity::new(canonical_params(n));
            measure(
                c,
                make,
                &tree(c),
                |a, g| audit_conn(a.driver(), g),
                true,
                Some(QueryMix::Connectivity),
            )
        },
    },
    Row {
        name: "(1+eps)-MST",
        claimed: [O1, SQRT, SQRT],
        metered: true,
        run: |c @ (n, _, seed)| {
            let make = || DmpcMst::new(canonical_params(n), 0.1);
            let audit = |a: &mut DmpcMst, g: &DynamicGraph| {
                audit_conn(a.driver(), g)?;
                audit_msf(a.forest_weight(), g, seed)
            };
            measure(
                c,
                make,
                &weighted(c),
                audit,
                false,
                Some(QueryMix::Connectivity),
            )
        },
    },
    Row {
        name: "Reduction: maximal matching",
        claimed: [("O(sqrt m)", None), O1, O1],
        metered: false,
        run: |c @ (n, ..)| {
            let make = || ReducedMatching::new(n, canonical_params(n).m_max);
            let maximal = |a: &mut ReducedMatching, g: &DynamicGraph| {
                check(is_maximal_matching(g, &a.matching()), "not maximal")
            };
            measure(c, make, &churn(c), maximal, false, None)
        },
    },
    Row {
        name: "Reduction: connected comps",
        claimed: [("~O(1) am.", None), O1, O1],
        metered: false,
        run: |c @ (n, ..)| {
            let make = || ReducedConnectivity::new(n);
            measure(c, make, &tree(c), audit_reduced_conn, false, None)
        },
    },
    Row {
        name: "Reduction: MST",
        claimed: [("O(m) (subst.)", None), O1, O1],
        metered: false,
        run: |c @ (n, _, seed)| {
            let msf = |a: &mut ReducedMst, g: &DynamicGraph| audit_msf(a.forest_weight(), g, seed);
            measure(c, || ReducedMst::new(n), &weighted(c), msf, false, None)
        },
    },
];

/// A scaling sweep: `(N = n + m_max, aggregate)` per size, in increasing `N`.
pub type Sweep = Vec<(usize, AggregateMetrics)>;

/// Scaling sweep of one row over `sizes`.
pub fn sweep(row: &Row, sizes: &[usize], steps: usize, seed: u64) -> Sweep {
    let point = |&n| {
        (
            canonical_params(n).input_size(),
            row.measure((n, steps, seed)).agg,
        )
    };
    sizes.iter().map(point).collect()
}

/// E9: a dynamic row (maximal matching, else connectivity) over 60 churn
/// updates at `n`, against one static recomputation of the final graph on
/// the same machine count.
pub fn dynamic_vs_static(matching: bool, n: usize) -> (AggregateMetrics, UpdateMetrics) {
    let (cell, p) = ((n, 60, 5), canonical_params(n).storage_machines());
    let (row, ups) = match matching {
        true => (&ROWS[0], churn(cell)),
        false => (&ROWS[3], tree(cell)),
    };
    let edges: Vec<Edge> = streams::replay(n, &ups).edges().collect();
    let fixed = match matching {
        true => StaticMaximalMatching::new(n, p, 7).recompute(&edges).1,
        false => StaticCc::new(n, p).recompute(&edges).1,
    };
    (row.measure(cell).agg, fixed)
}

/// E11: maximal matching at `n` with machine memory `mult * sqrt N`: the
/// machine count (fixed by `N`, not by `S`) and the measured aggregate.
pub fn memory_ablation(n: usize, mult: usize) -> (usize, AggregateMetrics) {
    let params = canonical_params(n).with_multiplier(mult);
    let (cell, make) = ((n, 150, 11), || DmpcMaximalMatching::new(params));
    let agg = measure(cell, make, &churn(cell), |a, g| a.audit(g), false, None).agg;
    (Layout::new(&params).total_machines(), agg)
}
