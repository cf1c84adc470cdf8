//! The six workloads, their inputs, and the three algorithms they serve.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::arrivals::{arrival_trace, Arrival, ArrivalProcess};
use dmpc_graph::mst::msf_weight;
use dmpc_graph::streams::{edge_weight, mixed_stream, replay, QueryMix, TargetDist};
use dmpc_graph::{DynamicGraph, Edge, Op, Update, Weight};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::{Backend, ChaosKind, ChaosPlan, ExecOptions, MachineId};
use dmpc_service::{
    BackpressurePolicy, ServiceAlgorithm, ServiceConfig, UnweightedService, WeightedEdgeService,
    WindowPolicy,
};
use std::time::Instant;

/// MST approximation parameter and the weight range of the weighted adapter.
const MST_EPS: f64 = 0.1;
const MST_MAX_W: Weight = 64;
/// Threads of the pool workload: fixed, so the cell means the same on any
/// host with at least two cores.
const POOL_THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alg {
    Conn,
    Mst,
    Matching,
}

/// One workload: every field is an input property the system's behaviour
/// depends on (BENCHMARK.json and benchmark/README.md say why each was
/// chosen).
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub alg: Alg,
    pub n: usize,
    pub read_pct: u32,
    /// Measured ops per repetition (after the bulk-loaded write prefix).
    pub ops: usize,
    /// Vertices per cluster of the target distribution (`None`: uniform).
    pub grain: Option<usize>,
    pub process: ArrivalProcess,
    pub pool: bool,
    /// Mid-flight machine kills, spread evenly over the run's windows.
    pub kills: usize,
}

const STEADY: ArrivalProcess = ArrivalProcess::Steady { ops_per_tick: 16.0 };

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "conn-mixed",
        alg: Alg::Conn,
        n: 1 << 16,
        read_pct: 50,
        ops: 100_000,
        grain: Some(256),
        process: STEADY,
        pool: false,
        kills: 0,
    },
    Spec {
        name: "conn-read95",
        alg: Alg::Conn,
        n: 1 << 16,
        read_pct: 95,
        ops: 400_000,
        grain: Some(256),
        process: STEADY,
        pool: false,
        kills: 0,
    },
    Spec {
        name: "mst-mixed",
        alg: Alg::Mst,
        n: 1 << 14,
        read_pct: 50,
        ops: 20_000,
        grain: Some(512),
        process: ArrivalProcess::Diurnal {
            low: 0.5,
            high: 32.0,
            period: 64,
        },
        pool: false,
        kills: 0,
    },
    Spec {
        name: "match-write",
        alg: Alg::Matching,
        n: 1 << 16,
        read_pct: 5,
        ops: 40_000,
        grain: None,
        process: STEADY,
        pool: false,
        kills: 0,
    },
    Spec {
        name: "conn-mixed-pool",
        alg: Alg::Conn,
        n: 1 << 16,
        read_pct: 50,
        ops: 60_000,
        grain: Some(256),
        process: STEADY,
        pool: true,
        kills: 0,
    },
    Spec {
        name: "conn-chaos",
        alg: Alg::Conn,
        n: 1 << 13,
        read_pct: 50,
        ops: 24_000,
        grain: Some(256),
        process: STEADY,
        pool: false,
        kills: 8,
    },
];

impl Spec {
    /// The same workload at CI size: n <= 2^10 and a few thousand ops.
    pub fn smoke(mut self) -> Spec {
        self.n = self.n.min(1 << 10);
        self.ops = (self.ops / 20).clamp(2_000, 6_000);
        self.kills = self.kills.min(4);
        self
    }

    pub fn params(&self) -> DmpcParams {
        DmpcParams::new(self.n, 3 * self.n)
    }

    /// Edges bulk-loaded before the measured trace starts.
    fn preload_target(&self) -> usize {
        2 * self.n
    }

    pub fn exec(&self) -> ExecOptions {
        let mut exec = ExecOptions::lean();
        if self.pool {
            exec.backend = Backend::WorkerPool;
            exec.threads = POOL_THREADS;
        }
        exec
    }

    /// The executor profile recorded with the results.
    pub fn profile(&self) -> String {
        match (self.alg, self.pool) {
            (Alg::Mst, _) => "DmpcMst::new (ExecOptions::default)".into(),
            (_, false) => "ExecOptions::lean, Backend::Serial".into(),
            (_, true) => format!("ExecOptions::lean, Backend::WorkerPool x{POOL_THREADS}"),
        }
    }

    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            window: WindowPolicy::windowed(64, 8),
            buffer_cap: 1 << 20,
            backpressure: BackpressurePolicy::Block,
            ..ServiceConfig::default()
        }
    }

    /// Kills of machines 1..=3 in round 2 of evenly spaced windows.
    /// `window_cap` is the effective window size, from which the window
    /// count of a steady trace follows.
    pub fn chaos_plan(&self, seed: u64, window_cap: usize) -> ChaosPlan {
        let windows = self.ops / window_cap.max(1);
        (0..self.kills).fold(ChaosPlan::new(seed), |plan, k| {
            let window = (k + 1) * windows / (self.kills + 1);
            let victim = 1 + (k % 3) as MachineId;
            plan.with_event_in_round(window, 2, ChaosKind::Kill(victim))
        })
    }
}

/// What one seed turns into: the edges to bulk-load and the measured trace.
pub struct Inputs {
    pub preload: Vec<Edge>,
    pub trace: Vec<Arrival>,
    pub gen_s: f64,
    pub trace_s: f64,
}

/// Generates one mixed stream; the writes of its prefix (up to
/// `preload_target` of them) become the bulk-loaded graph and the next
/// `spec.ops` ops become the measured arrival trace.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let started = Instant::now();
    let dist = match spec.grain {
        Some(grain) => TargetDist::Clustered {
            clusters: spec.n / grain,
        },
        None => TargetDist::Uniform,
    };
    let mix = match spec.alg {
        Alg::Conn => QueryMix::Connectivity,
        Alg::Mst => QueryMix::Mst,
        Alg::Matching => QueryMix::Matching,
    };
    // Steps until the prefix holds its writes, with a tenth to spare.
    let write_pct = (100 - spec.read_pct) as usize;
    let prefix_steps = spec.preload_target() * 110 / write_pct;
    let stream = mixed_stream(
        spec.n,
        prefix_steps + spec.ops,
        spec.read_pct,
        dist,
        mix,
        seed,
    );
    let mut prefix: Vec<Update> = Vec::with_capacity(spec.preload_target());
    let mut cut = 0;
    while prefix.len() < spec.preload_target() {
        if let Op::Write(u) = stream[cut] {
            prefix.push(u);
        }
        cut += 1;
    }
    let preload: Vec<Edge> = replay(spec.n, &prefix).edges().collect();
    let suffix = &stream[cut..cut + spec.ops];
    let gen_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let trace = arrival_trace(suffix, spec.process, seed);
    Inputs {
        preload,
        trace,
        gen_s,
        trace_s: started.elapsed().as_secs_f64(),
    }
}

/// An algorithm as the benchmark serves it: behind its service adapter,
/// built through its public constructor and `bulk_load`.
pub trait Subject: ServiceAlgorithm + ElasticAlgorithm + Sized {
    fn build(spec: &Spec, seed: u64, preload: &[Edge]) -> Self;

    /// Audits the final state against the ground-truth graph.
    fn audit(&self, truth: &DynamicGraph, seed: u64) -> Result<(), String>;

    /// Resident words across machines (0 where the algorithm's public
    /// interface does not expose it).
    fn resident_words(&self) -> usize;
}

/// Component labels must induce the same partition as the reference BFS.
fn same_partition(labels: &[u32], truth: &DynamicGraph) -> Result<(), String> {
    let reference = truth.components();
    let mut to_ref = std::collections::HashMap::new();
    let mut to_alg = std::collections::HashMap::new();
    for (v, (&l, &r)) in labels.iter().zip(&reference).enumerate() {
        if *to_ref.entry(l).or_insert(r) != r || *to_alg.entry(r).or_insert(l) != l {
            return Err(format!("vertex {v}: component {l} disagrees with BFS {r}"));
        }
    }
    Ok(())
}

impl Subject for UnweightedService<DmpcConnectivity> {
    fn build(spec: &Spec, _seed: u64, preload: &[Edge]) -> Self {
        let mut alg = DmpcConnectivity::with_exec(spec.params(), spec.exec());
        alg.bulk_load(preload);
        UnweightedService::new(alg)
    }

    fn audit(&self, truth: &DynamicGraph, _seed: u64) -> Result<(), String> {
        let driver = self.inner.driver();
        driver.audit()?;
        driver.audit_directory()?;
        same_partition(&driver.component_labels(), truth)
    }

    fn resident_words(&self) -> usize {
        self.inner.resident_words()
    }
}

impl Subject for WeightedEdgeService<DmpcMst> {
    fn build(spec: &Spec, seed: u64, preload: &[Edge]) -> Self {
        let weighted: Vec<(Edge, Weight)> = preload
            .iter()
            .map(|&e| (e, edge_weight(e, MST_MAX_W, seed)))
            .collect();
        let mut alg = DmpcMst::new(spec.params(), MST_EPS);
        alg.bulk_load(&weighted);
        WeightedEdgeService::new(alg, MST_MAX_W, seed)
    }

    fn audit(&self, truth: &DynamicGraph, seed: u64) -> Result<(), String> {
        let driver = self.inner.driver();
        driver.audit()?;
        driver.audit_directory()?;
        same_partition(&driver.component_labels(), truth)?;
        // Bulk-loaded weights are stored rounded down to a power of
        // (1+eps), to the nearest integer: w <= (1+eps)(w' + 1/2). The
        // forest is exact for the stored weights, so its stored weight is
        // at most the optimum and at least the optimum shrunk by that.
        let live: Vec<(Edge, Weight)> = truth
            .edges()
            .map(|e| (e, edge_weight(e, MST_MAX_W, seed)))
            .collect();
        let exact = msf_weight(truth.n(), &live) as f64;
        let forest = driver.tree_edges();
        let stored = forest.iter().map(|&(_, w)| w).sum::<Weight>() as f64;
        let slack = 0.5 * forest.len() as f64;
        if stored > exact || exact > (1.0 + MST_EPS) * (stored + slack) {
            return Err(format!(
                "forest weight {stored} not within (1+{MST_EPS}) of optimum {exact}"
            ));
        }
        Ok(())
    }

    fn resident_words(&self) -> usize {
        0
    }
}

impl Subject for UnweightedService<DmpcMaximalMatching> {
    fn build(spec: &Spec, _seed: u64, preload: &[Edge]) -> Self {
        let mut alg = DmpcMaximalMatching::with_exec(spec.params(), spec.exec());
        alg.bulk_load(preload);
        UnweightedService::new(alg)
    }

    fn audit(&self, truth: &DynamicGraph, _seed: u64) -> Result<(), String> {
        self.inner.audit(truth)
    }

    fn resident_words(&self) -> usize {
        self.inner.resident_words()
    }
}
