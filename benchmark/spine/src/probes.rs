//! Micro-probes of the layers the service boundary cannot time from
//! outside: the round executor and worker pool (`mpc.*`) and the service's
//! own buffer and histogram (`service.*`). Each drives the layer's public
//! interface with a benchmark-owned program, so the numbers are floors
//! for an *estimate* of that layer's share, not measurements of it.

use dmpc_mpc::{
    Backend, Cluster, ClusterConfig, Envelope, ExecOptions, LatencyStats, Machine, MachineId,
    Outbox, RoundCtx, WorkerPool,
};
use dmpc_service::{AdmissionBuffer, BackpressurePolicy};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per probe run (under the executor's 10,000-round quiescence cap).
const HOPS: u64 = 2_000;

/// Forwards each token it holds to the next machine until the token's hop
/// budget runs out.
struct Hop;

impl Machine for Hop {
    type Msg = u64;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<u64>>,
        out: &mut Outbox<u64>,
    ) {
        for env in inbox.drain(..) {
            if env.msg > 0 {
                let next = (ctx.self_id + 1) % ctx.n_machines as MachineId;
                out.send(next, env.msg - 1);
            }
        }
    }
}

/// Nanoseconds per round with `tokens` tokens circulating among
/// `machines` machines, over `runs` runs of `HOPS` rounds.
fn ring_ns_per_round(machines: usize, tokens: usize, runs: usize, exec: ExecOptions) -> f64 {
    let cfg = ClusterConfig::default().with_exec(exec);
    let mut cluster = Cluster::new((0..machines).map(|_| Hop).collect(), cfg);
    let stride = (machines / tokens).max(1);
    let mut rounds = 0;
    let started = Instant::now();
    for _ in 0..runs {
        let seeds = (0..tokens).map(|t| ((t * stride % machines) as MachineId, HOPS));
        rounds += black_box(cluster.run_batch(seeds, tokens)).rounds;
    }
    started.elapsed().as_nanos() as f64 / rounds as f64
}

pub struct MpcProbe {
    pub round_floor_ns: f64,
    pub route_ns_per_msg: f64,
    pub pool_round_us: f64,
    pub pool_route_ns_per_msg: f64,
    pub pool_barrier_us: f64,
}

/// Executor floors at the workload's machine count `p`: an (almost) empty
/// round, and the extra cost per message when every machine sends each
/// round — serial, and under a two-thread pool.
pub fn mpc(p: usize) -> MpcProbe {
    let p = p.max(2);
    let serial = ExecOptions::lean();
    let pool = ExecOptions {
        backend: Backend::WorkerPool,
        threads: 2,
        ..serial
    };
    let floor = ring_ns_per_round(p, 1, 50, serial);
    let full = ring_ns_per_round(p, p, 1, serial);
    // Two tokens keep two machines active, which is what makes the
    // executor dispatch a round to the pool at all.
    let pool_floor = ring_ns_per_round(p, 2, 5, pool);
    let pool_full = ring_ns_per_round(p, p, 1, pool);
    let mut workers = WorkerPool::new(2);
    let handshakes = 20_000;
    let started = Instant::now();
    for _ in 0..handshakes {
        workers.execute(2, &|w| {
            black_box(w);
        });
    }
    let pool_barrier_us = started.elapsed().as_secs_f64() * 1e6 / handshakes as f64;
    MpcProbe {
        round_floor_ns: floor,
        route_ns_per_msg: (full - floor).max(0.0) / p as f64,
        pool_round_us: pool_floor / 1e3,
        pool_route_ns_per_msg: (pool_full - pool_floor).max(0.0) / p as f64,
        pool_barrier_us,
    }
}

/// Nanoseconds per op through `AdmissionBuffer` (offer, drain in windows
/// of 64, refill), as the service loop uses it.
pub fn buffer_ns_per_op() -> f64 {
    let ops = 1_000_000u64;
    let mut buf: AdmissionBuffer<u64> = AdmissionBuffer::new(1 << 20, BackpressurePolicy::Block);
    let started = Instant::now();
    for i in 0..ops {
        black_box(buf.offer(i));
        if buf.len() >= 64 {
            black_box(buf.drain_front(64));
            buf.refill();
        }
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Nanoseconds per sample to record `samples` latencies and read p99 once,
/// as a report's consumer does.
pub fn histogram_ns_per_sample(samples: usize) -> f64 {
    let mut stats = LatencyStats::new();
    let started = Instant::now();
    for i in 0..samples {
        stats.record(black_box((i % 1024) as f64 * 1e-6));
    }
    black_box(stats.p99());
    started.elapsed().as_nanos() as f64 / samples.max(1) as f64
}
