//! Property tests for the simulator itself: determinism of the parallel
//! backend, conservation of message accounting, and cap enforcement.

use dmpc_mpc::{
    Backend, Cluster, ClusterConfig, Envelope, Machine, MachineId, Outbox, Payload, RoundCtx,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Packet(u64);
impl Payload for Packet {
    fn size_words(&self) -> usize {
        1 + (self.0 % 3) as usize
    }
}

/// A deterministic pseudo-random router: forwards each token `hops` times,
/// mixing its value so behaviour depends on history.
struct Router {
    acc: u64,
}

impl Machine for Router {
    type Msg = Packet;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<Packet>>,
        out: &mut Outbox<Packet>,
    ) {
        for env in inbox.drain(..) {
            self.acc = self.acc.wrapping_mul(0x9e3779b9).wrapping_add(env.msg.0);
            if env.msg.0 > 0 {
                let next = (self.acc % ctx.n_machines as u64) as MachineId;
                out.send(next, Packet(env.msg.0 - 1));
            }
        }
    }

    fn memory_words(&self) -> usize {
        1
    }
}

fn run(backend: Backend, tokens: &[(u8, u8)], machines: usize) -> (Vec<u64>, Vec<usize>) {
    let cfg = ClusterConfig {
        backend,
        threads: 4,
        track_flows: true,
        ..Default::default()
    };
    let mut c = Cluster::new(
        (0..machines).map(|i| Router { acc: i as u64 }).collect(),
        cfg,
    );
    let mut per_update = Vec::new();
    for &(to, hops) in tokens {
        c.inject((to as usize % machines) as MachineId, Packet(hops as u64));
        let m = c.run_update();
        per_update.push(m.total_words);
        assert!(m.clean());
    }
    let states = (0..machines)
        .map(|i| c.machine(i as MachineId).acc)
        .collect();
    (states, per_update)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The worker pool is bit-identical to the serial reference: same final
    /// machine states, same per-update communication totals.
    #[test]
    fn parallel_equals_serial(tokens in proptest::collection::vec((any::<u8>(), 0u8..20), 1..24)) {
        let serial = run(Backend::Serial, &tokens, 12);
        let parallel = run(Backend::WorkerPool, &tokens, 12);
        prop_assert_eq!(&serial, &parallel);
    }

    /// Batched injection is backend-independent: on randomized batches the
    /// worker pool produces bit-identical `BatchMetrics` (and machine
    /// states) to the serial reference.
    #[test]
    fn batch_metrics_parallel_equals_serial(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), 0u8..24), 1..16),
            1..6,
        )
    ) {
        let machines = 12usize;
        let run_batches = |backend: Backend| {
            let cfg = ClusterConfig {
                backend,
                threads: 4,
                track_flows: true,
                ..Default::default()
            };
            let mut c = Cluster::new(
                (0..machines).map(|i| Router { acc: i as u64 }).collect::<Vec<_>>(),
                cfg,
            );
            let mut per_batch = Vec::new();
            for batch in &batches {
                let injections: Vec<(MachineId, Packet)> = batch
                    .iter()
                    .map(|&(to, hops)| {
                        ((to as usize % machines) as MachineId, Packet(hops as u64))
                    })
                    .collect();
                let k = injections.len();
                per_batch.push(c.run_batch(injections, k));
            }
            let states: Vec<u64> = (0..machines)
                .map(|i| c.machine(i as MachineId).acc)
                .collect();
            (states, per_batch)
        };
        let serial = run_batches(Backend::Serial);
        let parallel = run_batches(Backend::WorkerPool);
        prop_assert_eq!(&serial.0, &parallel.0);
        prop_assert_eq!(&serial.1, &parallel.1);
        // Sanity: the amortization denominator is the injected batch size.
        for (bm, batch) in serial.1.iter().zip(&batches) {
            prop_assert_eq!(bm.updates, batch.len());
            prop_assert!(bm.clean());
        }
    }

    /// Token routing conserves hop counts: a token of h hops generates
    /// exactly h machine-to-machine messages.
    #[test]
    fn message_counts_conserved(hops in 0u8..30) {
        let mut c = Cluster::new(
            (0..8).map(|i| Router { acc: i as u64 }).collect::<Vec<_>>(),
            ClusterConfig::default(),
        );
        c.inject(0, Packet(hops as u64));
        let m = c.run_update();
        prop_assert_eq!(m.total_messages, hops as usize);
        prop_assert_eq!(m.rounds, hops as usize + 1);
    }

    /// The sort-based routing path delivers inboxes in exactly the
    /// documented `(to, from, injection order)` order and produces metrics
    /// identical to a naive HashMap reference executor (kept below in this
    /// test module, mirroring the pre-sort implementation).
    #[test]
    fn sort_routing_matches_hashmap_reference(
        injections in proptest::collection::vec((any::<u8>(), 1u8..18), 1..20)
    ) {
        let machines = 9usize;
        let mk = || (0..machines)
            .map(|i| Recorder { acc: (i as u64) << 8, log: Vec::new() })
            .collect::<Vec<_>>();
        let inj: Vec<(MachineId, Packet)> = injections
            .iter()
            .map(|&(to, v)| ((to as usize % machines) as MachineId, Packet(v as u64)))
            .collect();

        // Real executor, serial backend, flows on.
        let cfg = ClusterConfig {
            track_flows: true,
            ..Default::default()
        };
        let mut c = Cluster::new(mk(), cfg);
        c.inject_batch(inj.clone());
        let real = c.run_update();

        // Naive reference executor over identical machine programs.
        let mut ref_machines = mk();
        let reference = reference_update(&mut ref_machines, inj);

        prop_assert_eq!(&real, &reference);
        for (i, rm) in ref_machines.iter().enumerate() {
            let cm = c.machine(i as MachineId);
            prop_assert_eq!(&cm.log, &rm.log, "inbox order diverged at machine {}", i);
            prop_assert_eq!(cm.acc, rm.acc);
        }
        // The logged order is (from, injection order) within every round.
        for m in ref_machines.iter() {
            for w in m.log.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 <= w[1].1, "inbox not from-sorted: {:?}", w);
                }
            }
        }
    }
}

/// A machine that logs its full delivery order and fans out with
/// history-dependent targets, including same-`(to, from)` ties in one round.
struct Recorder {
    acc: u64,
    log: Vec<(u32, MachineId, u64)>,
}

impl Machine for Recorder {
    type Msg = Packet;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<Packet>>,
        out: &mut Outbox<Packet>,
    ) {
        for env in inbox.drain(..) {
            self.log.push((ctx.round, env.from, env.msg.0));
            self.acc = self.acc.wrapping_mul(0x9e3779b9).wrapping_add(env.msg.0);
            if env.msg.0 > 0 {
                let next = (self.acc % ctx.n_machines as u64) as MachineId;
                out.send(next, Packet(env.msg.0 - 1));
                if self.acc.is_multiple_of(3) {
                    // A tie: second message to the same receiver, same round.
                    out.send(next, Packet((env.msg.0 - 1) / 2));
                }
            }
        }
    }

    fn memory_words(&self) -> usize {
        1
    }
}

/// Reference executor: the pre-sort routing implementation — fresh
/// `HashMap`s per round, per-receiver vectors, per-group stable sort by
/// `from` — driving the same `Machine` programs. Kept deliberately naive;
/// the proptest above asserts the production sort-based path is
/// indistinguishable from it.
fn reference_update(
    machines: &mut [Recorder],
    injections: Vec<(MachineId, Packet)>,
) -> dmpc_mpc::UpdateMetrics {
    use std::collections::HashMap;
    let n_machines = machines.len();
    let mut pending: Vec<Envelope<Packet>> = injections
        .into_iter()
        .map(|(to, msg)| Envelope {
            from: Envelope::<Packet>::EXTERNAL,
            to,
            msg,
        })
        .collect();
    let mut metrics = dmpc_mpc::UpdateMetrics::default();
    let mut touched: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut round: u32 = 0;
    while !pending.is_empty() {
        round += 1;
        let mut rm = dmpc_mpc::RoundMetrics {
            round,
            ..Default::default()
        };
        let mut inboxes: HashMap<MachineId, Vec<Envelope<Packet>>> = HashMap::new();
        let mut recv_words: HashMap<MachineId, usize> = HashMap::new();
        for env in std::mem::take(&mut pending) {
            if env.from != Envelope::<Packet>::EXTERNAL {
                let w = env.msg.size_words();
                rm.words += w;
                rm.messages += 1;
                *recv_words.entry(env.to).or_default() += w;
                *metrics.flows.entry((env.from, env.to)).or_default() += w as u64;
            }
            inboxes.entry(env.to).or_default().push(env);
        }
        for &w in recv_words.values() {
            rm.max_recv_words = rm.max_recv_words.max(w);
        }
        let mut groups: Vec<(usize, Vec<Envelope<Packet>>)> = inboxes
            .into_iter()
            .map(|(to, mut msgs)| {
                msgs.sort_by_key(|e| e.from);
                (to as usize, msgs)
            })
            .collect();
        groups.sort_by_key(|g| g.0);
        rm.active_machines = groups.len();
        for &(idx, _) in &groups {
            if !touched.contains(&idx) {
                touched.insert(idx);
                metrics.machines_touched += 1;
            }
        }
        for (idx, mut inbox) in groups {
            let ctx = RoundCtx {
                self_id: idx as MachineId,
                n_machines,
                round,
            };
            let mut sink = Vec::new();
            let mut out = Outbox::open(idx as MachineId, &mut sink);
            machines[idx].on_messages(&ctx, &mut inbox, &mut out);
            rm.max_send_words = rm.max_send_words.max(out.queued_words());
            metrics.total_words_sent += out.queued_words();
            pending.extend(sink);
        }
        metrics.rounds += 1;
        metrics.max_active_machines = metrics.max_active_machines.max(rm.active_machines);
        metrics.max_words_per_round = metrics.max_words_per_round.max(rm.words);
        metrics.total_words += rm.words;
        metrics.total_messages += rm.messages;
        metrics.per_round.push(rm);
    }
    metrics
}
