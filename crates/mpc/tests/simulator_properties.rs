//! Property tests for the simulator itself: determinism of the parallel
//! backend, conservation of message accounting, and cap enforcement.

use dmpc_mpc::{
    Backend, Cluster, ClusterConfig, Envelope, ExecOptions, Machine, MachineId, Outbox, Payload,
    RoundCtx,
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

/// `Cluster::touched` lists exactly the machines the last run counted in
/// `machines_touched`: that many ids, all distinct, all in range.
fn assert_touched_is_the_counted_set<M: Machine>(c: &Cluster<M>, machines_touched: usize) {
    let touched = c.touched();
    assert_eq!(touched.len(), machines_touched);
    let distinct: std::collections::BTreeSet<_> = touched.iter().copied().collect();
    assert_eq!(distinct.len(), touched.len(), "duplicate id in {touched:?}");
    assert!(distinct.iter().all(|&m| (m as usize) < c.n_machines()));
}

fn run(backend: Backend, tokens: &[(u8, u8)], machines: usize) -> (Vec<u64>, Vec<usize>) {
    let cfg = ClusterConfig::default().with_exec(ExecOptions {
        backend,
        threads: 4,
        ..Default::default()
    });
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
        assert_touched_is_the_counted_set(&c, m.machines_touched);
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
            let cfg = ClusterConfig::default().with_exec(ExecOptions {
                backend,
                threads: 4,
                ..Default::default()
            });
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
                let bm = c.run_batch(injections, k);
                assert_touched_is_the_counted_set(&c, bm.machines_touched);
                per_batch.push(bm);
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

        // Real executor, serial backend, flows on (the default profile).
        let mut c = Cluster::new(mk(), ClusterConfig::default());
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

/// Plays a fixed script on its first external message and logs every
/// delivery, so a test controls exactly how many messages a round carries.
struct Scripted {
    script: Vec<(MachineId, u64)>,
    log: Vec<(u32, MachineId, u64)>,
}

impl Machine for Scripted {
    type Msg = Packet;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<Packet>>,
        out: &mut Outbox<Packet>,
    ) {
        for env in inbox.drain(..) {
            self.log.push((ctx.round, env.from, env.msg.0));
            if env.from == Envelope::<Packet>::EXTERNAL {
                for (to, v) in self.script.drain(..) {
                    out.send(to, Packet(v));
                }
            }
        }
    }
}

/// The router picks its sort from the round's message count (an in-place
/// insertion sort for sparse rounds, counting sorts for dense ones). For
/// every round size from empty to well past any plausible bound — so the
/// sizes bound-1, bound, bound+1 are among them whatever the private
/// constant is — each machine's inbox order and the run's metrics equal
/// the naive reference executor's: for all-external rounds (ties on
/// `(to, EXTERNAL)` keep injection order) and for machine-sent rounds from
/// one or several senders onto a couple of receivers (many ties on
/// `(to, from)`, senders out of `to` order). Rounds mixing external and
/// machine senders cannot be built through `inject`; the unit test
/// `both_sort_paths_agree_with_a_stable_reference_sort` in `cluster.rs`
/// covers them on the sorter directly.
#[test]
fn inbox_order_matches_reference_at_every_round_size() {
    let machines = 7usize;
    // A small multiplicative generator: seeded, no dependence on `rand`.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    for k in 0..=40usize {
        for senders in [0usize, 1, 3] {
            // senders == 0: the k messages are the injections themselves.
            let mut scripts: Vec<Vec<(MachineId, u64)>> = vec![Vec::new(); machines];
            let inj: Vec<(MachineId, Packet)> = if senders == 0 {
                (0..k)
                    .map(|i| (next(machines) as MachineId, Packet(i as u64)))
                    .collect()
            } else {
                // Senders sit at the top ids and aim at receivers 1 and 0,
                // so `from` order and `to` order disagree.
                for i in 0..k {
                    let from = machines - 1 - next(senders);
                    scripts[from].push((next(2) as MachineId, i as u64));
                }
                (0..senders)
                    .map(|s| ((machines - 1 - s) as MachineId, Packet(1000 + s as u64)))
                    .collect()
            };
            let mk = || {
                scripts
                    .iter()
                    .map(|script| Scripted {
                        script: script.clone(),
                        log: Vec::new(),
                    })
                    .collect::<Vec<_>>()
            };
            for backend in [Backend::Serial, Backend::WorkerPool] {
                let cfg = ClusterConfig::default().with_exec(ExecOptions {
                    backend,
                    threads: 3,
                    ..Default::default()
                });
                let mut c = Cluster::new(mk(), cfg);
                c.inject_batch(inj.clone());
                let real = c.run_update();
                let mut ref_machines = mk();
                let reference = reference_update(&mut ref_machines, inj.clone());
                assert_eq!(real, reference, "k={k} senders={senders} {backend:?}");
                assert_touched_is_the_counted_set(&c, real.machines_touched);
                if senders > 0 {
                    // Round 1 carries only the injections, so round 2
                    // carries every machine message.
                    assert_eq!(real.rounds, if k > 0 { 2 } else { 1 });
                    assert_eq!(real.total_messages, k, "round 2 carries exactly k messages");
                }
                for (i, rm) in ref_machines.iter().enumerate() {
                    assert_eq!(
                        c.machine(i as MachineId).log,
                        rm.log,
                        "k={k} senders={senders} {backend:?}: inbox order diverged at machine {i}"
                    );
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
fn reference_update<M: Machine<Msg = Packet>>(
    machines: &mut [M],
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
        let (mut words, mut messages) = (0usize, 0usize);
        let mut inboxes: HashMap<MachineId, Vec<Envelope<Packet>>> = HashMap::new();
        for env in std::mem::take(&mut pending) {
            if env.from != Envelope::<Packet>::EXTERNAL {
                let w = env.msg.size_words();
                words += w;
                messages += 1;
                *metrics.flows.entry((env.from, env.to)).or_default() += w as u64;
            }
            inboxes.entry(env.to).or_default().push(env);
        }
        let mut groups: Vec<(usize, Vec<Envelope<Packet>>)> = inboxes
            .into_iter()
            .map(|(to, mut msgs)| {
                msgs.sort_by_key(|e| e.from);
                (to as usize, msgs)
            })
            .collect();
        groups.sort_by_key(|g| g.0);
        metrics.max_active_machines = metrics.max_active_machines.max(groups.len());
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
            metrics.total_words_sent += out.queued_words();
            pending.extend(sink);
        }
        metrics.rounds += 1;
        metrics.max_words_per_round = metrics.max_words_per_round.max(words);
        metrics.total_words += words;
        metrics.total_messages += messages;
    }
    metrics
}
