//! Cluster assembly, the public algorithm type, bulk preprocessing, result
//! extraction and deep structural audits.

use super::coordinator::Coordinator;
use super::msg::{Ann, MatchMsg, StatRec, NO_MATE};
use super::stats::StatsMachine;
use super::storage::{OverflowMachine, StorageMachine, StoreVertex};
use super::Layout;
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::matching::Matching;
use dmpc_graph::{DynamicGraph, Edge, Query, QueryAnswer, Update, V};
use dmpc_mpc::chaos::{ChaosKind, Fnv1a};
use dmpc_mpc::handoff::{self, Outcome};
use dmpc_mpc::text::{self, Sink};
use dmpc_mpc::{
    BatchMetrics, Cluster, ClusterConfig, Envelope, ExecOptions, Handoff, HandoffMsg, Machine,
    MachineId, Outbox, QueryMetrics, RoundCtx, UpdateMetrics, COORDINATOR,
};

/// The protocol program one machine of the matching cluster runs.
// Each simulated machine holds exactly one Role for its whole lifetime, so
// the size difference between variants costs nothing per-message; boxing the
// large variants would only add indirection to the hot stepping path.
#[allow(clippy::large_enum_variant)]
pub enum Role {
    /// The coordinator `M_C`.
    Coord(Coordinator),
    /// A stats machine.
    Stats(StatsMachine),
    /// A storage machine.
    Storage(StorageMachine),
    /// An overflow machine.
    Overflow(OverflowMachine),
}

/// One machine of the matching cluster: its role's program, plus the
/// snapshot handoff every machine runs alike (the coordinator, the paper's
/// reliable machine, ships revive snapshots; the revived machine receives).
pub struct MatchMachine {
    role: Role,
    handoff: Handoff,
}

impl Machine for MatchMachine {
    type Msg = MatchMsg;

    fn on_messages(
        &mut self,
        _ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<MatchMsg>>,
        out: &mut Outbox<MatchMsg>,
    ) {
        for env in inbox.drain(..) {
            match env.msg {
                MatchMsg::Handoff(h) => {
                    let done = self.handoff.on_message(env.from, h, out, MatchMsg::Handoff);
                    if let Outcome::Received(text) = done {
                        self.role.restore_text(&text);
                    }
                }
                msg => self.role.handle(env.from, msg, out),
            }
        }
    }

    fn memory_words(&self) -> usize {
        self.role.memory_words() + self.handoff.memory_words()
    }

    /// The coordinator's idle reset. The other roles answer each message on
    /// its own, so a cut-short run strands nothing there.
    fn abandon_run(&mut self) {
        if let Role::Coord(c) = &mut self.role {
            c.abandon_run();
        }
    }
}

/// Fully-dynamic maximal matching in the DMPC model (paper Section 3):
/// O(1) rounds and O(1) active machines per update, O(sqrt N) communication
/// per round, worst case.
pub struct DmpcMaximalMatching {
    cluster: Cluster<MatchMachine>,
    layout: Layout,
    params: DmpcParams,
    /// Section 4 mode flag (set by [`crate::threehalves::DmpcThreeHalves`]).
    pub(crate) three_halves: bool,
}

impl DmpcMaximalMatching {
    /// Creates an empty instance, fully metered (flows tracked).
    pub fn new(params: DmpcParams) -> Self {
        Self::with_exec(params, ExecOptions::default())
    }

    /// Creates an empty instance with explicit executor tuning (backend
    /// selection, metering detail) — bit-identical across profiles.
    pub fn with_exec(params: DmpcParams, exec: ExecOptions) -> Self {
        Self::with_mode_exec(params, false, exec)
    }

    pub(crate) fn with_mode_exec(
        params: DmpcParams,
        three_halves: bool,
        exec: ExecOptions,
    ) -> Self {
        let layout = Layout::new(&params);
        let mut machines = Vec::with_capacity(layout.total_machines());
        machines.push(Role::Coord(Coordinator::new(
            layout,
            three_halves,
            params.capacity_words(),
        )));
        for i in 0..layout.n_stats {
            let lo = (i * layout.stats_block) as V;
            let hi = (((i + 1) * layout.stats_block).min(layout.n)) as V;
            machines.push(Role::Stats(StatsMachine::new(lo, hi)));
        }
        for i in 0..layout.n_storage {
            let lo = (i * layout.storage_block) as V;
            let hi = (((i + 1) * layout.storage_block).min(layout.n)) as V;
            machines.push(Role::Storage(StorageMachine::new(lo, hi, layout.tau)));
        }
        for _ in 0..layout.n_overflow {
            machines.push(Role::Overflow(OverflowMachine::default()));
        }
        let machines = machines
            .into_iter()
            .map(|role| MatchMachine {
                role,
                handoff: Handoff::default(),
            })
            .collect();
        let cfg = ClusterConfig::with_capacity(params.capacity_words()).with_exec(exec);
        DmpcMaximalMatching {
            cluster: Cluster::new(machines, cfg),
            layout,
            params,
            three_halves,
        }
    }

    /// The machine layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The model parameters.
    pub fn params(&self) -> &DmpcParams {
        &self.params
    }

    fn coord(&self) -> &Coordinator {
        match &self.cluster.machine(COORDINATOR).role {
            Role::Coord(c) => c,
            _ => unreachable!(),
        }
    }

    fn stats_rec(&self, v: V) -> StatRec {
        match &self.cluster.machine(self.layout.stats_of(v)).role {
            Role::Stats(s) => *s.record(v).expect("missing record"),
            _ => unreachable!(),
        }
    }

    /// Extracts the maintained matching (result extraction, not metered).
    pub fn matching(&self) -> Matching {
        let mut edges = Vec::new();
        for v in 0..self.layout.n as V {
            let r = self.stats_rec(v);
            if r.matched() && v < r.mate {
                edges.push(Edge::new(v, r.mate));
            }
        }
        Matching::from_edges(&edges)
    }

    /// Bulk preprocessing from an initial graph: a greedy maximal matching
    /// plus the heavy/light storage split, installed directly (the paper
    /// computes this with a randomized O(log n)-round matching algorithm;
    /// the static baseline exhibits those costs on the same simulator).
    pub fn bulk_load(&mut self, edges: &[Edge]) {
        assert!(
            !self.three_halves,
            "the Section 4 algorithm starts from the empty graph (paper assumption)"
        );
        let g = DynamicGraph::from_edges(self.layout.n, edges);
        let m = dmpc_graph::matching::greedy_maximal(&g);
        let tau = self.layout.tau;
        let n = self.layout.n;
        let recs: Vec<StatRec> = (0..n as V)
            .map(|v| StatRec {
                degree: g.degree(v) as u32,
                mate: m.mate(v).unwrap_or(NO_MATE),
                heavy: g.degree(v) > tau,
                free_nbrs: 0,
            })
            .collect();
        let ann_of = |u: V| -> Ann {
            match m.mate(u) {
                Some(mu) => Ann {
                    matched: true,
                    mate: mu,
                    mate_light: g.degree(mu) <= tau,
                },
                None => Ann::free(),
            }
        };
        // Stats machines.
        for v in 0..n as V {
            let sm = self.layout.stats_of(v);
            match &mut self.cluster.machine_mut(sm).role {
                Role::Stats(s) => s.load(v, recs[v as usize]),
                _ => unreachable!(),
            }
        }
        // Storage + overflow.
        let mut next_overflow = self.layout.overflow_base();
        let mut preassign = Vec::new();
        for v in 0..n as V {
            let mut entries: Vec<(V, Ann)> = g.neighbors(v).map(|u| (u, ann_of(u))).collect();
            let heavy = recs[v as usize].heavy;
            let mut suspended = Vec::new();
            if heavy {
                // Mate edge first, then split at tau.
                if let Some(mv) = m.mate(v) {
                    if let Some(pos) = entries.iter().position(|&(x, _)| x == mv) {
                        entries.swap(0, pos);
                    }
                }
                if entries.len() > tau {
                    suspended = entries.split_off(tau);
                }
            }
            let sm = self.layout.storage_of(v);
            match &mut self.cluster.machine_mut(sm).role {
                Role::Storage(s) => s.load(v, StoreVertex { heavy, entries }),
                _ => unreachable!(),
            }
            if heavy {
                let ov = next_overflow;
                next_overflow += 1;
                assert!(
                    (ov as usize) < self.layout.total_machines(),
                    "overflow pool exhausted during bulk load"
                );
                match &mut self.cluster.machine_mut(ov).role {
                    Role::Overflow(o) => o.load(v, suspended.clone(), 0),
                    _ => unreachable!(),
                }
                preassign.push((v, ov, suspended.len()));
            }
        }
        match &mut self.cluster.machine_mut(COORDINATOR).role {
            Role::Coord(c) => {
                for (v, ov, count) in preassign {
                    c.preassign_overflow(v, ov, count);
                }
                c.preset_matched_pairs(m.size());
            }
            _ => unreachable!(),
        }
        // One index sort per storage machine, paid here in set-up rather
        // than by each machine's first message — and after the scratch
        // graph is gone, so the indexes reuse its memory.
        drop((g, m));
        for sm in self.layout.storage_of(0)..self.layout.overflow_base() {
            match &mut self.cluster.machine_mut(sm).role {
                Role::Storage(s) => s.settle_index(),
                _ => unreachable!(),
            }
        }
    }

    /// Runs one chunk of queries as a single metered wave: `IsMatched`
    /// probes are injected at the stats machines (whose records are exact at
    /// all times), `MatchingSize` at the coordinator's local counter — the
    /// update path (history sync, storage scans) is never touched, and the
    /// whole wave resolves in one round.
    fn run_query_wave(&mut self, chunk: &[Query]) -> (Vec<QueryAnswer>, UpdateMetrics) {
        let mut wave: Vec<(MachineId, MatchMsg)> = Vec::with_capacity(chunk.len());
        let mut got: Vec<(u32, QueryAnswer)> = Vec::new();
        for (i, &q) in chunk.iter().enumerate() {
            let qid = i as u32;
            match q {
                // A dead stats owner can't answer; the service acknowledges
                // the read as `Degraded` ("writes pause, reads degrade").
                Query::IsMatched(v) if !self.cluster.is_alive(self.layout.stats_of(v)) => {
                    got.push((qid, QueryAnswer::Degraded));
                }
                Query::IsMatched(v) => {
                    wave.push((self.layout.stats_of(v), MatchMsg::QIsMatched { qid, v }));
                }
                Query::MatchingSize => {
                    wave.push((COORDINATOR, MatchMsg::QMatchingSize { qid }));
                }
                Query::Connected(_, _) | Query::ComponentOf(_) | Query::PathMax(_, _) => {
                    got.push((qid, QueryAnswer::Unsupported));
                }
            }
        }
        self.cluster.inject_batch(wave);
        let m = self.cluster.run_update();
        // Answers are stashed inside `on_messages`, so only the machines
        // this wave stepped can hold any.
        self.cluster
            .for_each_touched_mut(|node| match &mut node.role {
                Role::Coord(c) => {
                    got.extend(
                        c.take_answers()
                            .into_iter()
                            .map(|(qid, n)| (qid, QueryAnswer::Count(n))),
                    );
                }
                Role::Stats(s) => {
                    got.extend(
                        s.take_answers()
                            .into_iter()
                            .map(|(qid, b)| (qid, QueryAnswer::Bool(b))),
                    );
                }
                Role::Storage(_) | Role::Overflow(_) => {}
            });
        got.sort_unstable_by_key(|&(qid, _)| qid);
        assert_eq!(got.len(), chunk.len(), "query answers missing/duplicated");
        (got.into_iter().map(|(_, a)| a).collect(), m)
    }

    /// Deep structural audit against the ground-truth graph: matching
    /// validity and maximality, record exactness, the heavy/light and
    /// alive/suspended invariants, annotation coherence (annotations plus
    /// the pending history suffix equal the truth), and counter exactness
    /// in 3/2 mode.
    pub fn audit(&self, g: &DynamicGraph) -> Result<(), String> {
        let n = self.layout.n;
        let tau = self.layout.tau;
        let m = self.matching();
        if !dmpc_graph::matching::is_valid_matching(g, &m) {
            return Err("matching invalid".into());
        }
        if !dmpc_graph::matching::is_maximal_matching(g, &m) {
            return Err("matching not maximal".into());
        }
        let coord = self.coord();
        for v in 0..n as V {
            let r = self.stats_rec(v);
            if r.degree as usize != g.degree(v) {
                return Err(format!(
                    "vertex {v}: degree {} != {}",
                    r.degree,
                    g.degree(v)
                ));
            }
            if r.heavy != (g.degree(v) > tau) {
                return Err(format!("vertex {v}: heavy flag wrong"));
            }
            if r.matched() != m.is_matched(v) || (r.matched() && m.mate(v) != Some(r.mate)) {
                return Err(format!("vertex {v}: mate record wrong"));
            }
            if self.three_halves {
                let actual = g.neighbors(v).filter(|&u| !m.is_matched(u)).count() as u32;
                if r.free_nbrs != actual {
                    return Err(format!(
                        "vertex {v}: counter {} != actual {actual}",
                        r.free_nbrs
                    ));
                }
            }
        }
        // Storage invariants + annotation coherence.
        for (id, node) in self.cluster.machines().enumerate() {
            if let Role::Storage(s) = &node.role {
                s.audit_index().map_err(|e| format!("machine {id}: {e}"))?;
            }
        }
        for v in 0..n as V {
            let Role::Storage(s) = &self.cluster.machine(self.layout.storage_of(v)).role else {
                unreachable!()
            };
            let sv = s.vertex(v).expect("missing store vertex");
            let deg = g.degree(v);
            let expect_alive = if sv.heavy { deg.min(tau) } else { deg };
            if sv.heavy != (deg > tau) {
                return Err(format!("storage {v}: heavy flag wrong"));
            }
            if sv.entries.len() != expect_alive {
                return Err(format!(
                    "storage {v}: alive {} != expected {expect_alive}",
                    sv.entries.len()
                ));
            }
            let suffix = coord.hist_suffix(s.last_seen());
            for (nbr, mut ann) in sv.entries {
                if !g.has_edge(Edge::new(v, nbr)) {
                    return Err(format!("storage {v}: stale edge to {nbr}"));
                }
                for (_, h) in &suffix {
                    super::msg::repair_entry(h, nbr, &mut ann);
                }
                let truth_m = m.is_matched(nbr);
                if ann.matched != truth_m {
                    return Err(format!(
                        "storage {v}->{nbr}: repaired matched={} truth={truth_m}",
                        ann.matched
                    ));
                }
                if truth_m {
                    let mate = m.mate(nbr).unwrap();
                    if ann.mate != mate {
                        return Err(format!("storage {v}->{nbr}: repaired mate wrong"));
                    }
                    if ann.mate_light != (g.degree(mate) <= tau) {
                        return Err(format!("storage {v}->{nbr}: repaired mate_light wrong"));
                    }
                }
            }
        }
        Ok(())
    }
}

impl DynamicGraphAlgorithm for DmpcMaximalMatching {
    type Update = Update;

    fn name(&self) -> &'static str {
        if self.three_halves {
            "dmpc-3/2-matching"
        } else {
            "dmpc-maximal-matching"
        }
    }

    fn apply(&mut self, u: Update) -> UpdateMetrics {
        let msg = match u {
            Update::Insert(e) => MatchMsg::Insert(e),
            Update::Delete(e) => MatchMsg::Delete(e),
        };
        self.cluster.inject(COORDINATOR, msg);
        self.cluster.run_update()
    }

    /// Batched query plane: every `q`-query wave resolves in one round —
    /// `IsMatched` at the stats machines, `MatchingSize` at the coordinator —
    /// without acquiring any update-path state (works in both Section 3 and
    /// 3/2 mode, whose mutations share `do_match`/`do_unmatch`).
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        let mut answers = Vec::with_capacity(queries.len());
        let mut qm = QueryMetrics::default();
        // Chunked like update batches: the stashed answers are transient
        // machine state and must fit the O(sqrt N)-word budget.
        let chunk_len = self.params.sqrt_n().max(1);
        for chunk in queries.chunks(chunk_len) {
            let (a, m) = self.run_query_wave(chunk);
            answers.extend(a);
            qm.absorb_run(&m);
            qm.queries += chunk.len();
        }
        (answers, qm)
    }

    fn resident_words(&self) -> usize {
        self.cluster.resident_words()
    }

    fn admission_budget(&self) -> Option<usize> {
        // The batched coordinator program's chunk bound (see apply_batch);
        // the looped 3/2 mode has no batching to protect, so any window
        // size is admissible there too.
        Some((self.params.sqrt_n() / 4).max(1))
    }

    /// Genuinely batched execution (Section 3 mode): the batch is coalesced
    /// to its net updates and injected chunk-wise; the coordinator
    /// prefetches all endpoint records in one shared wave and drains the
    /// chunk back-to-back against the warm cache, collapsing the per-update
    /// fetch round-trips. The 3/2 mode falls back to the looped default
    /// (its counter commit assumes one update per run).
    fn apply_batch(&mut self, updates: &[Update]) -> BatchMetrics {
        if self.three_halves {
            return dmpc_core::apply_batch_looped(self, updates);
        }
        let net = dmpc_graph::streams::coalesce(updates);
        let mut bm = BatchMetrics::default();
        // Two budgets bound the chunk: the coordinator's transient cache
        // (~4 words per endpoint record) must fit its O(sqrt N)-word memory
        // alongside the history buffer, and a fully-cached drain emits the
        // whole chunk's O(1)-message updates in one round, which must fit
        // the O(sqrt N)-word send cap.
        let chunk = (self.params.sqrt_n() / 4).max(1);
        for part in net.chunks(chunk) {
            let m = self.cluster.run_batch(
                std::iter::once((COORDINATOR, MatchMsg::Batch(part.to_vec()))),
                part.len(),
            );
            bm.merge(&m);
        }
        // Amortize over the caller's batch: cancelled pairs count as free
        // work the batch absorbed.
        bm.updates = updates.len();
        bm
    }
}

impl Role {
    /// Handles one message of the role's own protocol: the coordinator
    /// sends what its reply calls for, the other roles answer it.
    fn handle(&mut self, from: MachineId, msg: MatchMsg, out: &mut Outbox<MatchMsg>) {
        let reply = match self {
            Role::Coord(c) => {
                let msgs = if from == Envelope::<MatchMsg>::EXTERNAL {
                    match msg {
                        MatchMsg::Insert(e) => c.start(Update::Insert(e)),
                        MatchMsg::Delete(e) => c.start(Update::Delete(e)),
                        MatchMsg::Batch(ups) => c.start_batch(ups),
                        MatchMsg::QMatchingSize { qid } => {
                            c.answer_matching_size(qid);
                            Vec::new()
                        }
                        other => panic!("unexpected injected message {other:?}"),
                    }
                } else {
                    c.reply(msg)
                };
                for (to, m) in msgs {
                    out.send(to, m);
                }
                return;
            }
            Role::Stats(s) => s.handle(msg),
            Role::Storage(s) => s.handle(msg),
            Role::Overflow(o) => o.handle(msg),
        };
        if let Some(r) = reply {
            out.send(COORDINATOR, r);
        }
    }

    /// Metered memory of the role's program. The coordinator's is the
    /// history buffer (O(sqrt N)) plus — during a batch — the queued
    /// updates and the carried stat cache (both bounded by the chunking in
    /// `apply_batch`), stashed answers, and the sync state, one word per
    /// machine plus its count table (also O(sqrt N)). A history entry is 3
    /// words: its seq is implied by its place in the deque.
    fn memory_words(&self) -> usize {
        match self {
            Role::Coord(c) => {
                8 + c.sync_words()
                    + 3 * c.hist_len()
                    + 4 * c.cache_len()
                    + 2 * c.queue_len()
                    + 2 * c.answers_len()
            }
            Role::Stats(s) => s.memory_words(),
            Role::Storage(s) => s.memory_words(),
            Role::Overflow(o) => o.memory_words(),
        }
    }

    /// Renders this machine's program state as its snapshot text.
    fn write_text<S: Sink>(&self, s: &mut S) {
        match self {
            Role::Coord(c) => c.write_text(s),
            Role::Stats(m) => m.write_text(s),
            Role::Storage(m) => m.write_text(s),
            Role::Overflow(m) => m.write_text(s),
        }
    }

    /// Plain-text snapshot of this machine's program state (chaos plane).
    fn snapshot_text(&self) -> String {
        text::render(|s| self.write_text(s))
    }

    /// Fail-stop wipe (chaos plane).
    fn wipe(&mut self) {
        match self {
            Role::Coord(_) => unreachable!("the coordinator is the reliable machine"),
            Role::Stats(s) => s.wipe(),
            Role::Storage(s) => s.wipe(),
            Role::Overflow(o) => o.wipe(),
        }
    }

    /// Machine-local restore from [`Role::snapshot_text`] output (the
    /// epoch-abort rollback path).
    fn restore_text(&mut self, text: &str) {
        match self {
            Role::Coord(c) => c.restore_text(text),
            Role::Stats(s) => s.restore_text(text),
            Role::Storage(s) => s.restore_text(text),
            Role::Overflow(o) => o.restore_text(text),
        }
    }
}

/// Chaos-plane surface (paper Section 3 keeps the coordinator `M_C` on the
/// model's one reliable machine, so it is never killable; it doubles as the
/// staging peer for revive handoffs). Every role's snapshot text is
/// lossless — the coordinator's "coord v2" included — so a full-cluster
/// checkpoint is the per-machine snapshots and `restore` is the trait's
/// per-machine default.
impl dmpc_core::ElasticAlgorithm for DmpcMaximalMatching {
    fn n_shards(&self) -> usize {
        self.cluster.n_machines()
    }

    fn killable(&self, m: MachineId) -> bool {
        m != COORDINATOR
    }

    fn is_alive(&self, m: MachineId) -> bool {
        self.cluster.is_alive(m)
    }

    fn round_limit(&self) -> usize {
        self.cluster.round_limit()
    }

    fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
        self.cluster.arm_in_round(at_round, kind)
    }

    fn restore_machine(&mut self, m: MachineId, snap: &str) {
        let node = self.cluster.machine_mut(m);
        node.handoff = Handoff::default();
        node.role.restore_text(snap);
    }

    fn snapshot_machine(&self, m: MachineId) -> String {
        self.cluster.machine(m).role.snapshot_text()
    }

    fn kill(&mut self, m: MachineId) {
        assert_ne!(m, COORDINATOR, "the coordinator is the reliable machine");
        self.cluster.kill(m);
        let node = self.cluster.machine_mut(m);
        node.handoff = Handoff::default();
        node.role.wipe();
    }

    fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
        self.cluster.revive(m);
        let budget = handoff::chunk_budget(self.params.capacity_words());
        self.cluster.machine_mut(COORDINATOR).handoff.stage(snap);
        self.cluster.inject(
            COORDINATOR,
            MatchMsg::Handoff(HandoffMsg::Begin { to: m, budget }),
        );
        self.cluster.run_update()
    }

    /// FNV-1a of each machine's snapshot text, rendered straight into the
    /// hasher, folded in machine order (rotate-left by one, then xor).
    fn state_digest(&self) -> u64 {
        self.cluster.machines().fold(0, |digest: u64, node| {
            let mut h = Fnv1a::new();
            node.role.write_text(&mut h);
            digest.rotate_left(1) ^ h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::streams;

    /// Resident memory of a loaded instance stays within 25% of a plain
    /// container model of the storage machines (2 header words per machine,
    /// 2 per owned vertex, 4 per entry): the arenas spend ~1.125 words per
    /// entry, and the slack between compactions is bounded by the
    /// `live/8 + 16` threshold plus relocation headroom.
    #[test]
    fn storage_resident_within_slack_of_container_model() {
        let n = 128;
        let mut alg = DmpcMaximalMatching::new(DmpcParams::new(n, 3 * n));
        for &u in &streams::churn_stream(n, 2 * n, 384, 0.55, 42) {
            assert!(alg.apply(u).clean());
        }
        let (mut arenas, mut model) = (0, 2 * alg.layout.n_storage);
        for m in alg.cluster.machines() {
            if let Role::Storage(s) = &m.role {
                arenas += s.memory_words();
            }
        }
        for v in 0..n as V {
            let Role::Storage(s) = &alg.cluster.machine(alg.layout.storage_of(v)).role else {
                unreachable!()
            };
            model += 2 + 4 * s.vertex(v).expect("owned").entries.len();
        }
        let resident = alg.resident_words();
        let modelled = resident - arenas + model;
        assert!(
            resident <= modelled + modelled / 4,
            "resident {resident} words exceeds the container model's {modelled} by more than 25%"
        );
    }

    /// A batch cut short by the round limit, while the coordinator waits
    /// for stats replies with the rest of its chunk queued, leaves it idle
    /// with nothing queued: the executor's abort hook reset it.
    #[test]
    fn a_cut_short_batch_leaves_the_coordinator_idle() {
        let n = 128;
        let mut alg = DmpcMaximalMatching::new(DmpcParams::new(n, 3 * n));
        let ups = streams::churn_stream(n, 2 * n, 384, 0.55, 42);
        for &u in &ups[..256] {
            assert!(alg.apply(u).clean());
        }
        alg.cluster.set_round_limit(2);
        assert!(alg.apply_batch(&ups[256..264]).violations > 0);
        let Role::Coord(c) = &alg.cluster.machine(COORDINATOR).role else {
            unreachable!()
        };
        assert!(matches!(c.phase, super::super::coordinator::Phase::Idle));
        assert_eq!(c.queue_len(), 0);
    }
}
