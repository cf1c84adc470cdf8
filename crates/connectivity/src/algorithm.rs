//! Drivers binding the connectivity/MST machine programs to the simulator,
//! plus audits used by the test suite.

use crate::batch::{BatchItem, BatchMsg, BATCH_CTRL};
use crate::machine::{ConnMachine, EntryKind, VertexState};
use crate::messages::ConnMsg;
use crate::preprocess;
use crate::query::QueryMsg;
use crate::shard::MAX_VERTICES;
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_eulertour::indexed::CompId;
use dmpc_graph::streams::coalesce;
use dmpc_graph::{Edge, Query, QueryAnswer, Update, Weight, WeightedUpdate, V};
use dmpc_mpc::chaos::{ChaosKind, Fnv1a};
use dmpc_mpc::text::dec_order_key;
use dmpc_mpc::{
    handoff, BatchMetrics, Cluster, ClusterConfig, ExecOptions, HandoffMsg, MachineId,
    QueryMetrics, UpdateMetrics,
};
use std::collections::{BTreeSet, HashMap};

/// Shared driver for plain connectivity and MST mode.
pub struct ConnDriver {
    cluster: Cluster<ConnMachine>,
    params: DmpcParams,
    /// Driver-side mirror of the machines' partition table (kept in sync
    /// with the `Boundary` broadcasts migrations emit).
    bounds: Vec<V>,
}

impl ConnDriver {
    /// The one constructor: connectivity or MST mode, an executor profile,
    /// and an optional machine-count override (`None` uses the model's
    /// O(sqrt N) count).
    fn new(params: DmpcParams, mst_mode: bool, exec: ExecOptions, machines: Option<usize>) -> Self {
        // Checked once here, before any machine exists, so the shard hot
        // path never has to: tour indexes reach 4n - 4, and the shard
        // stores them in 32-bit columns.
        assert!(
            params.n <= MAX_VERTICES,
            "n = {} exceeds the {MAX_VERTICES}-vertex limit: tour indexes (below 4n) \
             must fit the shard's 32-bit columns",
            params.n
        );
        let machines = machines.unwrap_or_else(|| params.storage_machines()).max(1);
        let block = params.n.div_ceil(machines).max(1);
        let machines = params.n.div_ceil(block); // machines actually used
        let capacity = params.capacity_words();
        let progs = (0..machines as MachineId)
            .map(|id| ConnMachine::new(id, params.n, block, mst_mode, capacity))
            .collect();
        let cfg = ClusterConfig::with_capacity(capacity).with_exec(exec);
        ConnDriver {
            cluster: Cluster::new(progs, cfg),
            params,
            bounds: ConnMachine::uniform_bounds(params.n, block),
        }
    }

    fn owner(&self, v: V) -> MachineId {
        ConnMachine::owner_in(&self.bounds, v)
    }

    fn run(&mut self, to: MachineId, msg: ConnMsg) -> UpdateMetrics {
        self.cluster.inject(to, msg);
        self.cluster.run_update()
    }

    /// Runs one update as its own metered quiescence run.
    fn update(&mut self, u: WeightedUpdate) -> UpdateMetrics {
        let msg = match u {
            WeightedUpdate::Insert(e, w) => ConnMsg::Insert {
                e,
                w,
                lane: None,
                known_owners: None,
            },
            WeightedUpdate::Delete(e) => ConnMsg::Delete { e, lane: None },
        };
        self.run(self.owner(u.edge().u), msg)
    }

    /// Runs one pre-coalesced batch chunk through the two-phase batch
    /// protocol as a single metered quiescence run, folding the
    /// controller's conflict-partition statistics into the metrics.
    fn run_batch_chunk(&mut self, items: Vec<BatchItem>) -> BatchMetrics {
        let k = items.len();
        let mut bm = self.cluster.run_batch(
            std::iter::once((BATCH_CTRL, ConnMsg::Batch(BatchMsg::Start { items }))),
            k,
        );
        if let Some(st) = self.cluster.machine_mut(BATCH_CTRL).take_conflict_stats() {
            bm.conflict_groups += st.groups;
            bm.conflict_depth = bm.conflict_depth.max(st.depth);
            bm.max_lanes = bm.max_lanes.max(st.max_lanes);
        }
        bm
    }

    /// Chunk size for batched execution: the controller's transient batch
    /// state and its classification fan-out must fit the `O(sqrt N)`-word
    /// machine budget, so batches are processed `sqrt N` updates at a time.
    fn batch_chunk(&self) -> usize {
        self.params.sqrt_n().max(1)
    }

    /// Runs one chunk of queries as a single metered wave: every probe is
    /// injected in round 0, owners/rendezvous resolve them concurrently
    /// (see `query.rs`), and the stashed answers are
    /// drained after quiescence. Returns answers index-aligned with `chunk`
    /// plus the raw run metrics (including the per-pair flow map when flow
    /// tracking is on — the metering tests assert O(q) words per wave).
    /// Callers wanting capacity-safe chunking use [`Self::answer_query_batch`].
    pub fn query_wave(&mut self, chunk: &[Query]) -> (Vec<QueryAnswer>, UpdateMetrics) {
        let n_machines = self.cluster.n_machines() as MachineId;
        // During an outage the wave routes around the dead machines: a query
        // whose owner set intersects a dead machine answers `Degraded`
        // locally ("writes pause, reads degrade"); the rest rendezvous on
        // live machines and stay exact, because component labels at live
        // owners are current (writes are paused while any machine is down).
        // `outage` holds the live machines, and exists only during one: the
        // failure-free wave allocates nothing but `wave` and `got`.
        let outage: Option<Vec<MachineId>> = (!self.cluster.all_alive()).then(|| {
            (0..n_machines)
                .filter(|&m| self.cluster.is_alive(m))
                .collect()
        });
        let owner_dead = |v: V| outage.is_some() && !self.cluster.is_alive(self.owner(v));
        let mut wave: Vec<(MachineId, ConnMsg)> = Vec::with_capacity(2 * chunk.len());
        // Answers resolvable without any machine involvement (degenerate or
        // unsupported queries) are zero-round, zero-cost by definition.
        let mut got: Vec<(u32, QueryAnswer)> = Vec::new();
        for (i, &q) in chunk.iter().enumerate() {
            let qid = i as u32;
            let rendezvous = match &outage {
                Some(alive) => alive[qid as usize % alive.len()],
                None => qid % n_machines,
            };
            match q {
                Query::Connected(a, b) if a == b => got.push((qid, QueryAnswer::Bool(true))),
                Query::Connected(a, b) if owner_dead(a) || owner_dead(b) => {
                    got.push((qid, QueryAnswer::Degraded));
                }
                Query::Connected(a, b) => {
                    for probe in [a, b] {
                        wave.push((
                            self.owner(probe),
                            ConnMsg::Query(QueryMsg::ConnProbe {
                                qid,
                                probe,
                                expect: 2,
                                rendezvous,
                            }),
                        ));
                    }
                }
                Query::ComponentOf(v) if owner_dead(v) => {
                    got.push((qid, QueryAnswer::Degraded));
                }
                Query::ComponentOf(v) => wave.push((
                    self.owner(v),
                    ConnMsg::Query(QueryMsg::ConnProbe {
                        qid,
                        probe: v,
                        expect: 1,
                        rendezvous,
                    }),
                )),
                Query::PathMax(u, v) if u == v => {
                    got.push((qid, QueryAnswer::PathMax(None)));
                }
                // Path-max traversals fan out across a component's whole
                // owner set; any dead machine may hold on-path state, so the
                // answer is conservatively degraded during an outage.
                Query::PathMax(_, _) if outage.is_some() => {
                    got.push((qid, QueryAnswer::Degraded));
                }
                Query::PathMax(u, v) => wave.push((
                    self.owner(u),
                    ConnMsg::Query(QueryMsg::PathStart {
                        qid,
                        u,
                        v,
                        rendezvous,
                    }),
                )),
                Query::IsMatched(_) | Query::MatchingSize => {
                    got.push((qid, QueryAnswer::Unsupported));
                }
            }
        }
        self.cluster.inject_batch(wave);
        let m = self.cluster.run_update();
        // Answers are stashed inside `on_messages`, so only stepped
        // machines can hold any; the count assertion below still catches a
        // missing or duplicated one.
        self.cluster
            .for_each_touched_mut(|m| got.extend(m.take_answers()));
        got.sort_unstable_by_key(|&(qid, _)| qid);
        assert_eq!(got.len(), chunk.len(), "query answers missing/duplicated");
        debug_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        (got.into_iter().map(|(_, a)| a).collect(), m)
    }

    /// Answers a batch of queries, chunked so every wave fits the
    /// `O(sqrt N)`-word machine budget: at most `sqrt N` queries per wave
    /// (rendezvous fan-in, like update batches), and at most
    /// `S / (9 * P)` *path-max* queries per wave — a component's root owner
    /// multicasts one 9-word eval to up to `|owners| <= P` machines per
    /// path query, so its per-round send volume is the binding constraint
    /// when many concurrent path queries hit the same component.
    pub fn answer_query_batch(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        let max_chunk = self.batch_chunk();
        let path_budget = match self.cluster.capacity_words() {
            Some(s) => (s / (9 * self.cluster.n_machines().max(1))).max(1),
            None => usize::MAX,
        };
        let mut answers = Vec::with_capacity(queries.len());
        let mut qm = QueryMetrics::default();
        let mut start = 0;
        while start < queries.len() {
            let mut end = start;
            let mut paths = 0usize;
            while end < queries.len() && end - start < max_chunk {
                if matches!(queries[end], Query::PathMax(u, v) if u != v) {
                    if paths == path_budget {
                        break;
                    }
                    paths += 1;
                }
                end += 1;
            }
            let chunk = &queries[start..end];
            let (a, m) = self.query_wave(chunk);
            answers.extend(a);
            qm.absorb_run(&m);
            qm.queries += chunk.len();
            start = end;
        }
        (answers, qm)
    }

    // ----- elasticity & recovery ------------------------------------------

    /// Driver-side partition table (machine `i` owns `bounds[i]..bounds[i+1]`).
    pub fn bounds(&self) -> &[V] {
        &self.bounds
    }

    /// Splits machine `m`'s vertex range in half, migrating the upper half
    /// to its right neighbour (the last machine sheds its lower half to the
    /// left). `None` when the range has fewer than two vertices or the
    /// cluster has a single machine.
    pub fn split_shard(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        let p = self.cluster.n_machines();
        let (lo0, hi0) = (self.bounds[m as usize], self.bounds[m as usize + 1]);
        if p < 2 || hi0 - lo0 < 2 {
            return None;
        }
        let mid = (lo0 + hi0) / 2;
        let (to, lo, hi) = if (m as usize) < p - 1 {
            (m + 1, mid, hi0)
        } else {
            (m - 1, lo0, mid)
        };
        Some(self.migrate(m, to, lo, hi))
    }

    /// Migrates machine `m`'s whole range into its right neighbour (the
    /// last machine merges left), leaving `m` with an empty range — it
    /// keeps its controller/rendezvous roles. `None` when already empty or
    /// the cluster has a single machine.
    pub fn merge_shard(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        let p = self.cluster.n_machines();
        let (lo0, hi0) = (self.bounds[m as usize], self.bounds[m as usize + 1]);
        if p < 2 || lo0 == hi0 {
            return None;
        }
        let to = if (m as usize) < p - 1 { m + 1 } else { m - 1 };
        Some(self.migrate(m, to, lo0, hi0))
    }

    /// Injects one boundary-shift migration at the source and runs it to
    /// quiescence (data chunks, then directory patches — see `machine.rs`,
    /// "elasticity & recovery"). Mirrors the boundary shift locally.
    fn migrate(&mut self, from: MachineId, to: MachineId, lo: V, hi: V) -> UpdateMetrics {
        let (idx, val) = if to == from + 1 { (to, lo) } else { (from, hi) };
        self.bounds[idx as usize] = val;
        let budget = handoff::chunk_budget(self.params.capacity_words());
        self.run(from, ConnMsg::MigrateBegin { to, lo, hi, budget })
    }

    /// Fail-stop kill: the simulator drops all traffic addressed to `m`
    /// (each drop metered as a `DeadMachine` violation) and the machine's
    /// program state is wiped.
    pub fn kill_machine(&mut self, m: MachineId) {
        self.cluster.kill(m);
        self.cluster.machine_mut(m).wipe();
    }

    /// Revives `m` from `snapshot` (its recovered plain-text state,
    /// typically checkpoint + replay on an off-cluster replica): a live
    /// peer ships the text through the snapshot handoff, in budgeted
    /// chunks over the metered message plane; the final chunk installs it.
    pub fn revive_machine(&mut self, m: MachineId, snapshot: &str) -> UpdateMetrics {
        self.cluster.revive(m);
        let peer = (0..self.cluster.n_machines() as MachineId)
            .find(|&p| p != m && self.cluster.is_alive(p))
            .expect("a live peer to stage the handoff");
        let budget = handoff::chunk_budget(self.params.capacity_words());
        self.cluster.machine_mut(peer).handoff.stage(snapshot);
        self.run(peer, ConnMsg::Handoff(HandoffMsg::Begin { to: m, budget }))
    }

    /// True if machine `m` currently accepts messages.
    pub fn is_alive(&self, m: MachineId) -> bool {
        self.cluster.is_alive(m)
    }

    /// Plain-text snapshot of machine `m` (checkpointing; driver-side state
    /// extraction, not metered).
    pub fn snapshot_machine(&self, m: MachineId) -> String {
        self.cluster.machine(m).snapshot_text()
    }

    /// The executor's quiescence cap (legal mid-flight round offsets).
    pub fn round_limit(&self) -> usize {
        self.cluster.round_limit()
    }

    /// Test hook: overrides the executor's quiescence cap, so a test can
    /// abort a run on the round-limit guard at a chosen round.
    #[doc(hidden)]
    pub fn set_round_limit(&mut self, limit: usize) {
        self.cluster.set_round_limit(limit);
    }

    /// Test hook: caps the batch controller at one lane, so a batch's
    /// conflict groups run one after another — the serialized comparator of
    /// `tests/scheduler_diff.rs` (bit-identical outcomes, more rounds).
    #[doc(hidden)]
    pub fn serialize_lanes(&mut self) {
        self.cluster.machine_mut(BATCH_CTRL).serialize_lanes();
    }

    /// Test hook: the machines the most recent run stepped (see
    /// `Cluster::touched`).
    #[doc(hidden)]
    pub fn touched(&self) -> &[MachineId] {
        self.cluster.touched()
    }

    /// Arms a mid-flight chaos event on the underlying cluster.
    pub fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
        self.cluster.arm_in_round(at_round, kind);
    }

    /// Machine-local restore of a single machine from its snapshot, without
    /// metered traffic (the epoch-abort rollback path). The partition-table
    /// mirror is re-synced from the restored snapshot — migrations never run
    /// mid-batch, so this is the same table every machine holds.
    pub fn restore_machine(&mut self, m: MachineId, snap: &str) {
        self.cluster.machine_mut(m).restore_text(snap);
        self.bounds = self.cluster.machine(m).bounds().to_vec();
    }

    /// Digest of the **logical** state: FNV-1a of all `vert`/`adj` snapshot
    /// lines across the cluster, text-sorted and joined by newlines.
    /// Placement (partition table, directory shards) is deliberately
    /// excluded so the digest is invariant under shard migration — a chaos
    /// run with splits/merges still compares bit-for-bit against a
    /// never-migrated baseline. Placement correctness is covered separately
    /// by `audit` / `audit_directory`.
    ///
    /// No text is held or sorted: `'a' < 'v'` puts every `adj` line before
    /// every `vert` line, the `(v)` / `(v, far)` id fields are unique, and
    /// ids order as text by [`dec_order_key`] — so one sort of the owned
    /// vertices by that key, and of each vertex's entries by the key of
    /// their far endpoint, is the text order; each line is rendered from
    /// the shard columns into one reused buffer and folded into the hash.
    pub fn state_digest(&self) -> u64 {
        let mut vertices: Vec<(u64, MachineId, u32)> = Vec::with_capacity(self.params.n);
        for (m, machine) in self.cluster.machines().enumerate() {
            let slots = machine.shard().slots();
            vertices.extend(slots.map(|(slot, v)| (dec_order_key(v), m as MachineId, slot as u32)));
        }
        vertices.sort_unstable();
        let mut h = Fnv1a::new();
        let mut line: Vec<u8> = Vec::new();
        let mut entries: Vec<(u64, u32)> = Vec::new();
        // Every rendered line ends in '\n'; the joined text has one between
        // lines and none at the end, so the last byte of the last line is
        // the one byte left out.
        let mut fold = |line: &mut Vec<u8>, last: bool| {
            h.write(&line[..line.len() - last as usize]);
            line.clear();
        };
        for &(_, m, slot) in &vertices {
            let shard = self.cluster.machine(m).shard();
            shard.entry_order(slot as usize, dec_order_key, &mut entries);
            for &(_, i) in &entries {
                shard.write_adj_line(&mut line, slot as usize, i as usize);
                fold(&mut line, false);
            }
        }
        for (k, &(_, m, slot)) in vertices.iter().enumerate() {
            let shard = self.cluster.machine(m).shard();
            shard.write_vert_line(&mut line, slot as usize);
            fold(&mut line, k + 1 == vertices.len());
        }
        h.finish()
    }

    /// Number of machines in the cluster.
    pub fn n_machines(&self) -> usize {
        self.cluster.n_machines()
    }

    /// Iterate over the machine programs (state extraction and differential
    /// tests — not part of the model).
    pub fn machines(&self) -> impl Iterator<Item = &ConnMachine> {
        self.cluster.machines()
    }

    fn vertex_state(&self, v: V) -> VertexState {
        self.cluster
            .machine(self.owner(v))
            .vertex(v)
            .expect("vertex not found at its owner")
    }

    /// Component label of `v` (result extraction; not a metered query).
    pub fn comp_of(&self, v: V) -> CompId {
        self.vertex_state(v).comp
    }

    /// True if `a` and `b` are connected.
    pub fn connected(&self, a: V, b: V) -> bool {
        self.comp_of(a) == self.comp_of(b)
    }

    /// All component labels (index = vertex).
    pub fn component_labels(&self) -> Vec<CompId> {
        (0..self.params.n as V).map(|v| self.comp_of(v)).collect()
    }

    /// The current spanning forest (edge, weight), extracted from tree
    /// entries at child endpoints.
    pub fn tree_edges(&self) -> Vec<(Edge, Weight)> {
        let mut out = Vec::new();
        for m in self.cluster.machines() {
            for (v, st) in m.vertices() {
                for (&far, &(kind, w)) in &st.adj {
                    if let EntryKind::Tree { lo, .. } = kind {
                        if lo % 2 == 0 {
                            out.push((Edge::new(v, far), w));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Sum of spanning-forest edge weights (the maintained MSF weight).
    pub fn forest_weight(&self) -> Weight {
        self.tree_edges().iter().map(|&(_, w)| w).sum()
    }

    /// Bulk-loads an initial graph (the preprocessing step): computes a
    /// spanning forest and canonical tours centrally and installs the
    /// sharded state. See `preprocess` for the metered simulation of the
    /// paper's O(log n)-round distributed construction.
    pub fn bulk_load(&mut self, edges: &[(Edge, Weight)]) {
        let states = preprocess::build_states(self.params.n, edges);
        // Owner sets, indexed by component id, in the same sweep: states
        // come in vertex order and owners hold ascending vertex ranges, so
        // each set grows ascending and a repeat owner is always its last.
        let mut owner_sets: Vec<Vec<MachineId>> = vec![Vec::new(); self.params.n];
        for (v, st) in states {
            let owner = self.owner(v);
            let set = &mut owner_sets[st.comp as usize];
            if set.last() != Some(&owner) {
                set.push(owner);
            }
            self.cluster.machine_mut(owner).load_vertex(v, st);
        }
        // Install the owner directory at each component's root owner.
        for (comp, set) in owner_sets.into_iter().enumerate() {
            if !set.is_empty() {
                let root = self.owner(comp as V);
                self.cluster
                    .machine_mut(root)
                    .load_dir_entry(comp as CompId, set);
            }
        }
    }

    /// Ground-truth owner set of `v`'s component: every machine owning at
    /// least one of its vertices (state probe for audits/benches, O(n) —
    /// not part of the model).
    pub fn true_owner_set(&self, v: V) -> Vec<MachineId> {
        let comp = self.comp_of(v);
        let mut set = BTreeSet::new();
        for (mid, m) in self.cluster.machines().enumerate() {
            if m.vertices().iter().any(|(_, st)| st.comp == comp) {
                set.insert(mid as MachineId);
            }
        }
        set.into_iter().collect()
    }

    /// The machines owning either endpoint's component — the pre-update
    /// owner footprint a multicast-routed update is allowed to touch
    /// (state probe for audits/benches; O(n)).
    pub fn owner_footprint(&self, e: Edge) -> Vec<MachineId> {
        let mut union = self.true_owner_set(e.u);
        union.extend(self.true_owner_set(e.v));
        union.sort_unstable();
        union.dedup();
        union
    }

    /// True when `u` is structural in the current state: a cross-component
    /// insert (link) or a spanning-tree edge delete (cut). Non-structural
    /// updates never move tour indexes or component ids.
    pub fn is_structural(&self, u: Update) -> bool {
        let e = u.edge();
        match u {
            Update::Insert(_) => self.comp_of(e.u) != self.comp_of(e.v),
            Update::Delete(_) => self
                .cluster
                .machine(self.owner(e.u))
                .vertex(e.u)
                .and_then(|st| st.adj.get(&e.v).copied())
                .is_some_and(|(kind, _)| matches!(kind, EntryKind::Tree { .. })),
        }
    }

    /// Directory audit (tests): every stored owner set lives at its
    /// component's root owner and equals *exactly* the set of machines
    /// owning at least one live vertex of that component; every component
    /// spanning two or more machines has an entry; single-machine
    /// components rely on the implicit `{owner_of(comp)}` fallback, which
    /// must also be exact.
    pub fn audit_directory(&self) -> Result<(), String> {
        let mut truth: HashMap<CompId, BTreeSet<MachineId>> = HashMap::new();
        for (mid, m) in self.cluster.machines().enumerate() {
            for (_, st) in m.vertices() {
                truth.entry(st.comp).or_default().insert(mid as MachineId);
            }
        }
        for (mid, m) in self.cluster.machines().enumerate() {
            for (comp, owners) in m.directory().entries() {
                let root = self.owner(comp as V);
                if root != mid as MachineId {
                    return Err(format!(
                        "directory entry for comp {comp} stored at machine {mid}, \
                         but its root owner is {root}"
                    ));
                }
                if owners.len() < 2 {
                    return Err(format!(
                        "comp {comp}: stored owner set {owners:?} below the explicit-entry \
                         threshold (singletons use the implicit fallback)"
                    ));
                }
                if !truth.contains_key(&comp) {
                    return Err(format!("directory entry for dead comp {comp}"));
                }
            }
        }
        // Every live component's set, as its root owner answers it (the
        // stored set, or the implicit fallback), is exact.
        for (comp, set) in &truth {
            let root = self.owner(*comp as V);
            let expect: Vec<MachineId> = set.iter().copied().collect();
            let owners = self.cluster.machine(root).directory().owners(*comp, &root);
            if owners != expect {
                return Err(format!(
                    "comp {comp}: root owner {root} answers owner set {owners:?}, \
                     true set {expect:?}"
                ));
            }
        }
        Ok(())
    }

    /// Structural audit (tests): every machine's shard layout is sound
    /// (segments inside their arenas, live totals balanced, tree entries
    /// exactly the tree prefix of each segment), component labelling is
    /// consistent, index lists partition each tour, adjacency entries are
    /// symmetric, tree entries pair up parent/child spans (one parent edge
    /// per non-root vertex), and cached far indexes are live.
    pub fn audit(&self) -> Result<(), String> {
        for (mid, m) in self.cluster.machines().enumerate() {
            m.shard()
                .check_layout()
                .map_err(|e| format!("machine {mid}: {e}"))?;
        }
        let n = self.params.n;
        let mut comp: Vec<CompId> = Vec::with_capacity(n);
        let mut size: Vec<u64> = Vec::with_capacity(n);
        let mut idx: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut adj: Vec<HashMap<V, (EntryKind, Weight)>> = vec![HashMap::new(); n];
        for v in 0..n as V {
            let st = self.vertex_state(v);
            comp.push(st.comp);
            size.push(st.size);
            idx.push(st.idx.clone());
            adj[v as usize] = st.adj.iter().map(|(&k, &e)| (k, e)).collect();
        }
        // Group by comp.
        let mut members: HashMap<CompId, Vec<V>> = HashMap::new();
        for v in 0..n as V {
            members.entry(comp[v as usize]).or_default().push(v);
        }
        for (&c, vs) in &members {
            let k = vs.len() as u64;
            let elen = 4 * (k - 1);
            let mut seen = vec![false; elen as usize + 1];
            for &v in vs {
                if size[v as usize] != k {
                    return Err(format!(
                        "vertex {v}: stored size {} but component {c} has {k} members",
                        size[v as usize]
                    ));
                }
                for &i in &idx[v as usize] {
                    if i < 1 || i > elen {
                        return Err(format!("vertex {v}: index {i} out of 1..={elen}"));
                    }
                    if seen[i as usize] {
                        return Err(format!("component {c}: duplicate index {i}"));
                    }
                    seen[i as usize] = true;
                }
            }
            if seen[1..].iter().any(|&s| !s) {
                return Err(format!("component {c}: missing tour positions"));
            }
            // The component id equals the root vertex (f = 1) unless
            // singleton.
            if k > 1 {
                let root = c as V;
                if idx[root as usize].first() != Some(&1) {
                    return Err(format!("component {c}: id is not its root vertex"));
                }
            }
        }
        // Adjacency symmetry and annotations.
        for v in 0..n as V {
            // `Shard::path_max` fetches a vertex's parent edge as *the*
            // child-side (even `lo`) tree entry: a root has none, any other
            // vertex at most one.
            let child_sides = adj[v as usize]
                .values()
                .filter(|(k, _)| matches!(k, EntryKind::Tree { lo, .. } if lo % 2 == 0))
                .count();
            let is_root = idx[v as usize].first().is_none_or(|&f| f == 1);
            if child_sides > usize::from(!is_root) {
                return Err(format!(
                    "vertex {v}: {child_sides} child-side tree entries (root: {is_root})"
                ));
            }
            for (&far, &(kind, w)) in &adj[v as usize] {
                let Some(&(rk, rw)) = adj[far as usize].get(&v) else {
                    return Err(format!("asymmetric edge ({v},{far})"));
                };
                if rw != w {
                    return Err(format!("weight mismatch on ({v},{far})"));
                }
                if comp[v as usize] != comp[far as usize] {
                    return Err(format!("edge ({v},{far}) spans components"));
                }
                match (kind, rk) {
                    (EntryKind::Tree { lo, hi }, EntryKind::Tree { lo: rlo, hi: rhi }) => {
                        // One side must be the inner (child) pair.
                        let child_here = lo % 2 == 0;
                        let (clo, chi, plo, phi) = if child_here {
                            (lo, hi, rlo, rhi)
                        } else {
                            (rlo, rhi, lo, hi)
                        };
                        if plo + 1 != clo || chi + 1 != phi {
                            return Err(format!(
                                "tree edge ({v},{far}) pairs mismatch: child ({clo},{chi}) parent ({plo},{phi})"
                            ));
                        }
                        let cv = if child_here { v } else { far };
                        if idx[cv as usize].first() != Some(&clo)
                            || idx[cv as usize].last() != Some(&chi)
                        {
                            return Err(format!(
                                "tree edge ({v},{far}): child span is not the child's f/l"
                            ));
                        }
                    }
                    (EntryKind::NonTree { cached, far_comp }, EntryKind::NonTree { .. }) => {
                        let cached_valid = idx[far as usize].contains(&cached)
                            || (cached == 0 && idx[far as usize].is_empty());
                        if !cached_valid {
                            return Err(format!(
                                "non-tree edge ({v},{far}): cached index {cached} is not an index of {far}"
                            ));
                        }
                        if far_comp != comp[far as usize] {
                            return Err(format!(
                                "non-tree edge ({v},{far}): far_comp {far_comp} but {far} is in {}",
                                comp[far as usize]
                            ));
                        }
                    }
                    _ => return Err(format!("edge ({v},{far}) tree/non-tree disagreement")),
                }
            }
        }
        Ok(())
    }
}

/// Fully dynamic connectivity in the DMPC model (paper Section 5):
/// O(1) rounds per update, O(sqrt N) active machines, O(sqrt N)
/// communication per round, worst case.
pub struct DmpcConnectivity {
    driver: ConnDriver,
}

impl DmpcConnectivity {
    /// New empty instance, fully metered (flows tracked).
    pub fn new(params: DmpcParams) -> Self {
        Self::with_exec(params, ExecOptions::default())
    }

    /// New empty instance with explicit executor tuning (backend selection,
    /// metering detail) — behaviour is bit-identical across profiles.
    pub fn with_exec(params: DmpcParams, exec: ExecOptions) -> Self {
        DmpcConnectivity {
            driver: ConnDriver::new(params, false, exec, None),
        }
    }

    /// New empty instance with an explicit machine count (the model
    /// default is `params.storage_machines()`; the P sweep at fixed n in
    /// `tests/multicast.rs` pins that the active footprint follows owner
    /// sets, not P).
    pub fn with_cluster(params: DmpcParams, exec: ExecOptions, machines: usize) -> Self {
        DmpcConnectivity {
            driver: ConnDriver::new(params, false, exec, Some(machines)),
        }
    }

    /// Preprocess an initial edge set.
    pub fn bulk_load(&mut self, edges: &[Edge]) {
        let w: Vec<(Edge, Weight)> = edges.iter().map(|&e| (e, 1)).collect();
        self.driver.bulk_load(&w);
    }

    /// The underlying driver (state extraction, audits).
    pub fn driver(&self) -> &ConnDriver {
        &self.driver
    }

    /// Mutable driver access (raw query waves in metering tests — not part
    /// of the model).
    pub fn driver_mut(&mut self) -> &mut ConnDriver {
        &mut self.driver
    }

    /// True if `a` and `b` are currently connected.
    pub fn connected(&self, a: V, b: V) -> bool {
        self.driver.connected(a, b)
    }

    /// Component labels for all vertices.
    pub fn component_labels(&self) -> Vec<CompId> {
        self.driver.component_labels()
    }
}

impl DynamicGraphAlgorithm for DmpcConnectivity {
    type Update = Update;

    fn name(&self) -> &'static str {
        "dmpc-connectivity"
    }

    fn apply(&mut self, u: Update) -> UpdateMetrics {
        self.driver.update(match u {
            Update::Insert(e) => WeightedUpdate::Insert(e, 1),
            Update::Delete(e) => WeightedUpdate::Delete(e),
        })
    }

    /// Batched query plane: `Connected`/`ComponentOf` resolve in two rounds
    /// per wave, `PathMax` in five, all `q` queries of a wave concurrently
    /// (see `query.rs`).
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        self.driver.answer_query_batch(queries)
    }

    fn resident_words(&self) -> usize {
        self.driver.cluster.resident_words()
    }

    fn admission_budget(&self) -> Option<usize> {
        Some(self.driver.batch_chunk())
    }

    /// Genuinely batched execution (machine program, not a loop): the batch
    /// is coalesced to its net updates, then driven through one
    /// classification fan-out per chunk — non-structural updates execute
    /// concurrently in O(1) rounds total, structural ones serialize. The
    /// cost is metered as one run per chunk under the combined load.
    fn apply_batch(&mut self, updates: &[Update]) -> BatchMetrics {
        let net = coalesce(updates);
        let mut bm = BatchMetrics::default();
        for part in net.chunks(self.driver.batch_chunk()) {
            let items = part
                .iter()
                .enumerate()
                .map(|(i, &upd)| BatchItem { upd, seq: i as u32 })
                .collect();
            bm.merge(&self.driver.run_batch_chunk(items));
        }
        // Amortize over the caller's batch: cancelled pairs count as free
        // work the batch absorbed.
        bm.updates = updates.len();
        bm
    }
}

/// Fully dynamic (1+eps)-approximate MST in the DMPC model (paper
/// Section 5.1). Per-update bounds match connectivity; the approximation
/// factor comes only from bucketed preprocessing.
pub struct DmpcMst {
    driver: ConnDriver,
    epsilon: f64,
}

impl DmpcMst {
    /// New empty instance, fully metered; `epsilon` controls preprocessing
    /// bucketing.
    pub fn new(params: DmpcParams, epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        DmpcMst {
            driver: ConnDriver::new(params, true, ExecOptions::default(), None),
            epsilon,
        }
    }

    /// Preprocess an initial weighted edge set with (1+eps) weight
    /// bucketing (Section 5.1).
    pub fn bulk_load(&mut self, edges: &[(Edge, Weight)]) {
        let bucketed = preprocess::bucketize(edges, self.epsilon);
        self.driver.bulk_load(&bucketed);
    }

    /// The underlying driver (state extraction, audits).
    pub fn driver(&self) -> &ConnDriver {
        &self.driver
    }

    /// Mutable driver access (raw query waves in metering tests — not part
    /// of the model).
    pub fn driver_mut(&mut self) -> &mut ConnDriver {
        &mut self.driver
    }

    /// Weight of the maintained spanning forest.
    pub fn forest_weight(&self) -> Weight {
        self.driver.forest_weight()
    }

    /// True if `a` and `b` are currently connected.
    pub fn connected(&self, a: V, b: V) -> bool {
        self.driver.connected(a, b)
    }

    /// Processes a weighted edge insertion.
    pub fn insert(&mut self, e: Edge, w: Weight) -> UpdateMetrics {
        self.driver.update(WeightedUpdate::Insert(e, w))
    }

    /// Processes an edge deletion.
    pub fn delete(&mut self, e: Edge) -> UpdateMetrics {
        self.driver.update(WeightedUpdate::Delete(e))
    }
}

impl DynamicGraphAlgorithm for DmpcMst {
    type Update = WeightedUpdate;

    fn name(&self) -> &'static str {
        "dmpc-mst"
    }

    fn apply(&mut self, u: WeightedUpdate) -> UpdateMetrics {
        self.driver.update(u)
    }

    /// MST mode shares the connectivity query plane; `PathMax` answers come
    /// from the maintained (1+eps)-approximate spanning forest, with weights
    /// reflecting the preprocessing's bucketing for bulk-loaded edges.
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        self.driver.answer_query_batch(queries)
    }

    fn resident_words(&self) -> usize {
        self.driver.cluster.resident_words()
    }

    /// The same `sqrt N` window cap as connectivity, but only as a cap: MST
    /// mode has no batched machine program, so `apply_batch` is the trait's
    /// default loop over [`Self::apply`] and a window of `k` updates costs
    /// `k` quiescence runs, not one round trip. What keeps MST out of the
    /// batch plane: the batch classifier executes an intra-component insert
    /// as non-structural, and `Then::PathMax` (`machine.rs`) carries no lane.
    fn admission_budget(&self) -> Option<usize> {
        Some(self.driver.batch_chunk())
    }
}

/// Both drivers expose the same chaos-plane surface: any machine may fail
/// (the protocol has no distinguished reliable machine — controller and
/// rendezvous roles are recoverable state), snapshots are per-machine
/// plain text, and split/merge are the boundary-shift migrations.
macro_rules! elastic_via_driver {
    ($ty:ty) => {
        impl ElasticAlgorithm for $ty {
            fn n_shards(&self) -> usize {
                self.driver.n_machines()
            }

            fn killable(&self, _m: MachineId) -> bool {
                true
            }

            fn is_alive(&self, m: MachineId) -> bool {
                self.driver.is_alive(m)
            }

            fn round_limit(&self) -> usize {
                self.driver.round_limit()
            }

            fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
                self.driver.arm_in_round(at_round, kind)
            }

            fn restore_machine(&mut self, m: MachineId, snap: &str) {
                self.driver.restore_machine(m, snap)
            }

            fn snapshot_machine(&self, m: MachineId) -> String {
                self.driver.snapshot_machine(m)
            }

            fn kill(&mut self, m: MachineId) {
                self.driver.kill_machine(m)
            }

            fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
                self.driver.revive_machine(m, snap)
            }

            fn split(&mut self, m: MachineId) -> Option<UpdateMetrics> {
                self.driver.split_shard(m)
            }

            fn merge(&mut self, m: MachineId) -> Option<UpdateMetrics> {
                self.driver.merge_shard(m)
            }

            fn state_digest(&self) -> u64 {
                self.driver.state_digest()
            }
        }
    };
}

elastic_via_driver!(DmpcConnectivity);
elastic_via_driver!(DmpcMst);
