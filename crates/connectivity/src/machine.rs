//! The owner-machine program for distributed connectivity/MST.
//!
//! Each machine owns a contiguous block of vertices. For every owned vertex
//! it stores: component id (= root vertex of its tree), component size, the
//! vertex's Euler-tour index list, and its adjacency entries. Tree entries
//! carry the edge's two tour indexes on this endpoint's side (the paper's
//! per-edge annotation); non-tree entries carry one cached tour index of the
//! far endpoint, kept valid under every structural op, so that cut-side
//! classification is local.
//!
//! Machines never send messages to themselves: self-addressed protocol
//! steps execute locally in the same round (local computation is free in
//! the MPC model), which the metering test pins via the flow map.
//!
//! # The owner directory
//!
//! Flows find the machines owning a component through its own module,
//! [`crate::directory`].
//!
//! # The query plane
//!
//! Reads run in their own read-only plane, [`crate::query`].
//!
//! # Batched updates
//!
//! Batches run through their own controller, [`crate::batch`].

use crate::batch::{BatchCtl, BatchItem, BatchMsg, ConflictStats, StructItem, BATCH_CTRL};
use crate::directory::{DirMsg, Directory};
use crate::messages::{ConnMsg, CutReq, PathSpans, Relink, Struct, VertexInfo};
use crate::query::{QueryPlane, Reader};
use crate::shard::Shard;
use dmpc_eulertour::indexed::{CompId, Cut, Link};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, QueryAnswer, Update, Weight, V};
use dmpc_mpc::handoff::Outcome;
use dmpc_mpc::text::{self, put_field, Fields, Sink};
use dmpc_mpc::{Envelope, Handoff, HandoffMsg, Machine, MachineId, Outbox, RoundCtx};
use std::collections::{BTreeMap, VecDeque};

pub use crate::shard::{EntryKind, VertexState};

/// Parked-table key for flows outside any batch lane (single updates, MST
/// inserts and swaps) — exactly one such flow is ever in flight
/// cluster-wide, so one reserved key suffices. Lane ids are dense
/// batch-group indexes and never reach this value.
const SOLO_LANE: u32 = u32::MAX;

/// Rendezvous-side state of an in-flight searching cut.
#[derive(Debug)]
struct PendingCut {
    /// Surviving (parent) side component id.
    comp: CompId,
    /// Detached (child) side component id.
    new_comp: CompId,
    /// Pre-cut owner set (the multicast audience; also the merged set a
    /// replacement link restores).
    old_owners: Vec<MachineId>,
    /// Batch lane of this cut's flow (`None` outside a batch).
    lane: Option<u32>,
}

/// Rendezvous-side state of an in-flight MST path-max query.
#[derive(Debug)]
struct PendingMst {
    /// Candidate new edge.
    e: Edge,
    /// Its weight.
    w: Weight,
    /// The initiating endpoint, `e.u` (its `f` is the non-tree cached
    /// index if the tree is kept; its span rides a swap's re-link).
    x: VertexInfo,
    /// The component's owner set, resolved once and reused by the swap.
    owners: Vec<MachineId>,
}

/// How a rendezvous finishes once its owners' [`ConnMsg::Report`]s are in:
/// [`ConnMachine::finalize_cut`] or [`ConnMachine::finish_path_max`].
#[derive(Debug)]
enum Wait {
    Cut(PendingCut),
    PathMax(PendingMst),
}

impl Wait {
    /// The component's owner set (the multicast audience and this machine)
    /// and the flow's lane (MST path-max flows are never batched).
    fn owners_and_lane(&self) -> (&[MachineId], Option<u32>) {
        match self {
            Wait::Cut(pc) => (&pc.old_owners, pc.lane),
            Wait::PathMax(p) => (&p.owners, None),
        }
    }
}

/// What a structural flow does once its owner set is resolved (see
/// [`ConnMachine::resolve`]).
#[derive(Debug)]
enum Then {
    /// Link a cross-component insert over the union of both sides' sets.
    Link {
        e: Edge,
        w: Weight,
        x: VertexInfo,
        lane: Option<u32>,
    },
    /// Cut a tree edge at its parent endpoint's owner.
    Cut(CutReq),
    /// Multicast an MST intra-component insert's path-max query.
    PathMax { e: Edge, w: Weight, x: VertexInfo },
}

impl Then {
    /// Batch lane of the flow (MST path-max flows are never batched).
    fn lane(&self) -> Option<u32> {
        match self {
            Then::Link { lane, .. } => *lane,
            Then::Cut(req) => req.lane,
            Then::PathMax { .. } => None,
        }
    }
}

/// One owner's [`ConnMsg::Report`] as its rendezvous keeps it: (sender,
/// best candidate, a cut's sides).
type Report = (MachineId, Option<(Edge, Weight)>, Option<[bool; 2]>);

/// A flow parked at this machine until its replies arrive, keyed by lane in
/// `ConnMachine::parked` ([`SOLO_LANE`] for unbatched flows): within one
/// lane at most one structural op is in flight, so one entry per lane
/// suffices, and concurrently waiting lanes never collide. Every reply
/// folds into its lane's entry the moment it arrives.
#[derive(Debug)]
enum Parked {
    /// A structural flow waiting on its owner sets; it resumes at the last
    /// [`DirMsg::Reply`].
    Owners {
        then: Then,
        /// Union of the sets resolved so far.
        acc: Vec<MachineId>,
        /// Outstanding reply count (1 or 2).
        waiting: usize,
    },
    /// A searching cut's or an MST insert's rendezvous: its own report
    /// and the remote [`ConnMsg::Report`]s received so far.
    Rendezvous {
        wait: Wait,
        local: Report,
        reports: Vec<Report>,
    },
}

/// Source-side rest of an in-flight shard migration: the directory patches
/// that follow its data, sent a budget at a time.
#[derive(Debug)]
struct Migration {
    /// The destination, which bounces each [`ConnMsg::MigrateKick`].
    to: MachineId,
    /// Per-round payload budget (words).
    budget: usize,
    /// Directory repair messages still to send.
    patches: VecDeque<(MachineId, DirMsg)>,
}

/// The connectivity/MST owner machine.
pub struct ConnMachine {
    id: MachineId,
    /// Partition table: machine `i` owns vertices `bounds[i]..bounds[i+1]`
    /// (monotone, possibly empty ranges; shared by every machine and kept
    /// in sync by O(1)-word [`ConnMsg::Boundary`] broadcasts on migration).
    bounds: Vec<V>,
    mst_mode: bool,
    verts: Shard,
    /// Owner directory shard: authoritative sets for components rooted in
    /// this machine's block.
    dir: Directory,
    /// Self-addressed messages executed locally within the same round.
    local: VecDeque<ConnMsg>,
    /// Flows waiting here on owner sets or rendezvous reports, keyed by
    /// lane ([`SOLO_LANE`] for unbatched flows).
    parked: BTreeMap<u32, Parked>,
    /// The batch controller (machine 0 only) and the classifier's round
    /// tally.
    batch: BatchCtl,
    /// The query plane's folds and answers at this rendezvous.
    queries: QueryPlane,
    /// Outbound migration in flight (source side).
    migration: Option<Migration>,
    /// The snapshot handoff: a revive's state or a migration's vertices,
    /// waiting to ship, shipping or arriving.
    pub(crate) handoff: Handoff,
}

impl ConnMachine {
    /// Creates the machine with its owned vertex block under machine
    /// capacity `capacity_words` (the model's `S`), from which it derives
    /// its two budgets: the shard compacts its arenas whenever a mutation
    /// would leave it above `S - 32` while slack remains (headroom for the
    /// scalars, directory and transient buffers metered in the same `S`),
    /// and the batch controller keeps at most `S / 64` lanes in flight so
    /// per-lane protocol state and concurrent multicast fan-in stay a small
    /// fraction of it.
    pub fn new(
        id: MachineId,
        n_vertices: usize,
        block: usize,
        mst_mode: bool,
        capacity_words: usize,
    ) -> Self {
        let bounds = Self::uniform_bounds(n_vertices, block);
        let lo = bounds[id as usize];
        let hi = bounds[id as usize + 1];
        let mut verts = Shard::new_range(lo, hi);
        verts.set_soft_cap(capacity_words.saturating_sub(32));
        ConnMachine {
            id,
            bounds,
            mst_mode,
            verts,
            dir: Directory::default(),
            local: VecDeque::new(),
            parked: BTreeMap::new(),
            batch: BatchCtl::new((capacity_words / 64).max(1)),
            queries: QueryPlane::default(),
            migration: None,
            handoff: Handoff::default(),
        }
    }

    /// Test hook behind `ConnDriver::serialize_lanes`: one lane at a time.
    #[doc(hidden)]
    pub fn serialize_lanes(&mut self) {
        self.batch.serialize_lanes();
    }

    /// Takes the statistics of the last completed batch (controller only;
    /// driver-side harvesting after a run, not part of the model).
    pub fn take_conflict_stats(&mut self) -> Option<ConflictStats> {
        self.batch.take_stats()
    }

    /// The initial (uniform `block`-sized) partition table: machine `i`
    /// owns `bounds[i]..bounds[i+1]`. Migrations later move individual
    /// boundaries, so ownership is always a `bounds` lookup, never block
    /// arithmetic.
    pub fn uniform_bounds(n_vertices: usize, block: usize) -> Vec<V> {
        let machines = n_vertices.div_ceil(block).max(1);
        (0..=machines)
            .map(|i| ((i * block).min(n_vertices)) as V)
            .collect()
    }

    /// Owner machine of vertex `v` under a partition table (shared with the
    /// driver's mirror): the unique `i` with
    /// `bounds[i] <= v < bounds[i+1]`, skipping emptied ranges.
    pub fn owner_in(bounds: &[V], v: V) -> MachineId {
        debug_assert!(v < *bounds.last().expect("non-empty bounds"));
        (bounds.partition_point(|&b| b <= v) - 1) as MachineId
    }

    /// This machine's view of the partition table (audits/tests).
    pub fn bounds(&self) -> &[V] {
        &self.bounds
    }

    /// True when nothing [`Machine::abandon_run`] would drop is present
    /// (test hook for the executor's abort contract).
    #[doc(hidden)]
    pub fn transient_is_empty(&self) -> bool {
        self.batch.is_clear() && self.parked.is_empty() && self.queries.is_empty()
    }

    /// Drains the query answers stashed at this rendezvous (driver-side
    /// result extraction after a wave quiesces — not part of the model).
    pub fn take_answers(&mut self) -> Vec<(u32, QueryAnswer)> {
        self.queries.take_answers()
    }

    fn owner(&self, v: V) -> MachineId {
        Self::owner_in(&self.bounds, v)
    }

    /// The machine holding `comp`'s directory entry: the owner of its root
    /// vertex (a component id *is* its root vertex id).
    fn root_owner(&self, comp: CompId) -> MachineId {
        Self::owner_in(&self.bounds, comp as V)
    }

    /// Read access for result extraction and audits (not part of the model).
    pub fn vertex(&self, v: V) -> Option<VertexState> {
        self.verts.vertex(v)
    }

    /// All owned vertex states (materialized; audits/tests only).
    pub fn vertices(&self) -> Vec<(V, VertexState)> {
        self.verts.vertices()
    }

    /// This machine's directory shard (audits; not part of the model).
    pub(crate) fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Direct state injection for bulk loading during preprocessing.
    pub fn load_vertex(&mut self, v: V, st: VertexState) {
        self.verts.load_vertex(v, st);
    }

    /// Installs `comp`'s owner set at its root owner: a
    /// [`DirMsg::Store`], or bulk loading during preprocessing. Sets of
    /// size < 2 are dropped (implicit fallback).
    pub fn load_dir_entry(&mut self, comp: CompId, owners: Vec<MachineId>) {
        debug_assert_eq!(self.root_owner(comp), self.id, "entry at non-root owner");
        self.dir.store(comp, owners);
    }

    // ----- elasticity & recovery ------------------------------------------
    //
    // # Shard migration
    //
    // The driver injects [`ConnMsg::MigrateBegin`] at the source at
    // quiescence. In one round the source (1) moves the partition boundary
    // locally and broadcasts the O(1)-word [`ConnMsg::Boundary`] so every
    // machine routes by the new table from the next round on, (2) extracts
    // the moving vertex states into a plain-text payload, and (3) ships it
    // to the receiver through the snapshot handoff (`dmpc_mpc::handoff`:
    // budgeted chunks, each acked before the next). After the data phase
    // the source drains the *patch phase*:
    // directory repair messages, O(1) words per affected component —
    // complete [`DirMsg::Store`] replacements for components rooted in the
    // source's old range (it held their exact sets), incremental
    // [`DirMsg::Patch`]es to remote root owners for the rest. No global
    // re-broadcast of data ever happens.
    //
    // # Recovery handoff
    //
    // A revive ships a full snapshot the same way: the driver stages the
    // text at a live peer and injects [`HandoffMsg::Begin`] there. The
    // receiver tells the two apart by the text itself: a full snapshot
    // starts with the `connmachine v1` header and replaces its (wiped)
    // state wholesale via [`ConnMachine::restore_text`]; migrated vertex
    // lines merge into its shard.

    /// Fail-stop wipe: drops all program state (the partition table keeps
    /// its last value; a revive handoff overwrites it anyway).
    pub fn wipe(&mut self) {
        self.abandon_run();
        self.verts.clear();
        self.dir = Directory::default();
        self.local.clear();
        self.migration = None;
        self.handoff = Handoff::default();
    }

    /// Plain-text snapshot of the full program state at quiescence
    /// (transient protocol state is empty by definition). Deterministic:
    /// all maps iterate in key order.
    pub fn snapshot_text(&self) -> String {
        text::render(|s| {
            s.put(b"connmachine v1\nid");
            put_field(s, self.id as u64);
            s.put(b"\nmst");
            put_field(s, self.mst_mode as u64);
            // The `routing` line is a fixed part of the v1 format.
            s.put(b"\nrouting m\nbounds");
            for &b in &self.bounds {
                put_field(s, b as u64);
            }
            s.put(b"\n");
            self.verts.write_all(s);
            self.dir.write_lines(s);
        })
    }

    /// The owned vertex shard (the driver streams the state digest from
    /// its columns).
    pub(crate) fn shard(&self) -> &Shard {
        &self.verts
    }

    /// Full state restore from [`ConnMachine::snapshot_text`] output
    /// (recovery). Panics on malformed text — snapshots are produced by
    /// this code, so damage is a transfer-layer bug, not data-dependent.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("connmachine v1"), "snapshot header");
        for line in lines {
            let mut f = Fields::new(line);
            match f.word().expect("non-empty snapshot line") {
                b"id" => {
                    let id: MachineId = f.dec();
                    assert_eq!(
                        id, self.id,
                        "snapshot of machine {id} restored on machine {}",
                        self.id
                    );
                }
                b"mst" => {
                    let mst = f.flag();
                    assert_eq!(
                        mst, self.mst_mode,
                        "snapshot with mst = {mst} restored on machine {} with mst = {}",
                        self.id, self.mst_mode
                    );
                }
                b"routing" => {}
                b"bounds" => self.bounds = std::iter::from_fn(|| f.next_dec()).collect(),
                b"dir" => self.dir.parse_line(&mut f),
                _ => self.verts.parse_line(line),
            }
        }
        self.verts.end_lines();
    }

    /// Source side of [`ConnMsg::MigrateBegin`]: shift the boundary,
    /// broadcast it, extract the moving range, compute directory repairs,
    /// and start shipping the range.
    fn handle_migrate_begin(
        &mut self,
        to: MachineId,
        lo: V,
        hi: V,
        budget: usize,
        ctx: &RoundCtx,
        out: &mut Outbox<ConnMsg>,
    ) {
        let old_lo = self.bounds[self.id as usize];
        let old_hi = self.bounds[self.id as usize + 1];
        debug_assert!(old_lo <= lo && lo < hi && hi <= old_hi, "range not owned");
        debug_assert!(
            to == self.id + 1 || to + 1 == self.id,
            "non-neighbour migration"
        );
        // Moving a suffix right raises the right neighbour's start; moving
        // a prefix left raises our own.
        let (idx, val) = if to == self.id + 1 {
            (to, lo)
        } else {
            (self.id, hi)
        };
        debug_assert!(
            lo == old_lo || hi == old_hi,
            "moved range must touch a boundary"
        );
        self.bounds[idx as usize] = val;
        out.broadcast(ctx.n_machines, ConnMsg::Boundary { idx, val });
        // Extract the moving vertices and serialize them, noting their
        // components for the directory repair first.
        let moved_comps = self.verts.comps_in(lo, hi);
        let text = self.verts.extract_range(lo, hi);
        // Directory repair, one O(1)-word patch per affected component.
        let mut patches = VecDeque::new();
        for comp in moved_comps {
            let remove = (!self.verts.any_in_comp(comp)).then_some(self.id);
            let root = comp as V;
            if old_lo <= root && root < old_hi {
                // Rooted in our old range: we held the exact owner set, so
                // we emit a complete replacement.
                let owners = self.dir.patched(comp, self.id, to, remove);
                if lo <= root && root < hi {
                    // The root vertex moved too: the entry follows it.
                    patches.push_back((to, DirMsg::Store { comp, owners }));
                } else {
                    self.dir.store(comp, owners);
                }
            } else {
                // Rooted remotely: the entry provably exists there (root
                // owner + this machine both owned members), so an
                // incremental add/remove patch suffices.
                let r = self.root_owner(comp);
                debug_assert_ne!(r, self.id);
                let patch = DirMsg::Patch {
                    comp,
                    add: to,
                    remove,
                };
                patches.push_back((r, patch));
            }
        }
        self.migration = Some(Migration {
            to,
            budget,
            patches,
        });
        self.handoff.ship(to, &text, budget, out, ConnMsg::Handoff);
    }

    /// One round of a migration's patch phase, once its data is shipped: up
    /// to one budget's worth of directory patches. When patches remain,
    /// pacing stays stop-and-wait: a [`ConnMsg::MigrateKick`] goes to the
    /// migration destination, which bounces the ack that re-enters this
    /// function next round (a self-message would execute same-round and
    /// defeat the budget — and no machine ever messages itself).
    fn patch_step(&mut self, out: &mut Outbox<ConnMsg>) {
        let Some(mig) = &mut self.migration else {
            return;
        };
        let mut sent = 0usize;
        while let Some((to, msg)) = mig.patches.pop_front() {
            debug_assert_ne!(to, self.id, "patches never target the source");
            sent += msg.size_words();
            out.send(to, ConnMsg::Dir(msg));
            if sent >= mig.budget {
                break;
            }
        }
        if mig.patches.is_empty() {
            self.migration = None;
        } else {
            out.send(mig.to, ConnMsg::MigrateKick);
        }
    }

    /// Feeds one handoff message: the handoff sends its own chunks and
    /// acks; a finished shipment moves a migration on to its patches. A
    /// received text is a revive's full snapshot, which replaces the state,
    /// or a migration's vertex lines, which merge into the shard (directory
    /// repair travels separately, in the patch phase).
    fn handle_handoff(&mut self, from: MachineId, msg: HandoffMsg, out: &mut Outbox<ConnMsg>) {
        match self.handoff.on_message(from, msg, out, ConnMsg::Handoff) {
            Outcome::Pending => {}
            Outcome::Shipped => self.patch_step(out),
            Outcome::Received(text) if text.starts_with("connmachine v1\n") => {
                self.restore_text(&text)
            }
            Outcome::Received(text) => {
                text.lines().for_each(|line| self.verts.parse_line(line));
                self.verts.end_lines();
            }
        }
    }

    // ----- routing helpers ------------------------------------------------

    /// Sends `msg` to `to`, executing locally (same round, free in the MPC
    /// model) when `to` is this machine — no machine ever messages itself.
    fn route(&mut self, to: MachineId, msg: ConnMsg, out: &mut Outbox<ConnMsg>) {
        deliver(self.id, &mut self.local, out, to, msg);
    }

    /// Remote multicast audience for an owner set: the set minus this
    /// machine.
    fn audience(&self, owners: &[MachineId]) -> Vec<MachineId> {
        owners.iter().copied().filter(|&m| m != self.id).collect()
    }

    /// Resolves a component's owner set without communication when
    /// possible: singleton components own exactly their root's owner, and
    /// self-rooted components are answered from the local directory shard.
    fn set_if_local(&self, comp: CompId, size: u64) -> Option<Vec<MachineId>> {
        if size == 1 {
            Some(vec![self.root_owner(comp)])
        } else if self.root_owner(comp) == self.id {
            Some(self.dir.owners(comp, &self.id).to_vec())
        } else {
            None
        }
    }

    // ----- protocol steps -------------------------------------------------

    /// Signals the controller that this lane's structural item finished
    /// (no-op for unbatched flows).
    fn signal_struct_done(&mut self, lane: Option<u32>, out: &mut Outbox<ConnMsg>) {
        if let Some(l) = lane {
            let done = BatchMsg::StructDone { lane: l };
            self.route(BATCH_CTRL, ConnMsg::Batch(done), out);
        }
    }

    /// Starts an insertion at `e.u`'s owner. A replacement link arrives
    /// with the merged component's owner set known; its edge already exists
    /// as a non-tree entry at both owners (the Apply handler converts the
    /// entries to tree entries).
    fn handle_insert(
        &mut self,
        e: Edge,
        w: Weight,
        lane: Option<u32>,
        known_owners: Option<Vec<MachineId>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        debug_assert!(
            known_owners.is_some() || self.verts.adj_get(e.u, e.v).is_none(),
            "duplicate insert {e}"
        );
        let x = self.verts.info(e.u);
        self.route(
            self.owner(e.v),
            ConnMsg::InsQuery {
                e,
                w,
                x,
                lane,
                known_owners,
            },
            out,
        );
    }

    /// Records the intra-component edge `e` as a non-tree entry at the
    /// locally-owned endpoint `y` and ships the matching entry to the far
    /// owner. Shared by the single-update flow and the batch classifier.
    fn add_non_tree_pair(&mut self, e: Edge, w: Weight, x: &VertexInfo, out: &mut Outbox<ConnMsg>) {
        let y = e.other(x.v);
        let y_f = self.verts.f_of(y);
        let owner_x = self.owner(x.v);
        self.verts.adj_set(
            y,
            x.v,
            EntryKind::NonTree {
                cached: x.f,
                far_comp: x.comp,
            },
            w,
        );
        self.route(
            owner_x,
            ConnMsg::AddNonTree {
                e,
                w,
                at: x.v,
                cached_far: y_f,
            },
            out,
        );
    }

    fn handle_ins_query(
        &mut self,
        e: Edge,
        w: Weight,
        x: VertexInfo,
        lane: Option<u32>,
        known_owners: Option<Vec<MachineId>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let y = e.other(x.v);
        let (y_comp, y_size) = (self.verts.comp_of(y), self.verts.size_of(y));
        if y_comp != x.comp {
            // Cross-component: link over the union of both owner sets.
            // Replacement links arrive with the union attached.
            let sides = [(x.comp, x.size), (y_comp, y_size)];
            self.resolve(known_owners, &sides, Then::Link { e, w, x, lane }, out);
        } else if self.mst_mode {
            debug_assert!(lane.is_none(), "MST mode has no batched path");
            // Find the max-weight tree edge on the x..y path first; the
            // query multicast needs the component's owner set.
            self.resolve(None, &[(y_comp, y_size)], Then::PathMax { e, w, x }, out);
        } else {
            self.add_non_tree_pair(e, w, &x, out);
            self.signal_struct_done(lane, out);
        }
    }

    /// The one way a flow learns an owner set. `known` (a set that
    /// travelled with the flow) wins; otherwise each `(comp, size)` set is
    /// answered locally when [`Self::set_if_local`] can, and fetched from
    /// its root owner when not (x's fetch before y's). `then` runs with the
    /// union at once, or parks until the last [`DirMsg::Reply`].
    fn resolve(
        &mut self,
        known: Option<Vec<MachineId>>,
        comps: &[(CompId, u64)],
        then: Then,
        out: &mut Outbox<ConnMsg>,
    ) {
        if let Some(owners) = known {
            return self.resume(then, owners, out);
        }
        let lane = then.lane();
        let mut acc = Vec::new();
        let mut waiting = 0;
        for &(comp, size) in comps {
            match self.set_if_local(comp, size) {
                Some(set) => absorb(&mut acc, set),
                None => {
                    let fetch = ConnMsg::Dir(DirMsg::Fetch { comp, lane });
                    out.send(self.root_owner(comp), fetch);
                    waiting += 1;
                }
            }
        }
        if waiting == 0 {
            self.resume(then, acc, out);
        } else {
            self.park(lane, Parked::Owners { then, acc, waiting });
        }
    }

    /// Parks a flow under its lane until its replies arrive.
    fn park(&mut self, lane: Option<u32>, flow: Parked) {
        let prev = self.parked.insert(lane.unwrap_or(SOLO_LANE), flow);
        debug_assert!(prev.is_none(), "lane {lane:?} is already parked here");
    }

    /// Folds one reply, tagged `lane`, into that lane's parked flow: an
    /// owner set resumes the flow once none is outstanding; a report waits
    /// for [`Self::take_ready`] at the end of the round.
    fn fold_reply(
        &mut self,
        from: MachineId,
        lane: Option<u32>,
        msg: ConnMsg,
        out: &mut Outbox<ConnMsg>,
    ) {
        let key = lane.unwrap_or(SOLO_LANE);
        match (self.parked.get_mut(&key), msg) {
            (
                Some(Parked::Owners { acc, waiting, .. }),
                ConnMsg::Dir(DirMsg::Reply { owners, .. }),
            ) => {
                absorb(acc, owners);
                *waiting -= 1;
                if *waiting == 0 {
                    if let Some(Parked::Owners { then, acc, .. }) = self.parked.remove(&key) {
                        self.resume(then, acc, out);
                    }
                }
            }
            (Some(Parked::Rendezvous { reports, .. }), ConnMsg::Report { best, sides, .. }) => {
                reports.push((from, best, sides))
            }
            (_, msg) => panic!("{msg:?} for lane {lane:?}, which is not waiting on it here"),
        }
    }

    /// Removes the lowest-laned rendezvous whose replies arrived. They all
    /// arrive in one round, so it finalizes on the replies it has (a
    /// reporter killed mid-run leaves the set short).
    fn take_ready(&mut self) -> Option<Parked> {
        let (&key, _) = self.parked.iter().find(|(_, p)| match p {
            Parked::Owners { .. } => false,
            Parked::Rendezvous { reports, .. } => !reports.is_empty(),
        })?;
        self.parked.remove(&key)
    }

    /// Runs a flow's continuation with its owner set resolved.
    fn resume(&mut self, then: Then, owners: Vec<MachineId>, out: &mut Outbox<ConnMsg>) {
        match then {
            Then::Link { e, w, x, lane } => self.link(e, w, &x, owners, lane, out),
            Then::Cut(req) => self.cut(req, owners, out),
            Then::PathMax { e, w, x } => self.launch_path_max(e, w, x, owners, out),
        }
    }

    /// Executes a cross-component link with the merged owner set resolved:
    /// multicasts the Apply, applies locally, and installs the directory
    /// update at the merged root owner.
    fn link(
        &mut self,
        e: Edge,
        w: Weight,
        x: &VertexInfo,
        union: Vec<MachineId>,
        lane: Option<u32>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let y = self.verts.info(e.other(x.v));
        let (reroot_l_y, link) = link_of(x, &y);
        let s = Struct::Link {
            link,
            reroot_l_y,
            merged_size: x.size + y.size,
            weight: w,
        };
        for m in self.audience(&union) {
            out.send(m, ConnMsg::Apply(s));
        }
        self.verts.apply(&s);
        self.store_merged(x.comp, y.comp, union, out);
        self.signal_struct_done(lane, out);
    }

    /// A link's directory update: the merged component keeps `a`'s id and
    /// takes the set `union`; `b`'s id is absorbed (a store of the empty
    /// set drops it).
    fn store_merged(
        &mut self,
        a: CompId,
        b: CompId,
        union: Vec<MachineId>,
        out: &mut Outbox<ConnMsg>,
    ) {
        for (comp, owners) in [(a, union), (b, Vec::new())] {
            let store = DirMsg::Store { comp, owners };
            self.route(self.root_owner(comp), ConnMsg::Dir(store), out);
        }
    }

    fn handle_delete(&mut self, e: Edge, lane: Option<u32>, out: &mut Outbox<ConnMsg>) {
        let (kind, _w) = self
            .verts
            .adj_get(e.u, e.v)
            .unwrap_or_else(|| panic!("delete of absent edge {e}"));
        match kind {
            EntryKind::NonTree { .. } => {
                self.delete_non_tree(e, out);
                self.signal_struct_done(lane, out);
            }
            EntryKind::Tree { lo, hi } => self.cut_tree_edge(e, (lo, hi), None, lane, None, out),
        }
    }

    /// Drops non-tree edge `e` at `e.u` (owned here) and at `e.v`'s owner.
    /// Shared by the single-update flow and the batch classifier.
    fn delete_non_tree(&mut self, e: Edge, out: &mut Outbox<ConnMsg>) {
        self.verts.adj_remove(e.u, e.v);
        self.route(self.owner(e.v), ConnMsg::DelNonTree { e, at: e.v }, out);
    }

    /// The one tree-cut entry, at the owner of `e.u`, whose entry for tree
    /// edge `e` spans `lo..=hi`: a deleting cut (`relink: None`) removes
    /// the edge and searches for a replacement, an MST swap keeps it as a
    /// non-tree edge and links the new edge in the same multicast. An even
    /// `lo` makes `e.u` the child, so the parent's owner must compute the
    /// surviving parent index: the request travels there.
    fn cut_tree_edge(
        &mut self,
        e: Edge,
        (lo, hi): (TourIx, TourIx),
        relink: Option<Relink>,
        lane: Option<u32>,
        owners: Option<Vec<MachineId>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let (parent, fy, ly) = if lo % 2 == 0 {
            (e.v, lo, hi)
        } else {
            (e.u, lo + 1, hi - 1)
        };
        let req = CutReq {
            e,
            parent,
            fy,
            ly,
            relink,
            lane,
        };
        if parent == e.u {
            self.resolve_cut(req, owners, out);
        } else {
            self.route(
                self.owner(parent),
                ConnMsg::NeedParentCut { req, owners },
                out,
            );
        }
    }

    /// At the parent endpoint's owner: resolve the cut component's owner
    /// set, then [`Self::cut`]. `set_if_local` is exact here because a
    /// component with a tree edge has at least two vertices.
    fn resolve_cut(
        &mut self,
        req: CutReq,
        owners: Option<Vec<MachineId>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let (comp, size) = (
            self.verts.comp_of(req.parent),
            self.verts.size_of(req.parent),
        );
        self.resolve(owners, &[(comp, size)], Then::Cut(req), out);
    }

    /// Executes a cut with the owner set resolved. A deleting cut
    /// multicasts its Apply, applies locally, and gathers the reports as
    /// its rendezvous; an MST swap's cut travels with its link
    /// ([`Self::swap`]).
    fn cut(&mut self, req: CutReq, owners: Vec<MachineId>, out: &mut Outbox<ConnMsg>) {
        let CutReq {
            e,
            parent,
            fy,
            ly,
            relink,
            lane,
        } = req;
        let child = e.other(parent);
        let comp = self.verts.comp_of(parent);
        let span = (ly - fy + 1) + 2;
        // The parent's surviving indexes after the cut, ascending: the list
        // is, and the map keeps the order of the indexes outside fy-1..=ly+1.
        let mut kept = self
            .verts
            .idx_of(parent)
            .filter(|&s| s != fy - 1 && s != ly + 1)
            .map(|s| if s > ly { s - span } else { s });
        let x_after = kept.next().unwrap_or(0);
        let cut = Cut {
            comp,
            x: parent,
            y: child,
            fy,
            ly,
            new_comp: child,
        };
        if let Some(r) = relink {
            debug_assert!(lane.is_none(), "MST mode has no batched path");
            let x_last = kept.last().unwrap_or(x_after);
            return self.swap(cut, (x_after, x_last), r, owners, out);
        }
        let s = Struct::Cut {
            cut,
            x_after,
            rendezvous: self.id,
            lane,
        };
        let wait = Wait::Cut(PendingCut {
            comp,
            new_comp: child,
            old_owners: owners,
            lane,
        });
        let o = self.verts.apply(&s);
        let local = (self.id, o.best, Some([o.owns_parent, o.owns_child]));
        self.rendezvous(ConnMsg::Apply(s), wait, local, out);
    }

    /// The one rendezvous step: multicasts `query` to the wait's remote
    /// owners, each of which answers with a [`ConnMsg::Report`], and
    /// finishes at once on its `local` report when there are none; else it
    /// parks until the reports arrive (all in the round after the
    /// multicast).
    fn rendezvous(&mut self, query: ConnMsg, wait: Wait, local: Report, out: &mut Outbox<ConnMsg>) {
        let (owners, lane) = wait.owners_and_lane();
        let remote = self.audience(owners);
        for &m in &remote {
            out.send(m, query.clone());
        }
        let reports = Vec::new();
        if remote.is_empty() {
            self.finish(wait, local, reports, out);
        } else {
            let flow = Parked::Rendezvous {
                wait,
                local,
                reports,
            };
            self.park(lane, flow);
        }
    }

    /// Finishes a rendezvous on its own and the remote reports.
    fn finish(
        &mut self,
        wait: Wait,
        local: Report,
        mut reports: Vec<Report>,
        out: &mut Outbox<ConnMsg>,
    ) {
        // Fewer reports than audience members means a reporter was killed
        // in this run: the executor ends such a run with `abandon_run`, and
        // the epoch fence rolls it back, so whatever this finish starts is
        // discarded.
        debug_assert!(
            reports.len() < wait.owners_and_lane().0.len(),
            "more reports than audience"
        );
        reports.push(local);
        match wait {
            Wait::Cut(pc) => self.finalize_cut(pc, reports, out),
            Wait::PathMax(p) => self.finish_path_max(p, reports, out),
        }
    }

    /// Executes an MST swap at its cut's executor, which owns the parent
    /// endpoint and knows its span `(x_after, x_last)` after the cut. It
    /// places both endpoints of the new edge after the cut from their
    /// pre-cut spans, builds the link [`Self::link`] would build there,
    /// multicasts cut and link as one [`Struct::Swap`], applies it, and
    /// sends the directory stores the link would send.
    fn swap(
        &mut self,
        cut: Cut,
        (x_after, x_last): (TourIx, TourIx),
        r: Relink,
        owners: Vec<MachineId>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let Cut {
            comp,
            x: parent,
            y: child,
            fy,
            ly,
            ..
        } = cut;
        let size = self.verts.size_of(parent);
        // The detached side: the child's subtree, of k vertices.
        let k = (ly - fy).div_ceil(4);
        let span = (ly - fy + 1) + 2;
        let after = |v: V, (f, l): (TourIx, TourIx)| {
            let (side, side_size, f, l) = if v == parent {
                (comp, size - k, x_after, x_last)
            } else if v == child {
                // The detached side's root: its tour is 1..=4(k-1).
                let (f, l) = if k == 1 { (0, 0) } else { (1, 4 * (k - 1)) };
                (child, k, f, l)
            } else if fy < f && l < ly {
                (child, k, f - fy, l - fy)
            } else {
                let map = |s| if s > ly { s - span } else { s };
                (comp, size - k, map(f), map(l))
            };
            VertexInfo {
                v,
                comp: side,
                size: side_size,
                f,
                l,
            }
        };
        let x = after(r.e.u, r.spans[0]);
        let y = after(r.e.v, r.spans[1]);
        let (reroot_l_y, link) = link_of(&x, &y);
        let s = Struct::Swap {
            cut,
            x_after,
            link,
            reroot_l_y,
            weight: r.w,
        };
        for m in self.audience(&owners) {
            out.send(m, ConnMsg::Apply(s));
        }
        self.verts.apply(&s);
        self.store_merged(x.comp, y.comp, owners, out);
    }

    /// A searching cut's finish on every owner's report, the rendezvous'
    /// own included: it links the lightest crossing edge as an insert that
    /// restores the old owner set, or, with none, installs the refined
    /// sets of the two sides.
    fn finalize_cut(&mut self, pc: PendingCut, reports: Vec<Report>, out: &mut Outbox<ConnMsg>) {
        let best = reports
            .iter()
            .filter_map(|&(_, b, _)| b)
            .map(|(e, w)| (w, e))
            .min();
        let lane = pc.lane;
        if let Some((w, e)) = best {
            let known_owners = Some(pc.old_owners);
            let link = ConnMsg::Insert {
                e,
                w,
                lane,
                known_owners,
            };
            return self.route(self.owner(e.u), link, out);
        }
        // No replacement: the component stays split. Refine the directory
        // from the membership the reports carried.
        let (mut parent, mut child) = (Vec::new(), Vec::new());
        for (m, _, sides) in reports {
            let [op, oc] = sides.expect("a cut report carries its sides");
            if op {
                parent.push(m);
            }
            if oc {
                child.push(m);
            }
        }
        for (comp, mut owners) in [(pc.comp, parent), (pc.new_comp, child)] {
            owners.sort_unstable();
            let store = DirMsg::Store { comp, owners };
            self.route(self.root_owner(comp), ConnMsg::Dir(store), out);
        }
        self.signal_struct_done(lane, out);
    }

    /// Multicasts the path-max query to the component's owner set and
    /// gathers the on-path maxima as its rendezvous.
    fn launch_path_max(
        &mut self,
        e: Edge,
        w: Weight,
        x: VertexInfo,
        owners: Vec<MachineId>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let y = self.verts.info(e.other(x.v));
        let path = PathSpans {
            comp: y.comp,
            fx: x.f,
            lx: x.l,
            fy: y.f,
            ly: y.l,
        };
        let query = ConnMsg::PathMaxQuery {
            path,
            rendezvous: self.id,
        };
        let local = (self.id, self.verts.path_max(&path), None);
        let wait = Wait::PathMax(PendingMst { e, w, x, owners });
        self.rendezvous(query, wait, local, out);
    }

    /// An MST insert's finish on every owner's on-path maximum: it swaps
    /// out the heaviest path edge if `e` is lighter, or keeps the tree.
    fn finish_path_max(&mut self, p: PendingMst, reports: Vec<Report>, out: &mut Outbox<ConnMsg>) {
        let PendingMst { e, w, x, owners } = p;
        match heaviest(reports.into_iter().map(|(_, best, _)| best)) {
            Some((d, dw)) if dw > w => {
                // Swap: demote d and link e in one multicast, executed at
                // d's parent endpoint owner. The owner set and the spans of
                // e's endpoints ride along (this machine owns e.v, and x is
                // e.u: MST flows run one at a time, so both are current).
                debug_assert_eq!(x.v, e.u, "the insert starts at e.u");
                let y = self.verts.info(e.v);
                let relink = Relink {
                    e,
                    w,
                    spans: [(x.f, x.l), (y.f, y.l)],
                };
                let swap = ConnMsg::StartSwap { d, relink, owners };
                self.route(self.owner(d.u), swap, out);
            }
            // Keep the tree; e becomes a non-tree edge. `x.comp` is still
            // y's component: MST flows run one at a time.
            _ => self.add_non_tree_pair(e, w, &x, out),
        }
    }

    fn handle_start_swap(
        &mut self,
        d: Edge,
        relink: Relink,
        owners: Vec<MachineId>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let (kind, _) = self.verts.adj_get(d.u, d.v).expect("swap edge missing");
        let EntryKind::Tree { lo, hi } = kind else {
            panic!("swap target {d} is not a tree edge");
        };
        self.cut_tree_edge(d, (lo, hi), Some(relink), None, Some(owners), out);
    }

    // ----- batch classifier (the controller is `crate::batch`) ----------

    /// Owner: classify this machine's share of the batch. Non-tree deletes
    /// execute on the spot; inserts are forwarded to the far endpoint's
    /// owner for the component comparison; tree deletes are reported
    /// structural.
    fn handle_batch_classify(&mut self, items: Vec<BatchItem>, out: &mut Outbox<ConnMsg>) {
        for item in items {
            match item.upd {
                Update::Insert(e) => {
                    debug_assert!(
                        self.verts.adj_get(e.u, e.v).is_none(),
                        "duplicate insert {e} in batch"
                    );
                    let x = self.verts.info(e.u);
                    self.route(
                        self.owner(e.v),
                        ConnMsg::Batch(BatchMsg::InsClassify {
                            e,
                            w: 1,
                            x,
                            seq: item.seq,
                        }),
                        out,
                    );
                }
                Update::Delete(e) => {
                    let (kind, _w) = self
                        .verts
                        .adj_get(e.u, e.v)
                        .unwrap_or_else(|| panic!("delete of absent edge {e} in batch"));
                    match kind {
                        EntryKind::NonTree { .. } => {
                            self.delete_non_tree(e, out);
                            self.batch.tally.done += 1;
                        }
                        EntryKind::Tree { .. } => {
                            // A cut touches one component (twice).
                            let c = self.verts.comp_of(e.u);
                            let s = StructItem { item, ca: c, cb: c };
                            self.batch.tally.structural.push(s);
                        }
                    }
                }
            }
        }
    }

    /// Far owner: classify one insert. Intra-component inserts execute
    /// immediately (they only add non-tree entries); cross-component
    /// inserts are structural links.
    fn handle_batch_ins_classify(
        &mut self,
        e: Edge,
        w: Weight,
        x: VertexInfo,
        seq: u32,
        out: &mut Outbox<ConnMsg>,
    ) {
        let y = e.other(x.v);
        let cb = self.verts.comp_of(y);
        if cb == x.comp {
            self.add_non_tree_pair(e, w, &x, out);
            self.batch.tally.done += 1;
        } else {
            self.batch.tally.structural.push(StructItem {
                item: BatchItem {
                    upd: Update::Insert(e),
                    seq,
                },
                ca: x.comp,
                cb,
            });
        }
    }

    /// Dispatches one protocol message (from the inbox or the local queue).
    fn dispatch(&mut self, msg: ConnMsg, ctx: &RoundCtx, out: &mut Outbox<ConnMsg>) {
        match msg {
            ConnMsg::Insert {
                e,
                w,
                lane,
                known_owners,
            } => self.handle_insert(e, w, lane, known_owners, out),
            ConnMsg::Delete { e, lane } => self.handle_delete(e, lane, out),
            ConnMsg::InsQuery {
                e,
                w,
                x,
                lane,
                known_owners,
            } => self.handle_ins_query(e, w, x, lane, known_owners, out),
            ConnMsg::AddNonTree {
                e,
                w,
                at,
                cached_far,
            } => {
                let far = e.other(at);
                let comp = self.verts.comp_of(at);
                self.verts.adj_set(
                    at,
                    far,
                    EntryKind::NonTree {
                        cached: cached_far,
                        far_comp: comp,
                    },
                    w,
                );
            }
            ConnMsg::DelNonTree { e, at } => {
                let far = e.other(at);
                self.verts.adj_remove(at, far);
            }
            ConnMsg::NeedParentCut { req, owners } => self.resolve_cut(req, owners, out),
            ConnMsg::PathMaxQuery { path, rendezvous } => {
                debug_assert_ne!(rendezvous, self.id, "the rendezvous answers locally");
                let best = self.verts.path_max(&path);
                // A path max splits nothing, and MST flows are never batched.
                let (sides, lane) = (None, None);
                out.send(rendezvous, ConnMsg::Report { best, sides, lane });
            }
            ConnMsg::StartSwap { d, relink, owners } => {
                self.handle_start_swap(d, relink, owners, out)
            }
            ConnMsg::Dir(DirMsg::Fetch { .. } | DirMsg::Reply { .. })
            | ConnMsg::Report { .. }
            | ConnMsg::Apply(_) => {
                unreachable!("handled before dispatch")
            }
            ConnMsg::Dir(DirMsg::Store { comp, owners }) => self.load_dir_entry(comp, owners),
            ConnMsg::Dir(DirMsg::Patch { comp, add, remove }) => {
                debug_assert_eq!(self.root_owner(comp), self.id);
                let owners = self.dir.patched(comp, self.id, add, remove);
                self.dir.store(comp, owners);
            }
            ConnMsg::Query(q) => {
                // A split borrow: the step reads the shard, the directory
                // and the partition table, and writes only the plane.
                let at = Reader {
                    id: self.id,
                    bounds: &self.bounds,
                    verts: &self.verts,
                    dir: &self.dir,
                };
                let local = &mut self.local;
                self.queries.handle(q, &at, |to, q| {
                    deliver(at.id, local, out, to, ConnMsg::Query(q))
                });
            }
            ConnMsg::Batch(BatchMsg::Classify { items }) => self.handle_batch_classify(items, out),
            ConnMsg::Batch(BatchMsg::InsClassify { e, w, x, seq }) => {
                self.handle_batch_ins_classify(e, w, x, seq, out)
            }
            ConnMsg::Batch(b) => {
                assert_eq!(self.id, BATCH_CTRL, "batches run at the controller");
                // A split borrow: the controller reads the partition table
                // and writes only its own state.
                let (id, local) = (self.id, &mut self.local);
                self.batch
                    .handle(b, &self.bounds, |to, m| deliver(id, local, out, to, m));
            }
            ConnMsg::MigrateBegin { to, lo, hi, budget } => {
                self.handle_migrate_begin(to, lo, hi, budget, ctx, out)
            }
            ConnMsg::Boundary { .. } | ConnMsg::Handoff(_) | ConnMsg::MigrateKick => {
                unreachable!("handled before dispatch")
            }
        }
    }
}

/// Sends `msg` from machine `id` to `to`, queueing it on `local` (same
/// round, free in the MPC model) when `to` is `id` itself: no machine ever
/// messages itself.
fn deliver(
    id: MachineId,
    local: &mut VecDeque<ConnMsg>,
    out: &mut Outbox<ConnMsg>,
    to: MachineId,
    msg: ConnMsg,
) {
    if to == id {
        local.push_back(msg);
    } else {
        out.send(to, msg);
    }
}

/// Merges `set` into the owner-set union `acc`. The first set is taken as
/// is (directory sets are already sorted, so a lone set costs no sort);
/// each later one leaves `acc` sorted and deduplicated.
fn absorb(acc: &mut Vec<MachineId>, set: Vec<MachineId>) {
    if acc.is_empty() {
        *acc = set;
    } else {
        acc.extend(set);
        acc.sort_unstable();
        acc.dedup();
    }
}

/// The link of `x`'s and `y`'s components, `y`'s absorbed ([`Link::new`]),
/// as it travels: the reroot of `y`'s side as its `l(y)`, then the link.
fn link_of(x: &VertexInfo, y: &VertexInfo) -> (Option<TourIx>, Link) {
    let elen_b = 4 * (y.size - 1);
    let (reroot, link) = Link::new(x.comp, x.v, x.f, y.comp, y.v, elen_b, (y.f, y.l));
    (reroot.map(|r| r.l_y), link)
}

/// The path maximum of some candidates, the one order the update path and
/// the query plane share: the heavier edge wins, ties go to the smaller.
pub(crate) fn heaviest(
    cands: impl IntoIterator<Item = Option<(Edge, Weight)>>,
) -> Option<(Edge, Weight)> {
    cands
        .into_iter()
        .flatten()
        .max_by_key(|&(e, w)| (w, std::cmp::Reverse(e)))
}

impl Machine for ConnMachine {
    type Msg = ConnMsg;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<ConnMsg>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        debug_assert!(self.local.is_empty(), "local queue drains every round");
        // Structural Applies first, so follow-up protocol steps delivered in
        // the same round see post-op state; then directory fetches (served
        // from pre-dispatch state), then everything else. The inbox is
        // partitioned in place: the first pass consumes what it handles.
        inbox.retain(|env| match env.msg {
            ConnMsg::Apply(s) => {
                let o = self.verts.apply(&s);
                if let Struct::Cut {
                    rendezvous, lane, ..
                } = s
                {
                    debug_assert_ne!(rendezvous, self.id, "the rendezvous applies locally");
                    let sides = Some([o.owns_parent, o.owns_child]);
                    let best = o.best;
                    out.send(rendezvous, ConnMsg::Report { best, sides, lane });
                }
                false
            }
            // Partition-table shifts apply before anything else this
            // round (in particular before the migration chunk that may
            // arrive alongside), so routing is consistent immediately.
            ConnMsg::Boundary { idx, val } => {
                self.bounds[idx as usize] = val;
                false
            }
            _ => true,
        });
        for env in inbox.drain(..) {
            match env.msg {
                ConnMsg::Handoff(h) => self.handle_handoff(env.from, h, out),
                // Patch-phase pacing bounce: ack so the source's next
                // budgeted patch round fires (see `patch_step`).
                ConnMsg::MigrateKick => out.send(env.from, ConnMsg::Handoff(HandoffMsg::Ack)),
                ConnMsg::Dir(DirMsg::Fetch { comp, lane }) => {
                    debug_assert_eq!(self.root_owner(comp), self.id, "fetch at non-root owner");
                    let owners = self.dir.owners(comp, &self.id).to_vec();
                    let reply = DirMsg::Reply { comp, owners, lane };
                    out.send(env.from, ConnMsg::Dir(reply));
                }
                msg @ (ConnMsg::Dir(DirMsg::Reply { lane, .. }) | ConnMsg::Report { lane, .. }) => {
                    self.fold_reply(env.from, lane, msg, out)
                }
                msg => self.dispatch(msg, ctx, out),
            }
        }
        // Fixpoint: locally-routed steps, rendezvous finalizations (lanes in
        // ascending order) and the classification report can each enqueue
        // more local work; everything here is same-round local computation
        // (free in the MPC model).
        loop {
            if let Some(msg) = self.local.pop_front() {
                self.dispatch(msg, ctx, out);
                continue;
            }
            if let Some(flow) = self.take_ready() {
                let Parked::Rendezvous {
                    wait,
                    local,
                    reports,
                } = flow
                else {
                    unreachable!("a fetch resumes at its last reply")
                };
                self.finish(wait, local, reports, out);
                continue;
            }
            if let Some(report) = self.batch.take_report() {
                self.route(BATCH_CTRL, ConnMsg::Batch(report), out);
                continue;
            }
            break;
        }
    }

    fn memory_words(&self) -> usize {
        let mut words = 4 + self.verts.memory_words() + self.dir.memory_words();
        words += self.batch.memory_words();
        // Parked flows (replies are round-local: a rendezvous finalizes in
        // the round they arrive).
        for p in self.parked.values() {
            words += match p {
                Parked::Owners { acc, .. } => 4 + acc.len(),
                Parked::Rendezvous { wait, .. } => match wait {
                    Wait::Cut(pc) => 4 + pc.old_owners.len(),
                    Wait::PathMax(p) => 6 + p.owners.len(),
                },
            };
        }
        words += self.queries.memory_words();
        // Recovery plane: the handoff's words, then a migration's queued
        // directory patches. A migration's destination and budget are the
        // shipment's 2-word header while its data ships, and its own after.
        words += self.handoff.memory_words();
        if let Some(mig) = &self.migration {
            if !self.handoff.is_shipping() {
                words += 2;
            }
            for (_, msg) in &mig.patches {
                words += 1 + msg.size_words();
            }
        }
        words
    }

    /// Drops the controller, rendezvous, fetch and query state a cut-short
    /// run strands, so later runs are neither charged phantom memory for
    /// it nor sent spurious completion signals.
    fn abandon_run(&mut self) {
        self.batch.clear();
        self.parked.clear();
        self.queries.clear();
    }
}
