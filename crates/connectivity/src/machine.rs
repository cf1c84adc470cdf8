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
//! # The owner directory
//!
//! Structural ops (links, tree cuts) and replacement-edge searches only
//! concern machines owning at least one vertex of the affected components,
//! so the paper's Table 1 charges them O(sqrt N) *active* machines — not
//! all P. To address them, the cluster maintains a **component-owner
//! directory**: for every component, the machine owning its *root vertex*
//! (derivable locally, because a component id is its root vertex id) holds
//! the sorted set of machines owning >= 1 of its vertices. Components whose
//! owner set is a single machine store nothing — the implicit fallback
//! `{owner_of(comp)}` is exact, because a component confined to one machine
//! is confined to its root's owner.
//!
//! Every flow that needs a set gets it one way, `ConnMachine::resolve`: a
//! set the flow already carries wins; otherwise each component's set is
//! answered locally (singletons and self-rooted components) or fetched with
//! one O(1)-round [`ConnMsg::DirFetch`] round-trip to its root owner. The
//! flow's continuation (a link, a cut, or an MST path-max query) runs at
//! once, or parks under its lane until the last [`ConnMsg::DirReply`].
//!
//! Maintenance mirrors the structural flow that is already running:
//!
//! * **Links** merge: the initiator resolves both sides' sets, multicasts
//!   the O(1)-word [`ConnMsg::Apply`] to the union, and installs the union at
//!   the merged root owner ([`ConnMsg::DirStore`]) while dropping the
//!   absorbed id ([`ConnMsg::DirDrop`]).
//! * **Deleting cuts** refine: every owner's [`ConnMsg::CutReport`] to the
//!   rendezvous carries which sides of the tour-interval split it still
//!   owns, so when no replacement exists the rendezvous installs the two
//!   refined sets. When a replacement *is* found, the re-link restores the
//!   pre-cut component exactly, so the rendezvous hands the old set to the
//!   link flow instead ([`ConnMsg::StartLink`] carries it) and no
//!   refinement round is needed.
//! * **MST swap cuts** (demote + immediate re-link) leave the owner set
//!   unchanged, so the set resolved once for the path-max query rides along
//!   the whole swap ([`ConnMsg::StartSwap`] / [`ConnMsg::NeedParentCut`]).
//!   A deleting cut and a swap's demote enter through the same tree-cut
//!   step, which hands a [`CutReq`] to the parent endpoint's owner.
//!
//! Owner sets are O(sqrt N) words but only ever travel point-to-point; the
//! multicast payloads stay O(1) words, keeping per-update communication at
//! O(sqrt N) total. (The all-machine broadcast this replaced ran the
//! identical protocol and merely over-addressed the multicasts; its totals
//! are frozen beside multicast's in `tests/golden_digests.rs`.)
//!
//! Machines never send messages to themselves: self-addressed protocol
//! steps execute locally in the same round (local computation is free in
//! the MPC model), which the metering test pins via the flow map.
//!
//! # The query plane
//!
//! Reads run in their own read-only plane, [`crate::query`].
//!
//! # Batched updates
//!
//! A batch of `k` pre-coalesced updates (at most one op per edge; see
//! `dmpc_graph::streams::coalesce`) is injected as [`ConnMsg::BatchStart`]
//! at the *batch controller* — machine 0, which plays this role in addition
//! to owning its vertex block. The batch runs in two phases:
//!
//! 1. **Classification fan-out (concurrent).** The controller ships each
//!    owner its share of the batch. Owners classify deletes locally (tree /
//!    non-tree) and forward inserts to the far endpoint's owner for a
//!    component comparison. Every *non-structural* update — a non-tree
//!    delete, or an intra-component insert — executes immediately; these
//!    commute because they never touch tour indexes, component ids, or
//!    sizes, and coalescing guarantees edge-disjointness. Classifiers
//!    report counts (and the leftover structural items) to the controller.
//! 2. **Conflict-group scheduling.** Links and tree cuts change tour
//!    indexes, component ids and sizes — but only of the components they
//!    touch. The classifiers report each structural leftover with the
//!    pre-batch component pair it touches, and the controller partitions
//!    the items into *conflict groups* (union-find over those pairs, see
//!    `dmpc_graph::conflict`). Items of one group run serialized, in batch
//!    order, as one protocol *lane*; disjoint groups run concurrently, each
//!    lane's waiting flow (an owner-set fetch, a cut's or an MST insert's
//!    rendezvous) parked in one table under its lane id (the same
//!    map-keyed idiom the query plane's `QueryPlane` uses). Every
//!    terminal step of a lane's flow signals [`ConnMsg::BatchStructDone`]
//!    (with the lane id) back to the controller, which dispatches that
//!    lane's next item. Under a lane cap of one (the driver's
//!    `serialize_lanes` test hook) the groups run one after another — the
//!    differential-testing baseline, bit-identical in outcomes.
//!
//! Classifications stay valid across phase 1 because only structural ops
//! (phase 2, strictly later) can change components; phase 2 re-classifies
//! each item on dispatch, so items demoted to non-structural by an earlier
//! structural op (e.g. a cross-component insert whose components were
//! merged by a previous link) still execute correctly.
//!
//! Concurrent lanes are sound because conflict groups are component-
//! disjoint over a consistent pre-batch snapshot (phase 1 never changes
//! components): flows in different lanes touch disjoint vertex sets, owner
//! sets and directory entries, so their Applies commute and their
//! DirFetch/DirStore traffic never races — a component id created mid-lane
//! (a cut's detached child) is a vertex of that lane's own group, so even
//! new directory entries stay inside the lane. True conflicts (items whose
//! component pairs connect) share a lane and serialize exactly as before,
//! which keeps fetched owner sets coherent: within a lane at most one
//! structural op is in flight, so a fetched set cannot go stale before its
//! flow finishes.

use crate::messages::{
    BatchItem, ConnMsg, CutMode, CutReq, PathSpans, StructBroadcast, StructItem, VertexInfo,
};
use crate::query::{QueryPlane, Reader};
use crate::shard::{ApplyOutcome, Shard};
use dmpc_eulertour::indexed::{CompId, TourOp};
use dmpc_eulertour::TourIx;
use dmpc_graph::{partition_conflicts, Edge, QueryAnswer, Update, Weight, V};
use dmpc_mpc::handoff::Outcome;
use dmpc_mpc::text::{self, put_field, Fields, Sink};
use dmpc_mpc::{Envelope, Handoff, HandoffMsg, Machine, MachineId, Outbox, RoundCtx};
use std::collections::{BTreeMap, VecDeque};

pub use crate::shard::{EntryKind, VertexState};

/// The machine doubling as batch controller (id 0).
pub const BATCH_CTRL: MachineId = 0;

/// Parked-table key for flows outside any batch lane (single updates, MST
/// inserts and swaps) — exactly one such flow is ever in flight
/// cluster-wide, so one reserved key suffices. Lane ids are dense
/// batch-group indexes and never reach this value.
const SOLO_LANE: u32 = u32::MAX;

/// Controller-side statistics of one batch's structural phase, harvested by
/// the driver after the run and folded into
/// [`dmpc_mpc::BatchMetrics`]' conflict fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Conflict groups in the partition.
    pub groups: usize,
    /// Items in the largest group (the serialization floor).
    pub depth: usize,
    /// Maximum lanes concurrently in flight (at most the lane cap).
    pub max_lanes: usize,
}

/// Controller-side state of one in-flight batch.
#[derive(Debug, Default)]
struct BatchCtl {
    /// Updates whose classification report is still outstanding.
    expect: usize,
    /// Classified-as-structural items, collected during phase 1.
    structural: Vec<StructItem>,
    /// Phase 2 per-lane queues (each sorted by batch position); index =
    /// lane id.
    lanes: Vec<VecDeque<BatchItem>>,
    /// First lane not yet started (lanes start in id order as slots free).
    next_lane: usize,
    /// Lanes currently in flight.
    live: usize,
    /// Phase 2 has begun (the lanes are authoritative).
    serving: bool,
    /// Partition statistics of this batch, published on completion.
    stats: ConflictStats,
}

/// Rendezvous-side state of an in-flight searching cut: the local apply
/// outcome stashed until the remote [`ConnMsg::CutReport`]s arrive (they all
/// arrive in the round after the multicast).
#[derive(Debug)]
struct PendingCut {
    /// Surviving (parent) side component id.
    comp: CompId,
    /// Detached (child) side component id.
    new_comp: CompId,
    /// Pre-cut owner set (the multicast audience; also the merged set a
    /// replacement link restores).
    old_owners: Vec<MachineId>,
    /// Remote Apply recipients; 0 finalizes immediately.
    remote: usize,
    /// The rendezvous' own apply outcome.
    local: ApplyOutcome,
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
    /// The initiating endpoint (its `f` is the non-tree cached index if
    /// the tree is kept).
    x: VertexInfo,
    /// The component's owner set, resolved once and reused by the swap.
    owners: Vec<MachineId>,
    /// The rendezvous' own on-path maximum.
    local_best: Option<(Edge, Weight)>,
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

/// One received [`ConnMsg::CutReport`]: (sender, best candidate,
/// owns_parent, owns_child).
type CutReportIn = (MachineId, Option<(Edge, Weight)>, bool, bool);

/// A flow parked at this machine until its replies arrive, keyed by lane in
/// `ConnMachine::parked` ([`SOLO_LANE`] for unbatched flows): within one
/// lane at most one structural op is in flight, so one entry per lane
/// suffices, and concurrently waiting lanes never collide. Every reply
/// folds into its lane's entry the moment it arrives.
#[derive(Debug)]
enum Parked {
    /// A structural flow waiting on its owner sets; it resumes at the last
    /// [`ConnMsg::DirReply`].
    Owners {
        then: Then,
        /// Union of the sets resolved so far.
        acc: Vec<MachineId>,
        /// Outstanding DirReply count (1 or 2).
        waiting: usize,
    },
    /// A searching cut's rendezvous and the [`ConnMsg::CutReport`]s
    /// received so far.
    Cut(PendingCut, Vec<CutReportIn>),
    /// An MST insert's path-max rendezvous and the
    /// [`ConnMsg::PathMaxReply`]s received so far.
    PathMax(PendingMst, Vec<Option<(Edge, Weight)>>),
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
    patches: VecDeque<(MachineId, ConnMsg)>,
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
    /// this machine's block (entries only for sets of size >= 2; the
    /// implicit fallback is `{owner_of(comp)}`).
    dir: BTreeMap<CompId, Vec<MachineId>>,
    /// Self-addressed messages executed locally within the same round.
    local: VecDeque<ConnMsg>,
    /// Flows waiting here on owner sets, cut reports or path-max replies,
    /// keyed by lane ([`SOLO_LANE`] for unbatched flows).
    parked: BTreeMap<u32, Parked>,
    /// Controller state of the in-flight batch (machine 0 only).
    batch: Option<BatchCtl>,
    /// Maximum lanes the controller keeps in flight at once (bounds the
    /// transient per-lane state and concurrent multicast fan-in; derived
    /// from the machine capacity).
    lane_cap: usize,
    /// Statistics of the last completed batch (controller only), harvested
    /// by the driver after the run.
    last_conflict: Option<ConflictStats>,
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
            dir: BTreeMap::new(),
            local: VecDeque::new(),
            parked: BTreeMap::new(),
            batch: None,
            lane_cap: (capacity_words / 64).max(1),
            last_conflict: None,
            queries: QueryPlane::default(),
            migration: None,
            handoff: Handoff::default(),
        }
    }

    /// Test hook behind `ConnDriver::serialize_lanes`: one lane at a time.
    #[doc(hidden)]
    pub fn serialize_lanes(&mut self) {
        self.lane_cap = 1;
    }

    /// Takes the statistics of the last completed batch (controller only;
    /// driver-side harvesting after a run, not part of the model).
    pub fn take_conflict_stats(&mut self) -> Option<ConflictStats> {
        self.last_conflict.take()
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
        self.batch.is_none()
            && self.parked.is_empty()
            && self.queries.is_empty()
            && self.last_conflict.is_none()
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

    /// This machine's directory shard (audits/tests; not part of the model).
    pub fn directory(&self) -> &BTreeMap<CompId, Vec<MachineId>> {
        &self.dir
    }

    /// Direct state injection for bulk loading during preprocessing.
    pub fn load_vertex(&mut self, v: V, st: VertexState) {
        self.verts.load_vertex(v, st);
    }

    /// Installs `comp`'s owner set at its root owner: a
    /// [`ConnMsg::DirStore`], or bulk loading during preprocessing. Sets of
    /// size < 2 are dropped (implicit fallback).
    pub fn load_dir_entry(&mut self, comp: CompId, owners: Vec<MachineId>) {
        debug_assert_eq!(self.root_owner(comp), self.id, "entry at non-root owner");
        if owners.len() >= 2 {
            self.dir.insert(comp, owners);
        } else {
            self.dir.remove(&comp);
        }
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
    // complete [`ConnMsg::DirStore`]/[`ConnMsg::DirDrop`] replacements for
    // components rooted in the source's old range (it held their exact
    // sets), incremental [`ConnMsg::DirPatch`]es to remote root owners for
    // the rest. No global re-broadcast of data ever happens.
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
        self.dir.clear();
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
            for (&comp, owners) in &self.dir {
                s.put(b"dir");
                put_field(s, comp as u64);
                for &m in owners {
                    put_field(s, m as u64);
                }
                s.put(b"\n");
            }
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
                b"dir" => {
                    let comp: CompId = f.dec();
                    let owners: Vec<MachineId> = std::iter::from_fn(|| f.next_dec()).collect();
                    self.dir.insert(comp, owners);
                }
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
        // Extract the moving vertices and serialize them.
        let text = self.verts.extract_range(lo, hi);
        // Directory repair, one O(1)-word patch per affected component.
        let moved_comps: std::collections::BTreeSet<CompId> = text
            .lines()
            .filter(|l| l.starts_with("vert "))
            .map(|l| {
                // "vert", the vertex, then its component.
                let mut f = Fields::new(l);
                f.word();
                f.dec::<V>();
                f.dec()
            })
            .collect();
        let mut patches: VecDeque<(MachineId, ConnMsg)> = VecDeque::new();
        for comp in moved_comps {
            let src_retains = self.verts.any_in_comp(comp);
            let root = comp as V;
            if old_lo <= root && root < old_hi {
                // Rooted in our old range: we held the exact owner set, so
                // we emit a complete replacement.
                let mut set = self.dir.remove(&comp).unwrap_or_else(|| vec![self.id]);
                if !src_retains {
                    set.retain(|&m| m != self.id);
                }
                set.push(to);
                set.sort_unstable();
                set.dedup();
                if lo <= root && root < hi {
                    // The root vertex moved too: the entry follows it.
                    let msg = if set.len() >= 2 {
                        ConnMsg::DirStore { comp, owners: set }
                    } else {
                        ConnMsg::DirDrop { comp }
                    };
                    patches.push_back((to, msg));
                } else if set.len() >= 2 {
                    self.dir.insert(comp, set);
                }
            } else {
                // Rooted remotely: the entry provably exists there (root
                // owner + this machine both owned members), so an
                // incremental add/remove patch suffices.
                let r = self.root_owner(comp);
                debug_assert_ne!(r, self.id);
                patches.push_back((
                    r,
                    ConnMsg::DirPatch {
                        comp,
                        add: to,
                        remove: (!src_retains).then_some(self.id),
                    },
                ));
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
            sent += dmpc_mpc::Payload::size_words(&msg);
            out.send(to, msg);
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
        if to == self.id {
            self.local.push_back(msg);
        } else {
            out.send(to, msg);
        }
    }

    /// Remote multicast audience for an owner set: the set minus this
    /// machine.
    fn audience(&self, owners: &[MachineId]) -> Vec<MachineId> {
        owners.iter().copied().filter(|&m| m != self.id).collect()
    }

    /// The directory's answer for `comp` at its root owner: the stored set,
    /// or the implicit singleton-machine fallback.
    fn dir_owners(&self, comp: CompId) -> Vec<MachineId> {
        debug_assert_eq!(self.root_owner(comp), self.id, "lookup at non-root owner");
        self.dir
            .get(&comp)
            .cloned()
            .unwrap_or_else(|| vec![self.root_owner(comp)])
    }

    /// Resolves a component's owner set without communication when
    /// possible: singleton components own exactly their root's owner, and
    /// self-rooted components are answered from the local directory shard.
    fn set_if_local(&self, comp: CompId, size: u64) -> Option<Vec<MachineId>> {
        if size == 1 {
            Some(vec![self.root_owner(comp)])
        } else if self.root_owner(comp) == self.id {
            Some(self.dir_owners(comp))
        } else {
            None
        }
    }

    // ----- protocol steps -------------------------------------------------

    /// Signals the controller that this lane's structural item finished
    /// (no-op for unbatched flows).
    fn signal_struct_done(&mut self, lane: Option<u32>, out: &mut Outbox<ConnMsg>) {
        if let Some(l) = lane {
            self.route(BATCH_CTRL, ConnMsg::BatchStructDone { lane: l }, out);
        }
    }

    /// Starts an insertion at `e.u`'s owner. A replacement or swap link
    /// ([`ConnMsg::StartLink`]) arrives with the merged component's owner
    /// set known; a replacement edge already exists as a non-tree entry at
    /// both owners (the Apply handler converts the entries to tree entries).
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
            // Replacement/swap links arrive with the union attached.
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
    /// union at once, or parks until the last [`ConnMsg::DirReply`].
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
                    out.send(self.root_owner(comp), ConnMsg::DirFetch { comp, lane });
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

    /// Folds one reply into its lane's parked flow: an owner set resumes
    /// the flow once none is outstanding; a cut report or path-max reply
    /// waits for [`Self::take_ready`] at the end of the round.
    fn fold_reply(&mut self, from: MachineId, msg: ConnMsg, out: &mut Outbox<ConnMsg>) {
        let lane = match msg {
            ConnMsg::DirReply { lane, .. } | ConnMsg::CutReport { lane, .. } => lane,
            // MST path-max flows are never batched.
            _ => None,
        };
        let key = lane.unwrap_or(SOLO_LANE);
        match (self.parked.get_mut(&key), msg) {
            (Some(Parked::Owners { acc, waiting, .. }), ConnMsg::DirReply { owners, .. }) => {
                absorb(acc, owners);
                *waiting -= 1;
                if *waiting == 0 {
                    if let Some(Parked::Owners { then, acc, .. }) = self.parked.remove(&key) {
                        self.resume(then, acc, out);
                    }
                }
            }
            (
                Some(Parked::Cut(_, reports)),
                ConnMsg::CutReport {
                    best,
                    owns_parent,
                    owns_child,
                    ..
                },
            ) => reports.push((from, best, owns_parent, owns_child)),
            (Some(Parked::PathMax(_, replies)), ConnMsg::PathMaxReply { best }) => {
                replies.push(best)
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
            Parked::Cut(_, reports) => !reports.is_empty(),
            Parked::PathMax(_, replies) => !replies.is_empty(),
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
        let y = e.other(x.v);
        let yi = self.verts.info(y);
        let (y_comp, y_size, y_f, y_l) = (yi.comp, yi.size, yi.f, yi.l);
        // Reroot y's tree at y, then link after f(x).
        let reroot = if y_size > 1 && y_f != 1 {
            Some(TourOp::Reroot {
                comp: y_comp,
                elen: 4 * (y_size - 1),
                l_y: y_l,
                y,
            })
        } else {
            None
        };
        // Erratum fix: splice position 0 when x is the root of its tree.
        let fx = if x.f <= 1 { 0 } else { x.f };
        let main = TourOp::Link {
            a: x.comp,
            b: y_comp,
            x: x.v,
            y,
            fx,
            elen_b: 4 * (y_size - 1),
        };
        let b = StructBroadcast {
            reroot,
            main,
            merged_size: x.size + y_size,
            x_after: 0,
            edge: e,
            weight: w,
            cut_mode: CutMode::Remove,
            rendezvous: None,
            lane,
        };
        for m in self.audience(&union) {
            out.send(m, ConnMsg::Apply(b));
        }
        self.verts.apply_struct(&b);
        // Directory: the merged component keeps x's id; y's id is absorbed.
        self.route(
            self.root_owner(x.comp),
            ConnMsg::DirStore {
                comp: x.comp,
                owners: union,
            },
            out,
        );
        self.route(
            self.root_owner(y_comp),
            ConnMsg::DirDrop { comp: y_comp },
            out,
        );
        self.signal_struct_done(lane, out);
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
    /// edge `e` spans `lo..=hi`: a deleting cut (`then_link: None`) removes
    /// the edge and searches for a replacement, an MST swap's demote keeps
    /// it as a non-tree edge and links `then_link` right after. An even
    /// `lo` makes `e.u` the child, so the parent's owner must compute the
    /// surviving parent index: the request travels there.
    fn cut_tree_edge(
        &mut self,
        e: Edge,
        (lo, hi): (TourIx, TourIx),
        then_link: Option<(Edge, Weight)>,
        lane: Option<u32>,
        owners: Option<Vec<MachineId>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let (parent, fy, ly) = if lo % 2 == 0 {
            (e.v, lo, hi)
        } else {
            (e.u, lo + 1, hi - 1)
        };
        let swap = then_link.is_some();
        let req = CutReq {
            e,
            parent,
            fy,
            ly,
            mode: if swap {
                CutMode::Demote
            } else {
                CutMode::Remove
            },
            search: !swap,
            then_link,
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

    /// Executes a cut with the owner set resolved: multicasts the Apply,
    /// applies locally, and arms the rendezvous aggregation (searching
    /// cuts) or the follow-up link (MST swaps).
    fn cut(&mut self, req: CutReq, owners: Vec<MachineId>, out: &mut Outbox<ConnMsg>) {
        let CutReq {
            e,
            parent,
            fy,
            ly,
            mode,
            search,
            then_link,
            lane,
        } = req;
        let child = e.other(parent);
        let comp = self.verts.comp_of(parent);
        let span = (ly - fy + 1) + 2;
        let x_after = self
            .verts
            .idx_of(parent)
            .filter(|&s| s != fy - 1 && s != ly + 1)
            .map(|s| if s > ly { s - span } else { s })
            .min()
            .unwrap_or(0);
        let main = TourOp::Cut {
            comp,
            x: parent,
            y: child,
            fy,
            ly,
            new_comp: child,
        };
        let b = StructBroadcast {
            reroot: None,
            main,
            merged_size: 0,
            x_after,
            edge: e,
            weight: 0,
            cut_mode: mode,
            rendezvous: if search { Some(self.id) } else { None },
            lane,
        };
        let remote = self.audience(&owners);
        for &m in &remote {
            out.send(m, ConnMsg::Apply(b));
        }
        if let Some((le, lw)) = then_link {
            // An MST swap's re-link restores the pre-cut component, so the
            // owner set rides along unchanged. The link's InsQuery is
            // processed after the Apply in the same round at its owner
            // (Apply messages are handled first).
            self.route(
                self.owner(le.u),
                ConnMsg::StartLink {
                    e: le,
                    w: lw,
                    lane,
                    owners: owners.clone(),
                },
                out,
            );
        }
        let outcome = self.verts.apply_struct(&b);
        if search {
            let pc = PendingCut {
                comp,
                new_comp: child,
                old_owners: owners,
                remote: remote.len(),
                local: outcome,
                lane,
            };
            if remote.is_empty() {
                self.finalize_cut(pc, Vec::new(), out);
            } else {
                self.park(lane, Parked::Cut(pc, Vec::new()));
            }
        }
    }

    /// Rendezvous: folds one lane's remote [`ConnMsg::CutReport`]s with the
    /// stashed local outcome — either launching the replacement link (which
    /// restores the old owner set) or installing the refined split sets.
    fn finalize_cut(
        &mut self,
        pc: PendingCut,
        reports: Vec<CutReportIn>,
        out: &mut Outbox<ConnMsg>,
    ) {
        // Fewer reports than audience members means a reporter was killed
        // in this run: the executor ends such a run with `abandon_run`, and
        // the epoch fence rolls it back, so whatever this finalization
        // starts is discarded.
        debug_assert!(reports.len() <= pc.remote, "more cut reports than audience");
        let best = reports
            .iter()
            .filter_map(|&(_, b, _, _)| b)
            .chain(pc.local.best)
            .map(|(e, w)| (w, e))
            .min();
        match best {
            Some((w, e)) => {
                self.route(
                    self.owner(e.u),
                    ConnMsg::StartLink {
                        e,
                        w,
                        lane: pc.lane,
                        owners: pc.old_owners,
                    },
                    out,
                );
            }
            None => {
                // No replacement: the component stays split. Refine the
                // directory from the membership the reports carried.
                let local = (self.id, None, pc.local.owns_parent, pc.local.owns_child);
                let (mut parent, mut child) = (Vec::new(), Vec::new());
                for (m, _, op, oc) in reports.into_iter().chain([local]) {
                    if op {
                        parent.push(m);
                    }
                    if oc {
                        child.push(m);
                    }
                }
                for (comp, mut owners) in [(pc.comp, parent), (pc.new_comp, child)] {
                    owners.sort_unstable();
                    self.route(
                        self.root_owner(comp),
                        ConnMsg::DirStore { comp, owners },
                        out,
                    );
                }
                self.signal_struct_done(pc.lane, out);
            }
        }
    }

    /// Multicasts the path-max query to the component's owner set, stashes
    /// the local on-path maximum, and finishes immediately when this machine
    /// is the only owner.
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
        let q = ConnMsg::PathMaxQuery {
            path,
            e,
            w,
            rendezvous: self.id,
        };
        let remote = self.audience(&owners);
        for &m in &remote {
            out.send(m, q.clone());
        }
        let p = PendingMst {
            e,
            w,
            x,
            owners,
            local_best: self.verts.path_max(&path),
        };
        if remote.is_empty() {
            self.finish_path_max(p, Vec::new(), out);
        } else {
            self.park(None, Parked::PathMax(p, Vec::new()));
        }
    }

    fn finish_path_max(
        &mut self,
        p: PendingMst,
        replies: Vec<Option<(Edge, Weight)>>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let best = heaviest(replies.into_iter().chain([p.local_best]));
        match best {
            Some((d, dw)) if dw > p.w => {
                // Swap: demote d, then link e. The demote must be initiated
                // at d's parent endpoint owner; the owner set rides along.
                self.route(
                    self.owner(d.u),
                    ConnMsg::StartSwap {
                        d,
                        e: p.e,
                        w: p.w,
                        owners: p.owners,
                    },
                    out,
                );
            }
            // Keep the tree; e becomes a non-tree edge. `x.comp` is still
            // y's component: MST flows run one at a time.
            _ => self.add_non_tree_pair(p.e, p.w, &p.x, out),
        }
    }

    fn handle_start_swap(
        &mut self,
        d: Edge,
        e: Edge,
        w: Weight,
        owners: Vec<MachineId>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let (kind, _) = self.verts.adj_get(d.u, d.v).expect("swap edge missing");
        let EntryKind::Tree { lo, hi } = kind else {
            panic!("swap target {d} is not a tree edge");
        };
        self.cut_tree_edge(d, (lo, hi), Some((e, w)), None, Some(owners), out);
    }

    // ----- batch protocol -------------------------------------------------

    /// Controller: fan the batch out to the owners for classification.
    fn handle_batch_start(&mut self, items: Vec<BatchItem>, out: &mut Outbox<ConnMsg>) {
        assert_eq!(self.id, BATCH_CTRL, "batches start at the controller");
        if items.is_empty() {
            return;
        }
        let mut by_owner: BTreeMap<MachineId, Vec<BatchItem>> = BTreeMap::new();
        let expect = items.len();
        for item in items {
            by_owner
                .entry(self.owner(item.upd.edge().u))
                .or_default()
                .push(item);
        }
        for (m, items) in by_owner {
            self.route(m, ConnMsg::BatchClassify { items }, out);
        }
        self.batch = Some(BatchCtl {
            expect,
            ..Default::default()
        });
    }

    /// Owner: classify this machine's share of the batch. Non-tree deletes
    /// execute on the spot; inserts are forwarded to the far endpoint's
    /// owner for the component comparison; tree deletes are reported
    /// structural.
    fn handle_batch_classify(
        &mut self,
        items: Vec<BatchItem>,
        report: &mut BatchReportAcc,
        out: &mut Outbox<ConnMsg>,
    ) {
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
                        ConnMsg::BatchInsClassify {
                            e,
                            w: 1,
                            x,
                            seq: item.seq,
                        },
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
                            report.done += 1;
                        }
                        EntryKind::Tree { .. } => {
                            // A cut touches one component (twice).
                            let c = self.verts.comp_of(e.u);
                            report.structural.push(StructItem { item, ca: c, cb: c });
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
        report: &mut BatchReportAcc,
        out: &mut Outbox<ConnMsg>,
    ) {
        let y = e.other(x.v);
        let cb = self.verts.comp_of(y);
        if cb == x.comp {
            self.add_non_tree_pair(e, w, &x, out);
            report.done += 1;
        } else {
            report.structural.push(StructItem {
                item: BatchItem {
                    upd: Update::Insert(e),
                    seq,
                },
                ca: x.comp,
                cb,
            });
        }
    }

    /// Controller: fold one classification report; start phase 2 once every
    /// update is accounted for.
    fn handle_batch_report(
        &mut self,
        done: u32,
        structural: Vec<StructItem>,
        out: &mut Outbox<ConnMsg>,
    ) {
        let ctl = self.batch.as_mut().expect("report without a batch");
        ctl.expect -= done as usize + structural.len();
        ctl.structural.extend(structural);
        if ctl.expect == 0 {
            self.batch_begin_structural(out);
        }
    }

    /// Controller: partition the structural leftovers into conflict groups,
    /// one lane each, and start phase 2.
    fn batch_begin_structural(&mut self, out: &mut Outbox<ConnMsg>) {
        let ctl = self.batch.as_mut().expect("phase 2 without a batch");
        let mut items = std::mem::take(&mut ctl.structural);
        items.sort_unstable_by_key(|s| s.item.seq);
        let touches: Vec<(u64, u64)> = items
            .iter()
            .map(|s| (u64::from(s.ca), u64::from(s.cb)))
            .collect();
        let part = partition_conflicts(&touches);
        let mut lanes: Vec<VecDeque<BatchItem>> = vec![VecDeque::new(); part.groups];
        for (i, s) in items.into_iter().enumerate() {
            lanes[part.group_of[i] as usize].push_back(s.item);
        }
        ctl.stats = ConflictStats {
            groups: part.groups,
            depth: part.depth,
            max_lanes: 0,
        };
        ctl.lanes = lanes;
        ctl.serving = true;
        self.batch_fill_lanes(out);
    }

    /// Controller: start lanes (in id order) until the concurrency cap is
    /// reached or all lanes have started; finish the batch once every lane
    /// has drained.
    fn batch_fill_lanes(&mut self, out: &mut Outbox<ConnMsg>) {
        let cap = self.lane_cap;
        let ctl = self.batch.as_mut().expect("lane fill without a batch");
        debug_assert!(ctl.serving);
        let mut to_start = Vec::new();
        while ctl.next_lane < ctl.lanes.len() && ctl.live < cap {
            to_start.push(ctl.next_lane as u32);
            ctl.next_lane += 1;
            ctl.live += 1;
            ctl.stats.max_lanes = ctl.stats.max_lanes.max(ctl.live);
        }
        let finished = ctl.live == 0 && ctl.next_lane >= ctl.lanes.len();
        let stats = ctl.stats;
        for lane in to_start {
            self.batch_dispatch(lane, out);
        }
        if finished {
            self.last_conflict = Some(stats);
            self.batch = None;
        }
    }

    /// Controller: dispatch `lane`'s next structural item through the
    /// normal (re-classifying) update flow, tagged with the lane id.
    fn batch_dispatch(&mut self, lane: u32, out: &mut Outbox<ConnMsg>) {
        let ctl = self.batch.as_mut().expect("dispatch without a batch");
        let item = ctl.lanes[lane as usize]
            .pop_front()
            .expect("dispatch on a drained lane");
        let e = item.upd.edge();
        let to = self.owner(e.u);
        let msg = match item.upd {
            Update::Insert(_) => ConnMsg::Insert {
                e,
                w: 1,
                lane: Some(lane),
            },
            Update::Delete(_) => ConnMsg::Delete {
                e,
                lane: Some(lane),
            },
        };
        self.route(to, msg, out);
    }

    /// Controller: one lane's in-flight structural op completed — advance
    /// that lane, or retire it and pull the next waiting lane in.
    fn batch_lane_done(&mut self, lane: u32, out: &mut Outbox<ConnMsg>) {
        let ctl = self.batch.as_mut().expect("lane done without a batch");
        debug_assert!(ctl.serving);
        if !ctl.lanes[lane as usize].is_empty() {
            self.batch_dispatch(lane, out);
        } else {
            ctl.live -= 1;
            self.batch_fill_lanes(out);
        }
    }

    /// Dispatches one protocol message (from the inbox or the local queue).
    fn dispatch(
        &mut self,
        msg: ConnMsg,
        ctx: &RoundCtx,
        report: &mut BatchReportAcc,
        out: &mut Outbox<ConnMsg>,
    ) {
        match msg {
            ConnMsg::Insert { e, w, lane } => self.handle_insert(e, w, lane, None, out),
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
            ConnMsg::StartLink { e, w, lane, owners } => {
                self.handle_insert(e, w, lane, Some(owners), out)
            }
            ConnMsg::PathMaxQuery {
                path, rendezvous, ..
            } => {
                debug_assert_ne!(rendezvous, self.id, "the rendezvous answers locally");
                let best = self.verts.path_max(&path);
                out.send(rendezvous, ConnMsg::PathMaxReply { best });
            }
            ConnMsg::StartSwap { d, e, w, owners } => self.handle_start_swap(d, e, w, owners, out),
            ConnMsg::DirFetch { .. }
            | ConnMsg::DirReply { .. }
            | ConnMsg::CutReport { .. }
            | ConnMsg::PathMaxReply { .. }
            | ConnMsg::Apply(_) => {
                unreachable!("handled before dispatch")
            }
            ConnMsg::DirStore { comp, owners } => self.load_dir_entry(comp, owners),
            ConnMsg::DirDrop { comp } => {
                self.dir.remove(&comp);
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
                    if to == at.id {
                        local.push_back(ConnMsg::Query(q));
                    } else {
                        out.send(to, ConnMsg::Query(q));
                    }
                });
            }
            ConnMsg::BatchStart { items } => self.handle_batch_start(items, out),
            ConnMsg::BatchClassify { items } => self.handle_batch_classify(items, report, out),
            ConnMsg::BatchInsClassify { e, w, x, seq } => {
                self.handle_batch_ins_classify(e, w, x, seq, report, out)
            }
            ConnMsg::BatchReport { done, structural } => {
                self.handle_batch_report(done, structural, out)
            }
            ConnMsg::BatchStructDone { lane } => self.batch_lane_done(lane, out),
            ConnMsg::MigrateBegin { to, lo, hi, budget } => {
                self.handle_migrate_begin(to, lo, hi, budget, ctx, out)
            }
            ConnMsg::DirPatch { comp, add, remove } => {
                debug_assert_eq!(self.root_owner(comp), self.id);
                let mut set = self.dir.remove(&comp).unwrap_or_else(|| vec![self.id]);
                if let Some(r) = remove {
                    set.retain(|&m| m != r);
                }
                set.push(add);
                set.sort_unstable();
                set.dedup();
                if set.len() >= 2 {
                    self.dir.insert(comp, set);
                }
            }
            ConnMsg::Boundary { .. } | ConnMsg::Handoff(_) | ConnMsg::MigrateKick => {
                unreachable!("handled before dispatch")
            }
        }
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

/// Per-round accumulator for one classifier's report to the controller
/// (aggregating all of this round's classifications into one message).
#[derive(Default)]
struct BatchReportAcc {
    done: u32,
    structural: Vec<StructItem>,
}

impl BatchReportAcc {
    fn is_empty(&self) -> bool {
        self.done == 0 && self.structural.is_empty()
    }
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
        let mut report = BatchReportAcc::default();
        // Structural Applies first, so follow-up protocol steps delivered in
        // the same round see post-op state; then directory fetches (served
        // from pre-dispatch state), then everything else. The inbox is
        // partitioned in place: the first pass consumes what it handles.
        inbox.retain(|env| match env.msg {
            ConnMsg::Apply(b) => {
                let outcome = self.verts.apply_struct(&b);
                if let Some(r) = b.rendezvous {
                    debug_assert_ne!(r, self.id, "the rendezvous applies locally");
                    out.send(
                        r,
                        ConnMsg::CutReport {
                            best: outcome.best,
                            owns_parent: outcome.owns_parent,
                            owns_child: outcome.owns_child,
                            lane: b.lane,
                        },
                    );
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
                ConnMsg::DirFetch { comp, lane } => {
                    debug_assert_eq!(self.root_owner(comp), self.id);
                    out.send(
                        env.from,
                        ConnMsg::DirReply {
                            comp,
                            owners: self.dir_owners(comp),
                            lane,
                        },
                    );
                }
                msg @ (ConnMsg::DirReply { .. }
                | ConnMsg::CutReport { .. }
                | ConnMsg::PathMaxReply { .. }) => self.fold_reply(env.from, msg, out),
                msg => self.dispatch(msg, ctx, &mut report, out),
            }
        }
        // Fixpoint: locally-routed steps, rendezvous finalizations (lanes in
        // ascending order) and the classification report can each enqueue
        // more local work; everything here is same-round local computation
        // (free in the MPC model).
        loop {
            if let Some(msg) = self.local.pop_front() {
                self.dispatch(msg, ctx, &mut report, out);
                continue;
            }
            if let Some(flow) = self.take_ready() {
                match flow {
                    Parked::Cut(pc, reports) => self.finalize_cut(pc, reports, out),
                    Parked::PathMax(p, replies) => self.finish_path_max(p, replies, out),
                    Parked::Owners { .. } => unreachable!("a fetch resumes at its last reply"),
                }
                continue;
            }
            if !report.is_empty() {
                let BatchReportAcc { done, structural } = std::mem::take(&mut report);
                self.route(BATCH_CTRL, ConnMsg::BatchReport { done, structural }, out);
                continue;
            }
            break;
        }
    }

    fn memory_words(&self) -> usize {
        let mut words = 4 + self.verts.memory_words();
        for owners in self.dir.values() {
            words += 2 + owners.len();
        }
        if let Some(ctl) = &self.batch {
            words += 2 + 5 * ctl.structural.len();
            for lane in &ctl.lanes {
                words += 2 + 3 * lane.len();
            }
        }
        // Parked flows (replies are round-local: a rendezvous finalizes in
        // the round they arrive).
        for p in self.parked.values() {
            words += match p {
                Parked::Owners { acc, .. } => 4 + acc.len(),
                Parked::Cut(pc, _) => 4 + pc.old_owners.len(),
                Parked::PathMax(pm, _) => 6 + pm.owners.len(),
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
                words += 1 + dmpc_mpc::Payload::size_words(msg);
            }
        }
        words
    }

    /// Drops the controller, rendezvous, fetch and query state a cut-short
    /// run strands, so later runs are neither charged phantom memory for
    /// it nor sent spurious completion signals.
    fn abandon_run(&mut self) {
        self.batch = None;
        self.parked.clear();
        self.queries.clear();
        self.last_conflict = None;
    }
}
