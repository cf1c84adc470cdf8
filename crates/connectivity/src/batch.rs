//! The batch controller.
//!
//! A batch of `k` pre-coalesced updates (at most one op per edge; see
//! `dmpc_graph::streams::coalesce`) is injected as [`BatchMsg::Start`] at
//! the *batch controller* — machine 0, which plays this role in addition
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
//!    terminal step of a lane's flow signals [`BatchMsg::StructDone`]
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
//!
//! The controller's steps read only the partition table and write only its
//! `BatchCtl`; the classifier's steps run in `machine.rs`, beside the
//! single-update flow whose non-tree steps they share.

use crate::machine::ConnMachine;
use crate::messages::{ConnMsg, VertexInfo};
use dmpc_eulertour::indexed::CompId;
use dmpc_graph::{partition_conflicts, Edge, Update, Weight, V};
use dmpc_mpc::MachineId;
use std::collections::{BTreeMap, VecDeque};

/// The machine doubling as batch controller (id 0).
pub const BATCH_CTRL: MachineId = 0;

/// One update inside a batch, tagged with its position in the batch so the
/// structural phase replays each conflict group's items in original order.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem {
    /// The update.
    pub upd: Update,
    /// Position within the batch.
    pub seq: u32,
}

/// A structural leftover reported back to the batch controller: the item
/// plus the pre-batch component ids it touches, the input of the conflict
/// partitioner. Classifiers read the components during phase 1, which never
/// changes them (non-structural work touches no tree), so the snapshot is
/// consistent across the whole batch.
#[derive(Clone, Copy, Debug)]
pub struct StructItem {
    /// The structural update.
    pub item: BatchItem,
    /// Component of one endpoint (for cuts: the edge's component, twice).
    pub ca: CompId,
    /// Component of the other endpoint.
    pub cb: CompId,
}

/// Batch-protocol messages, carried as [`ConnMsg::Batch`].
#[derive(Clone, Debug)]
pub enum BatchMsg {
    /// Injected at the batch controller (machine 0): process these updates
    /// as one batch.
    Start {
        /// The batch, pre-coalesced (at most one op per edge).
        items: Vec<BatchItem>,
    },
    /// controller -> owner(e.u): classify (and, where non-structural,
    /// immediately execute) these updates. The preprocessing fan-out.
    Classify {
        /// The owner's share of the batch.
        items: Vec<BatchItem>,
    },
    /// owner(e.u) -> owner(e.v): classify an insert against the far
    /// endpoint's component; same-component inserts execute on the spot.
    InsClassify {
        /// The new edge.
        e: Edge,
        /// Its weight.
        w: Weight,
        /// State of the endpoint owned by the sender.
        x: VertexInfo,
        /// Position within the batch.
        seq: u32,
    },
    /// classifier -> controller: how many updates completed non-structurally
    /// this round, and which turned out structural (links / tree cuts) —
    /// each tagged with the pre-batch components it touches, the conflict
    /// partitioner's input.
    Report {
        /// Updates executed in the concurrent (non-structural) phase.
        done: u32,
        /// Updates requiring structural processing, with touched components.
        structural: Vec<StructItem>,
    },
    /// terminal step -> controller: the lane's in-flight structural item
    /// finished; dispatch the lane's next item (or retire the lane).
    StructDone {
        /// The lane that finished its item.
        lane: u32,
    },
}

impl BatchMsg {
    /// Words of the message (the charge of its `ConnMsg::Batch`).
    pub fn size_words(&self) -> usize {
        match self {
            BatchMsg::Start { items } | BatchMsg::Classify { items } => 1 + 3 * items.len(),
            BatchMsg::InsClassify { .. } => 9,
            // 3 per item + the two touched component ids.
            BatchMsg::Report { structural, .. } => 2 + 5 * structural.len(),
            // The lane id packs into the op word.
            BatchMsg::StructDone { .. } => 1,
        }
    }
}

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
struct Run {
    /// Updates whose classification report is still outstanding; phase 2
    /// (the lanes) begins when it reaches 0.
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
    /// Partition statistics of this batch, published on completion.
    stats: ConflictStats,
}

/// One classifier's tally for the current round, sent to the controller as
/// one [`BatchMsg::Report`] (aggregating all of this round's
/// classifications into one message).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Updates executed on the spot.
    pub(crate) done: u32,
    /// Structural leftovers.
    pub(crate) structural: Vec<StructItem>,
}

impl Tally {
    fn is_empty(&self) -> bool {
        self.done == 0 && self.structural.is_empty()
    }
}

/// One machine's batch state: the controller's in-flight run, lane cap and
/// last statistics (machine 0 only), and the classifier's round tally.
#[derive(Debug)]
pub(crate) struct BatchCtl {
    /// The in-flight batch.
    run: Option<Run>,
    /// Maximum lanes kept in flight at once (bounds the transient per-lane
    /// state and concurrent multicast fan-in; derived from the machine
    /// capacity).
    cap: usize,
    /// Statistics of the last completed batch, harvested by the driver.
    stats: Option<ConflictStats>,
    /// This round's classifications, not yet reported.
    pub(crate) tally: Tally,
}

impl BatchCtl {
    /// An idle controller keeping at most `cap` lanes in flight.
    pub(crate) fn new(cap: usize) -> Self {
        BatchCtl {
            run: None,
            cap,
            stats: None,
            tally: Tally::default(),
        }
    }

    /// Caps the controller at one lane (the `serialize_lanes` test hook).
    pub(crate) fn serialize_lanes(&mut self) {
        self.cap = 1;
    }

    /// Takes the statistics of the last completed batch.
    pub(crate) fn take_stats(&mut self) -> Option<ConflictStats> {
        self.stats.take()
    }

    /// Drops the run, the statistics and the tally. The lane cap stays, so
    /// an aborted or revived controller keeps `serialize_lanes`.
    pub(crate) fn clear(&mut self) {
        *self = Self::new(self.cap);
    }

    /// True when [`Self::clear`] would drop nothing.
    pub(crate) fn is_clear(&self) -> bool {
        self.run.is_none() && self.stats.is_none() && self.tally.is_empty()
    }

    /// Takes this round's classification report, if it holds anything.
    pub(crate) fn take_report(&mut self) -> Option<BatchMsg> {
        if self.tally.is_empty() {
            return None;
        }
        let Tally { done, structural } = std::mem::take(&mut self.tally);
        Some(BatchMsg::Report { done, structural })
    }

    /// Words of the in-flight run's queues.
    pub(crate) fn memory_words(&self) -> usize {
        self.run.as_ref().map_or(0, |run| {
            let lanes: usize = run.lanes.iter().map(|l| 2 + 3 * l.len()).sum();
            2 + 5 * run.structural.len() + lanes
        })
    }

    /// Runs one controller step under partition table `bounds`, sending
    /// each next step to its machine through `send`.
    pub(crate) fn handle(
        &mut self,
        msg: BatchMsg,
        bounds: &[V],
        mut send: impl FnMut(MachineId, ConnMsg),
    ) {
        match msg {
            // Fan the batch out to the owners for classification.
            BatchMsg::Start { items } => {
                if items.is_empty() {
                    return;
                }
                let mut by_owner: BTreeMap<MachineId, Vec<BatchItem>> = BTreeMap::new();
                let expect = items.len();
                for item in items {
                    let m = ConnMachine::owner_in(bounds, item.upd.edge().u);
                    by_owner.entry(m).or_default().push(item);
                }
                for (m, items) in by_owner {
                    send(m, ConnMsg::Batch(BatchMsg::Classify { items }));
                }
                self.run = Some(Run {
                    expect,
                    ..Default::default()
                });
            }
            // Fold one classification report; start phase 2 once every
            // update is accounted for.
            BatchMsg::Report { done, structural } => {
                let run = self.run.as_mut().expect("report without a batch");
                run.expect -= done as usize + structural.len();
                run.structural.extend(structural);
                if run.expect == 0 {
                    run.partition();
                    self.fill_lanes(bounds, &mut send);
                }
            }
            // One lane's in-flight structural op completed: advance that
            // lane, or retire it and pull the next waiting lane in.
            BatchMsg::StructDone { lane } => {
                let run = self.run.as_mut().expect("lane done without a batch");
                debug_assert_eq!(run.expect, 0, "lane done before phase 2");
                if !run.lanes[lane as usize].is_empty() {
                    run.dispatch(lane, bounds, &mut send);
                } else {
                    run.live -= 1;
                    self.fill_lanes(bounds, &mut send);
                }
            }
            BatchMsg::Classify { .. } | BatchMsg::InsClassify { .. } => unreachable!("owner step"),
        }
    }

    /// Starts lanes (in id order) until the cap is reached or all lanes
    /// have started; finishes the batch once every lane has drained.
    fn fill_lanes(&mut self, bounds: &[V], send: &mut impl FnMut(MachineId, ConnMsg)) {
        let run = self.run.as_mut().expect("lane fill without a batch");
        debug_assert_eq!(run.expect, 0, "lane fill before phase 2");
        while run.next_lane < run.lanes.len() && run.live < self.cap {
            let lane = run.next_lane as u32;
            run.next_lane += 1;
            run.live += 1;
            run.stats.max_lanes = run.stats.max_lanes.max(run.live);
            run.dispatch(lane, bounds, send);
        }
        if run.live == 0 && run.next_lane >= run.lanes.len() {
            self.stats = Some(run.stats);
            self.run = None;
        }
    }
}

impl Run {
    /// Partitions the structural leftovers into conflict groups, one lane
    /// each.
    fn partition(&mut self) {
        let mut items = std::mem::take(&mut self.structural);
        items.sort_unstable_by_key(|s| s.item.seq);
        let touches: Vec<(u64, u64)> = items
            .iter()
            .map(|s| (u64::from(s.ca), u64::from(s.cb)))
            .collect();
        let part = partition_conflicts(&touches);
        self.lanes = vec![VecDeque::new(); part.groups];
        for (i, s) in items.into_iter().enumerate() {
            self.lanes[part.group_of[i] as usize].push_back(s.item);
        }
        self.stats = ConflictStats {
            groups: part.groups,
            depth: part.depth,
            max_lanes: 0,
        };
    }

    /// Dispatches `lane`'s next structural item through the normal
    /// (re-classifying) update flow, tagged with the lane id.
    fn dispatch(&mut self, lane: u32, bounds: &[V], send: &mut impl FnMut(MachineId, ConnMsg)) {
        let item = self.lanes[lane as usize]
            .pop_front()
            .expect("dispatch on a drained lane");
        let e = item.upd.edge();
        let lane = Some(lane);
        let msg = match item.upd {
            Update::Insert(_) => ConnMsg::Insert { e, w: 1, lane },
            Update::Delete(_) => ConnMsg::Delete { e, lane },
        };
        send(ConnMachine::owner_in(bounds, e.u), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five structural items over disjoint component pairs under a cap of
    /// two: lanes start in id order, each drained lane pulls in the next,
    /// and the statistics are published once, when the last lane retires.
    #[test]
    fn lanes_start_in_order_up_to_the_cap() {
        let bounds: [V; 3] = [0, 5, 10];
        let mut ctl = BatchCtl::new(2);
        let mut sent = Vec::new();
        let structural: Vec<StructItem> = (0..5u32)
            .map(|i| {
                let e = Edge::new(2 * i, 2 * i + 1);
                let (upd, cb) = if i % 2 == 0 {
                    (Update::Insert(e), e.v)
                } else {
                    (Update::Delete(e), e.u)
                };
                let item = BatchItem { upd, seq: i };
                StructItem { item, ca: e.u, cb }
            })
            .collect();
        let items = structural.iter().map(|s| s.item).collect();
        ctl.handle(BatchMsg::Start { items }, &bounds, |to, m| {
            sent.push((to, m))
        });
        // One share per owner, in machine order.
        let shares: Vec<(MachineId, usize)> = sent
            .drain(..)
            .map(|(to, m)| match m {
                ConnMsg::Batch(BatchMsg::Classify { items }) => (to, items.len()),
                m => panic!("start sent {m:?}"),
            })
            .collect();
        assert_eq!(shares, vec![(0, 3), (1, 2)]);
        let report = BatchMsg::Report {
            done: 0,
            structural,
        };
        ctl.handle(report, &bounds, |to, m| sent.push((to, m)));
        // Lane `l` holds item `l` alone: an insert for even `l`, a delete
        // for odd, each sent to its edge's owner.
        let lane_of = |(to, m): &(MachineId, ConnMsg)| {
            let (e, lane, insert) = match *m {
                ConnMsg::Insert { e, w: 1, lane } => (e, lane, true),
                ConnMsg::Delete { e, lane } => (e, lane, false),
                ref m => panic!("lane step sent {m:?}"),
            };
            assert_eq!(*to, ConnMachine::owner_in(&bounds, e.u));
            assert_eq!(lane, Some(e.u / 2));
            assert_eq!(insert, e.u % 4 == 0, "lane {lane:?}");
            lane
        };
        let started: Vec<Option<u32>> = sent.drain(..).map(|s| lane_of(&s)).collect();
        assert_eq!(started, vec![Some(0), Some(1)]);
        for (done, next) in [(0, Some(2)), (1, Some(3)), (2, Some(4)), (3, None)] {
            assert_eq!(ctl.take_stats(), None, "published before the end");
            ctl.handle(BatchMsg::StructDone { lane: done }, &bounds, |to, m| {
                sent.push((to, m))
            });
            let pulled: Vec<Option<u32>> = sent.drain(..).map(|s| lane_of(&s)).collect();
            assert_eq!(pulled, next.map(Some).into_iter().collect::<Vec<_>>());
        }
        assert!(!ctl.is_clear());
        ctl.handle(BatchMsg::StructDone { lane: 4 }, &bounds, |to, m| {
            panic!("the last lane sent {m:?} to {to}")
        });
        let stats = ConflictStats {
            groups: 5,
            depth: 1,
            max_lanes: 2,
        };
        assert_eq!(ctl.take_stats(), Some(stats));
        assert_eq!(ctl.take_stats(), None);
        assert!(ctl.is_clear());
        // An empty batch sends nothing and publishes nothing.
        ctl.handle(BatchMsg::Start { items: Vec::new() }, &bounds, |to, m| {
            panic!("an empty start sent {m:?} to {to}")
        });
        assert_eq!(ctl.take_stats(), None);
        assert!(ctl.is_clear());
    }

    /// An abort drops the run, the statistics and the tally, and keeps the
    /// lane cap, so `serialize_lanes` survives an aborted or revived run.
    #[test]
    fn clear_keeps_the_lane_cap() {
        let mut ctl = BatchCtl::new(11);
        ctl.serialize_lanes();
        let item = BatchItem {
            upd: Update::Insert(Edge::new(0, 1)),
            seq: 0,
        };
        let start = BatchMsg::Start { items: vec![item] };
        ctl.handle(start, &[0, 2], |_, _| {});
        ctl.tally.done = 1;
        ctl.stats = Some(ConflictStats::default());
        assert!(!ctl.is_clear());
        ctl.clear();
        assert!(ctl.is_clear());
        assert_eq!(ctl.cap, 1);
    }
}
