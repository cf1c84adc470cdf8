//! Message vocabulary of the distributed connectivity/MST protocol.

use crate::batch::BatchMsg;
use crate::directory::DirMsg;
use crate::query::QueryMsg;
use dmpc_eulertour::indexed::{CompId, Cut, Link};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, Weight, V};
use dmpc_mpc::{HandoffMsg, MachineId, Payload};

/// O(1)-word summary of one endpoint's tour state, shipped between the two
/// endpoint owners during an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexInfo {
    /// The vertex.
    pub v: V,
    /// Component id (= root vertex of its tree).
    pub comp: CompId,
    /// Component size (vertices).
    pub size: u64,
    /// First tour appearance (0 if singleton).
    pub f: TourIx,
    /// Last tour appearance (0 if singleton).
    pub l: TourIx,
}

/// A tree path, as the owners evaluate its maximum: the component and the
/// two endpoints' tour spans. The value that [`ConnMsg::PathMaxQuery`],
/// [`QueryMsg::PathResolve`] and [`QueryMsg::PathEval`] carry and
/// `Shard::path_max` reads (5 words).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSpans {
    /// The component both endpoints belong to.
    pub comp: CompId,
    /// `f(x)` of one endpoint.
    pub fx: TourIx,
    /// `l(x)` of one endpoint.
    pub lx: TourIx,
    /// `f(y)` of the other endpoint.
    pub fy: TourIx,
    /// `l(y)` of the other endpoint.
    pub ly: TourIx,
}

/// The re-link of an MST swap, as it travels with the cut of the heaviest
/// path edge: the inserted edge, its weight, and the tour spans `(f, l)` of
/// its two endpoints (`e.u`'s first) before the cut. With them and its own
/// index list, the cut's executor knows both endpoints after the cut.
#[derive(Clone, Copy, Debug)]
pub struct Relink {
    /// The inserted edge, which rejoins the two sides of the cut.
    pub e: Edge,
    /// Its weight.
    pub w: Weight,
    /// Pre-cut `(f, l)` of `e.u`, then of `e.v`.
    pub spans: [(TourIx, TourIx); 2],
}

/// One tree-edge cut, as the parent endpoint's owner executes it: the value
/// that travels in [`ConnMsg::NeedParentCut`], parks on a directory fetch,
/// and runs once the component's owner set is known.
#[derive(Clone, Copy, Debug)]
pub struct CutReq {
    /// The tree edge being cut.
    pub e: Edge,
    /// The parent endpoint (owned by the executing machine).
    pub parent: V,
    /// Child endpoint's first appearance.
    pub fy: TourIx,
    /// Child endpoint's last appearance.
    pub ly: TourIx,
    /// `None`: a deleting cut, which searches for a replacement. `Some`: an
    /// MST swap, which keeps `e` as a non-tree edge and links the new edge
    /// in the same multicast ([`Struct::Swap`]).
    pub relink: Option<Relink>,
    /// Batch lane of this flow: signal completion with it.
    pub lane: Option<u32>,
}

/// One structural change as an O(1)-word multicast: the payload of
/// [`ConnMsg::Apply`], sent to the affected components' owner machines only
/// (found through the root-owner directory, see `directory.rs`), each of
/// which applies it to its own tour indexes (`Shard::apply`). Each variant
/// carries only what its receivers read.
#[derive(Clone, Copy, Debug)]
pub enum Struct {
    /// A link of two components.
    Link {
        /// The splice of the absorbed side `link.b` into `link.a`.
        link: Link,
        /// `l(y)` of the link's `y` when `y`'s side is first rerooted at `y`
        /// (the reroot's component and tour length are the link's `b` and
        /// `elen_b`).
        reroot_l_y: Option<TourIx>,
        /// Merged component size: the absorbed side cannot derive it.
        merged_size: u64,
        /// Weight of the linked edge (1 in plain connectivity).
        weight: Weight,
    },
    /// A deleting cut, which searches for a replacement: every owner
    /// reports its candidate and its sides to `rendezvous`.
    Cut {
        /// The cut.
        cut: Cut,
        /// Least tour index of the cut's parent endpoint after the cut (0 if
        /// it becomes a singleton); repairs cached far-endpoint indexes.
        x_after: TourIx,
        /// The machine that gathers the replacement search's reports.
        rendezvous: MachineId,
        /// Batch lane of the originating flow, echoed in the
        /// [`ConnMsg::Report`]s so replies from concurrently running
        /// conflict groups never cross-talk.
        lane: Option<u32>,
    },
    /// An MST swap: the cut of a tree edge that keeps it as a non-tree edge
    /// (a demote), and the link of the inserted edge that rejoins the two
    /// sides, in post-cut indexes. Every owner applies the pair in one
    /// sweep, to the state the cut and the link would leave one after the
    /// other.
    Swap {
        /// The demote.
        cut: Cut,
        /// As a cut's `x_after`.
        x_after: TourIx,
        /// The re-link of the two sides the cut makes.
        link: Link,
        /// As a link's `reroot_l_y`, after the cut.
        reroot_l_y: Option<TourIx>,
        /// Weight of the linked edge.
        weight: Weight,
    },
}

/// Protocol messages. The `lane` tags mark messages belonging to the
/// structural phase of a batch: the controller partitions leftover
/// structural items into conflict groups and runs each group as its own
/// protocol *lane*, so every in-flight message carries its lane id and
/// every terminal step of a lane's flow signals [`BatchMsg::StructDone`]
/// (with the lane) to the controller, which then dispatches that lane's next
/// item. `lane: None` marks a flow outside any batch (single updates, MST
/// swaps), of which at most one is ever in flight. Lane ids pack into the
/// op word, so — like the old boolean flags they replace — they do not
/// change message sizes.
///
/// Owner-set payloads (`Vec<MachineId>`) are O(active machines) = O(sqrt N)
/// words and only ever travel in point-to-point messages (directory fetches
/// and stores, replacement hand-offs), never inside a multicast — the
/// multicast [`ConnMsg::Apply`] stays O(1) words, keeping the per-update
/// communication at O(sqrt N) total.
#[derive(Clone, Debug)]
pub enum ConnMsg {
    /// Injected: insert edge `e` with weight `w`. A cut's rendezvous sends
    /// it too, to link the replacement edge it found (already present as a
    /// non-tree entry at both owners).
    Insert {
        /// The new edge.
        e: Edge,
        /// Its weight (1 for plain connectivity).
        w: Weight,
        /// Batch lane when dispatched by the controller's structural phase.
        lane: Option<u32>,
        /// Owner set of the component a replacement link re-merges (the
        /// cut rendezvous always knows it); `None` for an injected insert.
        known_owners: Option<Vec<MachineId>>,
    },
    /// Injected: delete edge `e`.
    Delete {
        /// The edge to remove.
        e: Edge,
        /// Batch lane when dispatched by the controller's structural phase.
        lane: Option<u32>,
    },
    /// owner(x) -> owner(y): continue an insertion with x's state.
    InsQuery {
        /// The new edge.
        e: Edge,
        /// Its weight.
        w: Weight,
        /// State of the endpoint owned by the sender.
        x: VertexInfo,
        /// Batch lane of this flow: signal completion with it.
        lane: Option<u32>,
        /// Pre-resolved owner set of the merged component, when the sender
        /// already knows it (replacement links after a cut, see
        /// [`ConnMsg::Insert`]).
        /// `None` makes the receiver resolve the union via the directory.
        known_owners: Option<Vec<MachineId>>,
    },
    /// owner(y) -> owner(x): the edge is intra-component; record it as a
    /// non-tree entry at vertex `at`.
    AddNonTree {
        /// The edge.
        e: Edge,
        /// Its weight.
        w: Weight,
        /// The endpoint whose owner should record the entry.
        at: V,
        /// A current tour index of the far endpoint, cached for cut
        /// side-classification.
        cached_far: TourIx,
    },
    /// Remove the non-tree entry of `e` at vertex `at`.
    DelNonTree {
        /// The edge.
        e: Edge,
        /// The endpoint whose owner should drop the entry.
        at: V,
    },
    /// child-owner -> parent-owner: a tree-edge cut where the receiver owns
    /// the parent endpoint; carries the child's span so the parent owner can
    /// compute its surviving index and multicast the cut.
    NeedParentCut {
        /// The cut, addressed to the parent endpoint's owner.
        req: CutReq,
        /// Owner set of the component being cut, when the sender already
        /// holds it (MST swap flows resolve it once for the whole swap).
        owners: Option<Vec<MachineId>>,
    },
    /// Multicast to the affected owner set: apply a structural change.
    Apply(Struct),
    /// machine -> rendezvous: one owner's reply to a searching cut's
    /// [`ConnMsg::Apply`] or to a [`ConnMsg::PathMaxQuery`].
    Report {
        /// The local candidate: the minimum-weight crossing edge a cut may
        /// relink, or the max-weight on-path tree edge.
        best: Option<(Edge, Weight)>,
        /// A cut's only: whether this machine owns >= 1 vertex of the
        /// surviving (parent) and of the detached (child) side (the
        /// directory refinement input).
        sides: Option<[bool; 2]>,
        /// Batch lane of the flow (echoed from the Apply), so the
        /// rendezvous folds each lane's reports separately.
        lane: Option<u32>,
    },
    /// Multicast to the component's owner set: find the max-weight tree
    /// edge on the path between the two spans; every recipient replies to
    /// `rendezvous`.
    PathMaxQuery {
        /// The path between the candidate's endpoints.
        path: PathSpans,
        /// Who aggregates the replies.
        rendezvous: MachineId,
    },
    /// rendezvous -> owner(d.u): demote tree edge `d` and link the new
    /// edge (an MST swap). Carries the component's owner set so the whole
    /// swap resolves the directory once.
    StartSwap {
        /// Tree edge to demote.
        d: Edge,
        /// The new edge and its endpoints' spans.
        relink: Relink,
        /// Owner set of the component being swapped inside.
        owners: Vec<MachineId>,
    },

    // ---- owner directory (see `directory.rs`) -----------------------------
    /// An owner-directory step: fetches, replies, stores and migration
    /// patches of component owner sets.
    Dir(DirMsg),

    // ---- elasticity & recovery (see `machine.rs` "Shard migration") ------
    /// Driver-injected at a migration source: move the vertex range
    /// `lo..hi` to machine `to`, streaming state in `budget`-word chunks.
    MigrateBegin {
        /// The receiving machine (always a neighbour in machine order).
        to: MachineId,
        /// First vertex of the moving range.
        lo: V,
        /// One past the last vertex of the moving range.
        hi: V,
        /// Per-chunk payload budget (words).
        budget: usize,
    },
    /// migration source -> everyone: one partition-table boundary moved.
    /// O(1) words per machine — the *data* never travels with it.
    Boundary {
        /// Index into the bounds table.
        idx: u32,
        /// Its new value.
        val: V,
    },
    /// The snapshot handoff (see `dmpc_mpc::handoff`): a revive's full
    /// state, or a migration's moving vertices, in budgeted chunks.
    Handoff(HandoffMsg),
    /// migration source -> destination: pacing for the patch phase after
    /// the data phase. The destination bounces a
    /// [`HandoffMsg::Ack`], which releases the source's next budget of
    /// directory patches one round later (no machine messages itself).
    MigrateKick,

    // ---- query plane (see `query.rs`) ------------------------------------
    /// A read-only query step: the query plane's whole vocabulary.
    Query(QueryMsg),

    // ---- batch protocol (see `batch.rs`) ----------------------------------
    /// A batch-protocol step: the controller's and the classifiers'
    /// vocabulary.
    Batch(BatchMsg),
}

impl Payload for ConnMsg {
    fn size_words(&self) -> usize {
        match self {
            ConnMsg::Insert { known_owners, .. } => 3 + known_owners.as_ref().map_or(0, Vec::len),
            ConnMsg::Delete { .. } => 2,
            ConnMsg::InsQuery { known_owners, .. } => 8 + known_owners.as_ref().map_or(0, Vec::len),
            ConnMsg::AddNonTree { .. } => 5,
            ConnMsg::DelNonTree { .. } => 3,
            // A swap's re-link adds its endpoints' four span words.
            ConnMsg::NeedParentCut { req, owners } => {
                9 + req.relink.map_or(0, |_| 4) + owners.as_ref().map_or(0, Vec::len)
            }
            // cut (6) + link (6) + x_after/reroot l_y/weight: no size, as
            // every member keeps its own.
            ConnMsg::Apply(Struct::Swap { .. }) => 15,
            // A link or a cut: one fixed 16-word format for both, a reroot
            // (4) + the op (6) + size/x_after/edge/weight/rendezvous and
            // the word that tags the op, wider than either variant's fields.
            ConnMsg::Apply(_) => 16,
            // A cut's report adds its two side flags.
            ConnMsg::Report { sides, .. } => 3 + sides.map_or(0, |_| 2),
            // path (5) + rendezvous + op word.
            ConnMsg::PathMaxQuery { .. } => 7,
            // d, e, w + the four span words.
            ConnMsg::StartSwap { owners, .. } => 9 + owners.len(),
            ConnMsg::MigrateBegin { .. } => 5,
            ConnMsg::Boundary { .. } => 3,
            ConnMsg::Handoff(h) => h.size_words(),
            ConnMsg::MigrateKick => 1,
            ConnMsg::Dir(d) => d.size_words(),
            ConnMsg::Query(q) => q.size_words(),
            ConnMsg::Batch(b) => b.size_words(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchItem, StructItem};

    const PATH: PathSpans = PathSpans {
        comp: 1,
        fx: 2,
        lx: 3,
        fy: 4,
        ly: 5,
    };
    const X: VertexInfo = VertexInfo {
        v: 0,
        comp: 0,
        size: 1,
        f: 0,
        l: 0,
    };

    #[test]
    fn sizes_are_constant_words() {
        let e = Edge::new(0, 1);
        // An injected insert, then a replacement link's, which carries the
        // k owners of the set it re-merges.
        for k in [0, 1, 4] {
            let insert = |known_owners| ConnMsg::Insert {
                e,
                w: 1,
                lane: None,
                known_owners,
            };
            assert_eq!(insert(None).size_words(), 3);
            assert_eq!(insert(Some((0..k).collect())).size_words(), 3 + k as usize);
        }
        assert_eq!(ConnMsg::Delete { e, lane: None }.size_words(), 2);
        // Lane ids pack into the op word: a laned message costs the same.
        assert_eq!(
            ConnMsg::Delete { e, lane: Some(7) }.size_words(),
            ConnMsg::Delete { e, lane: None }.size_words()
        );
        // The multicast payload itself stays O(1) words: owner sets never
        // travel inside an Apply. A link costs the same with or without
        // the reroot of its absorbed side.
        let link = Link {
            a: 0,
            b: 1,
            x: 0,
            y: 3,
            fx: 0,
            elen_b: 4,
        };
        for reroot_l_y in [None, Some(3)] {
            let b = Struct::Link {
                link,
                reroot_l_y,
                merged_size: 3,
                weight: 1,
            };
            assert_eq!(ConnMsg::Apply(b).size_words(), 16);
        }
        // A searching cut's Apply costs what a link's does.
        let cut = Cut {
            comp: 0,
            x: 0,
            y: 1,
            fy: 2,
            ly: 5,
            new_comp: 1,
        };
        let b = Struct::Cut {
            cut,
            x_after: 1,
            rendezvous: 3,
            lane: Some(7),
        };
        assert_eq!(ConnMsg::Apply(b).size_words(), 16);
        // The non-tree entry's add and drop.
        let add = ConnMsg::AddNonTree {
            e,
            w: 1,
            at: 0,
            cached_far: 2,
        };
        assert_eq!(add.size_words(), 5);
        assert_eq!(ConnMsg::DelNonTree { e, at: 0 }.size_words(), 3);
        // A migration's start, its boundary broadcast and its pacing kick.
        let begin = ConnMsg::MigrateBegin {
            to: 1,
            lo: 0,
            hi: 4,
            budget: 64,
        };
        assert_eq!(begin.size_words(), 5);
        assert_eq!(ConnMsg::Boundary { idx: 1, val: 4 }.size_words(), 3);
        assert_eq!(ConnMsg::MigrateKick.size_words(), 1);
        // A searching cut's report: its candidate and its two side flags.
        let best = Some((e, 9));
        for lane in [None, Some(7)] {
            let sides = Some([true, false]);
            assert_eq!(ConnMsg::Report { best, sides, lane }.size_words(), 5);
        }
        // An MST swap's cut and link travel as one multicast, with the
        // reroot folded into one word and no size.
        let s = Struct::Swap {
            cut,
            x_after: 1,
            link,
            reroot_l_y: Some(3),
            weight: 1,
        };
        assert_eq!(ConnMsg::Apply(s).size_words(), 15);
        // No variant grows the message the router copies.
        assert!(std::mem::size_of::<ConnMsg>() <= 120);
    }

    #[test]
    fn owner_set_messages_scale_with_set_size() {
        let owners: Vec<MachineId> = (0..7).collect();
        let d = |m| ConnMsg::Dir(m).size_words();
        assert_eq!(
            d(DirMsg::Fetch {
                comp: 3,
                lane: None
            }),
            2
        );
        assert_eq!(
            d(DirMsg::Reply {
                comp: 3,
                owners: owners.clone(),
                lane: Some(2)
            }),
            9
        );
        // A store costs its set; a drop is the store of the empty set.
        for (k, words) in [(0, 2), (1, 3), (7, 9)] {
            let owners = owners[..k].to_vec();
            assert_eq!(d(DirMsg::Store { comp: 3, owners }), words);
        }
        let absorbed = DirMsg::Store {
            comp: 3,
            owners: vec![],
        };
        assert_eq!(d(absorbed), 2);
        for remove in [Some(1), None] {
            let patch = DirMsg::Patch {
                comp: 3,
                add: 2,
                remove,
            };
            assert_eq!(d(patch), 4);
        }
        // A replacement link's insert carries the set it re-merges.
        assert_eq!(
            ConnMsg::Insert {
                e: Edge::new(0, 1),
                w: 1,
                lane: None,
                known_owners: Some(owners.clone())
            }
            .size_words(),
            10
        );
        assert_eq!(
            ConnMsg::InsQuery {
                e: Edge::new(0, 1),
                w: 1,
                x: X,
                lane: None,
                known_owners: None,
            }
            .size_words(),
            8
        );
        // A deleting cut's request, then an MST swap's, which carries the
        // new edge's endpoints' four pre-cut span words besides.
        let relink = Relink {
            e: Edge::new(2, 3),
            w: 4,
            spans: [(6, 7), (8, 9)],
        };
        for (relink, words) in [(None, 9), (Some(relink), 13)] {
            let req = CutReq {
                e: Edge::new(0, 1),
                parent: 0,
                fy: 2,
                ly: 5,
                relink,
                lane: None,
            };
            assert_eq!(
                ConnMsg::NeedParentCut { req, owners: None }.size_words(),
                words
            );
            assert_eq!(
                ConnMsg::NeedParentCut {
                    req,
                    owners: Some(owners.clone())
                }
                .size_words(),
                words + 7
            );
        }
        assert_eq!(
            ConnMsg::StartSwap {
                d: Edge::new(0, 1),
                relink,
                owners
            }
            .size_words(),
            16
        );
    }

    #[test]
    fn query_messages_are_constant_words() {
        // Query-plane payloads carry no owner sets or item lists: every
        // message is O(1) words, so a q-query wave totals O(q).
        let q = |m| ConnMsg::Query(m).size_words();
        assert_eq!(
            q(QueryMsg::ConnProbe {
                qid: 0,
                probe: 1,
                expect: 2,
                rendezvous: 3
            }),
            4
        );
        assert_eq!(
            q(QueryMsg::ConnJoin {
                qid: 0,
                comp: 5,
                expect: 2
            }),
            4
        );
        assert_eq!(
            q(QueryMsg::PathJoin {
                qid: 0,
                best: Some((Edge::new(0, 1), 9)),
                expect: 4,
                connected: true
            }),
            6
        );
        assert_eq!(
            q(QueryMsg::PathEval {
                qid: 0,
                path: PATH,
                rendezvous: 6,
                expect: 7
            }),
            9
        );
    }

    #[test]
    fn path_max_messages_are_exact_words() {
        // The update path's path-max multicast and report and the query
        // plane's start, probe and resolve, each at its exact charge (the
        // evaluation and the join are pinned above).
        let best = Some((Edge::new(0, 1), 9));
        assert_eq!(
            ConnMsg::PathMaxQuery {
                path: PATH,
                rendezvous: 9
            }
            .size_words(),
            7
        );
        for best in [best, None] {
            let report = ConnMsg::Report {
                best,
                sides: None,
                lane: None,
            };
            assert_eq!(report.size_words(), 3);
        }
        let q = |m| ConnMsg::Query(m).size_words();
        assert_eq!(
            q(QueryMsg::PathStart {
                qid: 0,
                u: 1,
                v: 2,
                rendezvous: 3
            }),
            5
        );
        assert_eq!(
            q(QueryMsg::PathProbe {
                qid: 0,
                v: 1,
                comp: 2,
                fx: 3,
                lx: 4,
                rendezvous: 5
            }),
            7
        );
        assert_eq!(
            q(QueryMsg::PathResolve {
                qid: 0,
                path: PATH,
                rendezvous: 6
            }),
            8
        );
    }

    #[test]
    fn batch_message_sizes_scale_with_items() {
        let b = |m| ConnMsg::Batch(m).size_words();
        let item = BatchItem {
            upd: dmpc_graph::Update::Insert(Edge::new(0, 1)),
            seq: 0,
        };
        assert_eq!(
            b(BatchMsg::Start {
                items: vec![item; 5]
            }),
            16
        );
        // The controller's per-owner share costs what the batch does.
        for k in [0, 1, 4] {
            assert_eq!(
                b(BatchMsg::Classify {
                    items: vec![item; k]
                }),
                1 + 3 * k
            );
        }
        assert_eq!(
            b(BatchMsg::InsClassify {
                e: Edge::new(0, 1),
                w: 1,
                x: X,
                seq: 2
            }),
            9
        );
        // Each structural leftover ships its item plus the two touched
        // component ids (the conflict partitioner's input): 5 words.
        let s = StructItem { item, ca: 0, cb: 1 };
        assert_eq!(
            b(BatchMsg::Report {
                done: 3,
                structural: vec![s; 2]
            }),
            12
        );
        assert_eq!(b(BatchMsg::StructDone { lane: 3 }), 1);
    }
}
