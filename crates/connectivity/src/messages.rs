//! Message vocabulary of the distributed connectivity/MST protocol.

use crate::batch::BatchMsg;
use crate::query::QueryMsg;
use dmpc_eulertour::indexed::{CompId, TourOp};
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

/// What happens to the cut edge's adjacency entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutMode {
    /// The edge is being deleted from the graph.
    Remove,
    /// The edge stays in the graph as a non-tree edge (MST swaps).
    Demote,
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
    /// Remove (deletion) or demote (MST swap).
    pub mode: CutMode,
    /// Run the replacement search after the cut.
    pub search: bool,
    /// Link this edge right after the cut (MST swaps).
    pub then_link: Option<(Edge, Weight)>,
    /// Batch lane of this flow: signal completion with it.
    pub lane: Option<u32>,
}

/// The O(1)-word structural-change payload, multicast to the affected
/// components' owner machines only (found through the root-owner
/// directory, see `machine.rs`).
#[derive(Clone, Copy, Debug)]
pub struct StructBroadcast {
    /// Optional reroot of the absorbed side (links only).
    pub reroot: Option<TourOp>,
    /// The main op: a link or a cut.
    pub main: TourOp,
    /// Merged component size (links) — the absorbed side cannot derive it.
    pub merged_size: u64,
    /// Valid tour index of the cut's parent endpoint after the cut
    /// (0 if it becomes a singleton); repairs cached far-endpoint indexes.
    pub x_after: TourIx,
    /// The graph edge being linked or cut.
    pub edge: Edge,
    /// Weight of a linked edge (1 in plain connectivity).
    pub weight: Weight,
    /// For cuts: what to do with the edge's adjacency entries.
    pub cut_mode: CutMode,
    /// For cuts in delete mode: the rendezvous machine for the replacement
    /// search; `None` disables the search (MST swap cuts reconnect
    /// immediately via the new edge).
    pub rendezvous: Option<MachineId>,
    /// Batch lane of the originating flow, echoed in the [`ConnMsg::CutReport`]s
    /// so replies from concurrently running conflict groups never cross-talk.
    pub lane: Option<u32>,
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
    /// Injected: insert edge `e` with weight `w`.
    Insert {
        /// The new edge.
        e: Edge,
        /// Its weight (1 for plain connectivity).
        w: Weight,
        /// Batch lane when dispatched by the controller's structural phase.
        lane: Option<u32>,
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
        /// already knows it (replacement links after a cut, MST swap links).
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
    Apply(StructBroadcast),
    /// machine -> rendezvous: reply to a searching cut — the local best
    /// replacement candidate plus which sides of the split this machine
    /// still owns vertices of (the directory refinement input).
    CutReport {
        /// Minimum-weight locally stored crossing edge, if any.
        best: Option<(Edge, Weight)>,
        /// This machine owns >= 1 vertex of the surviving (parent) side.
        owns_parent: bool,
        /// This machine owns >= 1 vertex of the detached (child) side.
        owns_child: bool,
        /// Batch lane of the cut (echoed from the Apply), so the rendezvous
        /// folds each lane's reports separately.
        lane: Option<u32>,
    },
    /// rendezvous -> owner(e.u): link edge `e` (already present as a
    /// non-tree entry at both owners, or about to be created by a swap).
    StartLink {
        /// The edge to link.
        e: Edge,
        /// Its weight.
        w: Weight,
        /// Batch lane of this flow: signal completion with it.
        lane: Option<u32>,
        /// Owner set of the component the link will re-merge (the sender —
        /// a cut rendezvous or swap initiator — always knows it).
        owners: Vec<MachineId>,
    },
    /// Multicast to the component's owner set: find the max-weight tree
    /// edge on the path between the two spans; every recipient replies to
    /// `rendezvous`.
    PathMaxQuery {
        /// The path between the candidate's endpoints.
        path: PathSpans,
        /// Candidate new edge.
        e: Edge,
        /// Candidate weight.
        w: Weight,
        /// Who aggregates the replies.
        rendezvous: MachineId,
    },
    /// machine -> rendezvous: local max-weight on-path tree edge.
    PathMaxReply {
        /// Local maximum (edge, weight) among owned on-path tree edges.
        best: Option<(Edge, Weight)>,
    },
    /// rendezvous -> owner(d.u): demote tree edge `d`, then link `e`
    /// (an MST swap). Carries the component's owner set so the whole swap
    /// resolves the directory once.
    StartSwap {
        /// Tree edge to demote.
        d: Edge,
        /// New edge to link.
        e: Edge,
        /// New edge's weight.
        w: Weight,
        /// Owner set of the component being swapped inside.
        owners: Vec<MachineId>,
    },

    // ---- owner directory (see `machine.rs` "The owner directory") --------
    /// any machine -> root owner of `comp`: request the component's owner
    /// set. The root owner (= `owner_of(comp)`, derivable locally because a
    /// component id is its root vertex) replies with [`ConnMsg::DirReply`].
    DirFetch {
        /// Component whose owner set is requested.
        comp: CompId,
        /// Batch lane of the fetching flow, echoed in the reply so the
        /// requester resumes the right lane's pending continuation.
        lane: Option<u32>,
    },
    /// root owner -> requester: the component's owner set.
    DirReply {
        /// The component.
        comp: CompId,
        /// Machines owning >= 1 vertex of it (sorted, deduplicated).
        owners: Vec<MachineId>,
        /// Batch lane of the fetching flow (echoed from the fetch).
        lane: Option<u32>,
    },
    /// any machine -> root owner of `comp`: install the component's owner
    /// set (sets of size < 2 are erased — the implicit singleton fallback
    /// `{owner_of(comp)}` covers them).
    DirStore {
        /// The component.
        comp: CompId,
        /// Its new owner set.
        owners: Vec<MachineId>,
    },
    /// any machine -> root owner of `comp`: the component id was absorbed
    /// by a link; drop its directory entry.
    DirDrop {
        /// The absorbed component.
        comp: CompId,
    },

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
    /// migration source -> remote root owner: incrementally repair `comp`'s
    /// stored owner set after a shard migration (the component itself was
    /// untouched, only ownership of some members moved).
    DirPatch {
        /// The component whose owner set changed.
        comp: CompId,
        /// Machine that now owns >= 1 of its vertices.
        add: MachineId,
        /// Machine that no longer owns any (the source, when drained).
        remove: Option<MachineId>,
    },

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
            ConnMsg::Insert { .. } => 3,
            ConnMsg::Delete { .. } => 2,
            ConnMsg::InsQuery { known_owners, .. } => 8 + known_owners.as_ref().map_or(0, Vec::len),
            ConnMsg::AddNonTree { .. } => 5,
            ConnMsg::DelNonTree { .. } => 3,
            ConnMsg::NeedParentCut { owners, .. } => 9 + owners.as_ref().map_or(0, Vec::len),
            // reroot (4) + main (6) + size/x_after/edge/weight/mode/rdv.
            ConnMsg::Apply(_) => 16,
            ConnMsg::CutReport { .. } => 5,
            ConnMsg::StartLink { owners, .. } => 3 + owners.len(),
            ConnMsg::PathMaxQuery { .. } => 10,
            ConnMsg::PathMaxReply { .. } => 3,
            ConnMsg::StartSwap { owners, .. } => 5 + owners.len(),
            ConnMsg::MigrateBegin { .. } => 5,
            ConnMsg::Boundary { .. } => 3,
            ConnMsg::Handoff(h) => h.size_words(),
            ConnMsg::MigrateKick => 1,
            ConnMsg::DirPatch { .. } => 4,
            ConnMsg::DirFetch { .. } | ConnMsg::DirDrop { .. } => 2,
            ConnMsg::DirReply { owners, .. } | ConnMsg::DirStore { owners, .. } => 2 + owners.len(),
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
        assert!(
            ConnMsg::Insert {
                e,
                w: 1,
                lane: None
            }
            .size_words()
                <= 16
        );
        assert_eq!(ConnMsg::Delete { e, lane: None }.size_words(), 2);
        // Lane ids pack into the op word: a laned message costs the same.
        assert_eq!(
            ConnMsg::Delete { e, lane: Some(7) }.size_words(),
            ConnMsg::Delete { e, lane: None }.size_words()
        );
        // The multicast payload itself stays O(1) words: owner sets never
        // travel inside an Apply.
        let b = StructBroadcast {
            reroot: None,
            main: dmpc_eulertour::indexed::TourOp::Link {
                a: 0,
                b: 1,
                x: 0,
                y: 1,
                fx: 0,
                elen_b: 0,
            },
            merged_size: 2,
            x_after: 0,
            edge: e,
            weight: 1,
            cut_mode: CutMode::Remove,
            rendezvous: None,
            lane: None,
        };
        assert_eq!(ConnMsg::Apply(b).size_words(), 16);
    }

    #[test]
    fn owner_set_messages_scale_with_set_size() {
        let owners: Vec<MachineId> = (0..7).collect();
        assert_eq!(
            ConnMsg::DirFetch {
                comp: 3,
                lane: None
            }
            .size_words(),
            2
        );
        assert_eq!(
            ConnMsg::DirReply {
                comp: 3,
                owners: owners.clone(),
                lane: Some(2)
            }
            .size_words(),
            9
        );
        assert_eq!(
            ConnMsg::StartLink {
                e: Edge::new(0, 1),
                w: 1,
                lane: None,
                owners: owners.clone()
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
        let req = CutReq {
            e: Edge::new(0, 1),
            parent: 0,
            fy: 2,
            ly: 5,
            mode: CutMode::Demote,
            search: false,
            then_link: Some((Edge::new(2, 3), 4)),
            lane: None,
        };
        assert_eq!(ConnMsg::NeedParentCut { req, owners: None }.size_words(), 9);
        assert_eq!(
            ConnMsg::NeedParentCut {
                req,
                owners: Some(owners.clone())
            }
            .size_words(),
            16
        );
        assert_eq!(
            ConnMsg::StartSwap {
                d: Edge::new(0, 1),
                e: Edge::new(2, 3),
                w: 4,
                owners
            }
            .size_words(),
            12
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
        // The update path's path-max multicast and reply and the query
        // plane's start, probe and resolve, each at its exact charge (the
        // evaluation and the join are pinned above).
        let best = Some((Edge::new(0, 1), 9));
        assert_eq!(
            ConnMsg::PathMaxQuery {
                path: PATH,
                e: Edge::new(6, 7),
                w: 8,
                rendezvous: 9
            }
            .size_words(),
            10
        );
        assert_eq!(ConnMsg::PathMaxReply { best }.size_words(), 3);
        assert_eq!(ConnMsg::PathMaxReply { best: None }.size_words(), 3);
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
