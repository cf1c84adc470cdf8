//! The connectivity query plane.
//!
//! Reads never enter the structural-op machinery: a wave of `q` queries is
//! injected in one round and resolved by stateless probes joining at
//! per-query *rendezvous* machines (`rendezvous = qid mod P`), whose partial
//! folds are keyed by query id so the whole wave aggregates concurrently —
//! where the update path parks at most one flow per lane, so structural ops
//! of one lane serialize.
//!
//! * `Connected(u, v)` / `ComponentOf(u)`: one [`QueryMsg::ConnProbe`] per
//!   endpoint is injected at the endpoint's owner, which sends the
//!   component id to the rendezvous ([`QueryMsg::ConnJoin`]); the
//!   rendezvous compares (or reports) the ids. Two rounds for the whole
//!   wave, O(1) words per query.
//! * `PathMax(u, v)`: u's owner ([`QueryMsg::PathStart`]) ships u's tour
//!   span to v's owner ([`QueryMsg::PathProbe`]); on a component match the
//!   root owner resolves the owner set from its directory shard
//!   ([`QueryMsg::PathResolve`], reusing the component-owner directory) and
//!   multicasts the evaluation ([`QueryMsg::PathEval`]); every owner joins
//!   its local on-path maximum at the rendezvous ([`QueryMsg::PathJoin`]).
//!   Five rounds for the whole wave.
//!
//! Answers are stashed at the rendezvous and drained by the driver after
//! quiescence (result extraction, like `comp_of`). The driver chunks waves
//! to `O(sqrt N)` queries so rendezvous fan-in respects the machine
//! capacity `S`. All query traffic flows through the same `Outbox` counters
//! as updates, so send/receive caps and flow maps meter reads exactly like
//! writes.
//!
//! A step sees its machine through a `Reader` of shared borrows only (the
//! partition table, the vertex and directory shards), so it cannot write
//! them and a wave is invisible to later updates; it writes only its own
//! `QueryPlane`. The query-plane property tests check this from outside.

use crate::directory::Directory;
use crate::machine::{heaviest, ConnMachine};
use crate::messages::PathSpans;
use crate::shard::Shard;
use dmpc_eulertour::indexed::CompId;
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, QueryAnswer, Weight, V};
use dmpc_mpc::MachineId;
use std::collections::BTreeMap;

/// Query-plane messages, carried as [`crate::messages::ConnMsg::Query`].
/// Every one is O(1) words: a q-query wave totals O(q).
#[derive(Clone, Debug)]
pub enum QueryMsg {
    /// Injected at `probe`'s owner: report `probe`'s component id to the
    /// query's rendezvous. `expect = 1` resolves a `ComponentOf` query,
    /// `expect = 2` one endpoint of a `Connected` query.
    ConnProbe {
        /// Query id within the wave (the rendezvous' fold key).
        qid: u32,
        /// The probed vertex (owned by the receiver).
        probe: V,
        /// Joins the rendezvous must fold for this query (1 or 2).
        expect: u8,
        /// The per-query rendezvous machine.
        rendezvous: MachineId,
    },
    /// owner -> rendezvous: one endpoint's component id.
    ConnJoin {
        /// Query id.
        qid: u32,
        /// The probed endpoint's component id.
        comp: CompId,
        /// Joins expected for this query (echoed from the probe).
        expect: u8,
    },
    /// Injected at `u`'s owner: start a `PathMax(u, v)` query.
    PathStart {
        /// Query id.
        qid: u32,
        /// One endpoint (owned by the receiver).
        u: V,
        /// The other endpoint.
        v: V,
        /// The per-query rendezvous machine.
        rendezvous: MachineId,
    },
    /// owner(u) -> owner(v): u's tour span and component.
    PathProbe {
        /// Query id.
        qid: u32,
        /// The far endpoint (owned by the receiver).
        v: V,
        /// u's component id.
        comp: CompId,
        /// u's first tour appearance.
        fx: TourIx,
        /// u's last tour appearance.
        lx: TourIx,
        /// The per-query rendezvous machine.
        rendezvous: MachineId,
    },
    /// owner(v) -> root owner of `comp`: resolve the component's owner set
    /// from the directory shard and fan the evaluation out.
    PathResolve {
        /// Query id.
        qid: u32,
        /// The shared component, u's span and v's span.
        path: PathSpans,
        /// The per-query rendezvous machine.
        rendezvous: MachineId,
    },
    /// root owner -> every owner of `comp`: evaluate the local on-path
    /// maximum and join at the rendezvous.
    PathEval {
        /// Query id.
        qid: u32,
        /// The component, u's span and v's span.
        path: PathSpans,
        /// The per-query rendezvous machine.
        rendezvous: MachineId,
        /// Joins the rendezvous must fold (= the owner-set size).
        expect: u32,
    },
    /// owner -> rendezvous: local on-path maximum, or the disconnected
    /// verdict (`expect = 1`, `connected = false`).
    PathJoin {
        /// Query id.
        qid: u32,
        /// Local maximum-weight on-path tree edge, if any.
        best: Option<(Edge, Weight)>,
        /// Joins expected for this query.
        expect: u32,
        /// False iff the endpoints turned out disconnected.
        connected: bool,
    },
}

impl QueryMsg {
    /// Words of the message (the charge of its `ConnMsg::Query`).
    pub fn size_words(&self) -> usize {
        match self {
            QueryMsg::ConnProbe { .. } | QueryMsg::ConnJoin { .. } => 4,
            QueryMsg::PathStart { .. } => 5,
            QueryMsg::PathProbe { .. } => 7,
            QueryMsg::PathResolve { .. } => 8,
            QueryMsg::PathEval { .. } => 9,
            QueryMsg::PathJoin { .. } => 6,
        }
    }
}

/// What a query step may see of machine `id`: shared borrows of its
/// partition table, owned vertex shard and owner directory shard.
pub(crate) struct Reader<'a> {
    pub(crate) id: MachineId,
    pub(crate) bounds: &'a [V],
    pub(crate) verts: &'a Shard,
    pub(crate) dir: &'a Directory,
}

impl Reader<'_> {
    fn owner(&self, v: V) -> MachineId {
        ConnMachine::owner_in(self.bounds, v)
    }
}

/// Rendezvous-side partial fold of one in-flight query. Like the
/// lane-keyed update state (`parked`), query folds are keyed by query id so
/// a whole wave of queries aggregates concurrently; an entry is removed (and
/// the answer stashed) the moment its last join arrives.
#[derive(Debug)]
enum QueryFold {
    /// A `Connected`/`ComponentOf` fold over component-id joins.
    Conn {
        /// Joins expected.
        expect: u8,
        /// Joins folded so far.
        got: u8,
        /// The first join's component id.
        first: CompId,
        /// All joins so far agree with `first`.
        all_eq: bool,
    },
    /// A `PathMax` fold over per-owner local maxima.
    Path {
        /// Joins expected.
        expect: u32,
        /// Joins folded so far.
        got: u32,
        /// Running maximum, folded by [`heaviest`] like the update path's.
        best: Option<(Edge, Weight)>,
        /// No join reported the endpoints disconnected.
        connected: bool,
    },
}

/// One machine's query-plane state: the folds of the queries it is the
/// rendezvous of, and the answers they completed.
#[derive(Debug, Default)]
pub(crate) struct QueryPlane {
    /// Partial folds, keyed by query id.
    folds: BTreeMap<u32, QueryFold>,
    /// Completed answers, drained by the driver after the wave quiesces.
    answers: Vec<(u32, QueryAnswer)>,
}

impl QueryPlane {
    /// Runs one query step against `at`, sending each next step to its
    /// machine through `send`.
    pub(crate) fn handle(
        &mut self,
        msg: QueryMsg,
        at: &Reader,
        mut send: impl FnMut(MachineId, QueryMsg),
    ) {
        match msg {
            QueryMsg::ConnProbe {
                qid,
                probe,
                expect,
                rendezvous,
            } => {
                let comp = at.verts.comp_of(probe);
                send(rendezvous, QueryMsg::ConnJoin { qid, comp, expect });
            }
            QueryMsg::ConnJoin { qid, comp, expect } => {
                let fold = self.folds.entry(qid).or_insert(QueryFold::Conn {
                    expect,
                    got: 0,
                    first: comp,
                    all_eq: true,
                });
                let QueryFold::Conn {
                    expect,
                    got,
                    first,
                    all_eq,
                } = fold
                else {
                    panic!("query id {qid} folded as both Conn and Path");
                };
                *got += 1;
                *all_eq &= *first == comp;
                // The joins can span rounds when one endpoint's owner is
                // the rendezvous itself and answers in-round.
                if *got == *expect {
                    let answer = if *expect == 1 {
                        QueryAnswer::Component(*first)
                    } else {
                        QueryAnswer::Bool(*all_eq)
                    };
                    self.folds.remove(&qid);
                    self.answers.push((qid, answer));
                }
            }
            QueryMsg::PathStart {
                qid,
                u,
                v,
                rendezvous,
            } => {
                let ui = at.verts.info(u);
                let probe = QueryMsg::PathProbe {
                    qid,
                    v,
                    comp: ui.comp,
                    fx: ui.f,
                    lx: ui.l,
                    rendezvous,
                };
                send(at.owner(v), probe);
            }
            QueryMsg::PathProbe {
                qid,
                v,
                comp,
                fx,
                lx,
                rendezvous,
            } => {
                let vi = at.verts.info(v);
                if vi.comp != comp {
                    let join = QueryMsg::PathJoin {
                        qid,
                        best: None,
                        expect: 1,
                        connected: false,
                    };
                    send(rendezvous, join);
                } else {
                    let path = PathSpans {
                        comp,
                        fx,
                        lx,
                        fy: vi.f,
                        ly: vi.l,
                    };
                    let resolve = QueryMsg::PathResolve {
                        qid,
                        path,
                        rendezvous,
                    };
                    send(at.owner(comp as V), resolve);
                }
            }
            // The root owner is always a member of the set (it owns the
            // component's root vertex), so its own evaluation runs here in
            // the same round.
            QueryMsg::PathResolve {
                qid,
                path,
                rendezvous,
            } => {
                debug_assert_eq!(at.owner(path.comp as V), at.id, "resolve at non-root owner");
                let owners = at.dir.owners(path.comp, &at.id);
                let expect = u32::try_from(owners.len()).expect("at most P owners");
                for &m in owners {
                    let eval = QueryMsg::PathEval {
                        qid,
                        path,
                        rendezvous,
                        expect,
                    };
                    send(m, eval);
                }
            }
            QueryMsg::PathEval {
                qid,
                path,
                rendezvous,
                expect,
            } => {
                let join = QueryMsg::PathJoin {
                    qid,
                    best: at.verts.path_max(&path),
                    expect,
                    connected: true,
                };
                send(rendezvous, join);
            }
            QueryMsg::PathJoin {
                qid,
                best,
                expect,
                connected,
            } => {
                let fold = self.folds.entry(qid).or_insert(QueryFold::Path {
                    expect,
                    got: 0,
                    best: None,
                    connected: true,
                });
                let QueryFold::Path {
                    expect,
                    got,
                    best: acc,
                    connected: conn,
                } = fold
                else {
                    panic!("query id {qid} folded as both Conn and Path");
                };
                *got += 1;
                *conn &= connected;
                *acc = heaviest([*acc, best]);
                if *got == *expect {
                    let answer = QueryAnswer::PathMax(if *conn { *acc } else { None });
                    self.folds.remove(&qid);
                    self.answers.push((qid, answer));
                }
            }
        }
    }

    /// Drains the stashed answers.
    pub(crate) fn take_answers(&mut self) -> Vec<(u32, QueryAnswer)> {
        std::mem::take(&mut self.answers)
    }

    /// True when no fold is open and no answer is stashed.
    pub(crate) fn is_empty(&self) -> bool {
        self.folds.is_empty() && self.answers.is_empty()
    }

    /// Drops every fold and answer (a cut-short run's leftovers).
    pub(crate) fn clear(&mut self) {
        self.folds.clear();
        self.answers.clear();
    }

    /// Folds and stashed answers, both bounded by the driver's wave
    /// chunking.
    pub(crate) fn memory_words(&self) -> usize {
        6 * self.folds.len() + 4 * self.answers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path-max query over a component that spans 70,000 machines, more
    /// than a 16-bit join count holds: every evaluation carries the full
    /// count, and the rendezvous answers once, after the last join.
    #[test]
    fn path_max_joins_count_past_u16() {
        const OWNERS: u32 = 70_000;
        let verts = Shard::new_range(0, 1);
        let mut dir = Directory::default();
        dir.store(0, (0..OWNERS).collect());
        let at = Reader {
            id: 0,
            bounds: &[0, 1],
            verts: &verts,
            dir: &dir,
        };
        let path = PathSpans {
            comp: 0,
            fx: 1,
            lx: 2,
            fy: 3,
            ly: 4,
        };
        let mut plane = QueryPlane::default();
        let mut sent = Vec::new();
        let resolve = QueryMsg::PathResolve {
            qid: 0,
            path,
            rendezvous: 0,
        };
        plane.handle(resolve, &at, |to, msg| sent.push((to, msg)));
        assert_eq!(sent.len(), OWNERS as usize);
        for (i, (to, msg)) in sent.iter().enumerate() {
            assert_eq!(*to, i as MachineId);
            assert!(
                matches!(msg, QueryMsg::PathEval { expect: OWNERS, .. }),
                "{msg:?}"
            );
        }
        let heavy = (Edge::new(5, 6), 9);
        for j in 0..OWNERS {
            let join = QueryMsg::PathJoin {
                qid: 0,
                best: (j == 7).then_some(heavy),
                expect: OWNERS,
                connected: true,
            };
            plane.handle(join, &at, |_, msg| panic!("a join sends {msg:?}"));
            assert_eq!(plane.answers.is_empty(), j + 1 < OWNERS, "join {j}");
        }
        assert_eq!(
            plane.take_answers(),
            vec![(0, QueryAnswer::PathMax(Some(heavy)))]
        );
        assert!(plane.is_empty());
    }
}
