//! History repair and history trim are host-side machinery: however they
//! are implemented, the machine state they leave must be the one the repair
//! kernel defines. Four kinds of check:
//!
//! * a differential property test of the storage/overflow `repair` against
//!   the kernel ([`repair_entry`]) folded entry by entry — the oracle is the
//!   kernel, not a second implementation — over `MatchAdd`/`MatchDel`-only
//!   slices (served through the storage machine's neighbour index) and
//!   mixed ones (served by the pass);
//! * an audit of that index against the arena after every step of the
//!   storage protocol;
//! * byte-level pins of the coordinator's `seen` lines (a machine synced at
//!   seq 0 is emitted, a never-synced one is not);
//! * a golden digest and golden model metrics for one seeded stream, so a
//!   host-side rewrite that moves a word, a round or a bit of state fails.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::streams::{self, Update};
use dmpc_graph::{Edge, V};
use dmpc_matching::maximal::coordinator::Coordinator;
use dmpc_matching::maximal::msg::{
    repair_entry, Ann, HistEntry, HistSlice, StoreAns, StoreReq, NO_MATE,
};
use dmpc_matching::maximal::storage::{OverflowMachine, StorageMachine, StoreVertex};
use dmpc_matching::maximal::Layout;
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::BatchMetrics;
use proptest::prelude::*;

/// Vertex universe of the differential test: small, so slices keep hitting
/// the same vertices (repeated adds/dels on one vertex, heavy/light flips of
/// a current mate).
const UNIVERSE: V = 10;
/// Every universe vertex has a twin this far above it, which the storage
/// machine's neighbour index (keyed by the low 16 bits) files under the same
/// key; twins meet in one slot and across slots all the time.
const ALIAS: V = 1 << 16;
/// The storage machine under test owns `LO..HI`; the rest of the universe
/// only appears as neighbors, mates and non-owned heavy/light flips.
const LO: V = 2;
const HI: V = 7;

type RawEntry = (u32, u32, u32, bool, bool);

fn vert(raw: u32) -> V {
    raw % UNIVERSE + ALIAS * (raw / UNIVERSE % 2)
}

fn ann_from(kind: u32, mate: V, mate_light: bool) -> Ann {
    match kind % 4 {
        0 => Ann::free(),
        // Unmatched with a leftover mate id: never produced by the
        // protocol, but the repair must not care.
        1 => Ann {
            matched: false,
            mate,
            mate_light,
        },
        _ => Ann {
            matched: true,
            mate,
            mate_light,
        },
    }
}

fn entries_from(raw: &[RawEntry]) -> Vec<(V, Ann)> {
    raw.iter()
        .map(|&(nbr, kind, mate, light, _)| (vert(nbr), ann_from(kind, vert(mate), light)))
        .collect()
}

/// A seq-contiguous slice starting at `first_seq`, of `kinds` entry kinds:
/// 2 keeps it to `MatchAdd`/`MatchDel`, 4 mixes `Heavy`/`Light` in.
fn slice_from(raw: &[RawEntry], first_seq: u64, kinds: u32) -> HistSlice {
    let entries: Vec<HistEntry> = raw
        .iter()
        .map(|&(kind, a, b, la, lb)| {
            let (a, b) = (vert(a), vert(b));
            let b = if a == b { (b + 1) % UNIVERSE } else { b };
            match kind % kinds {
                0 => HistEntry::MatchAdd(Edge::new(a, b), la, lb),
                1 => HistEntry::MatchDel(Edge::new(a, b)),
                2 => HistEntry::Heavy(a),
                _ => HistEntry::Light(a),
            }
        })
        .collect();
    HistSlice::new(first_seq, entries)
}

/// The oracle: every entry folds the unseen part of the slice through the
/// kernel, in slice order.
fn fold_kernel(entries: &mut [(V, Ann)], hist: &HistSlice, last_seen: u64) {
    for (nbr, ann) in entries.iter_mut() {
        for (_, h) in numbered(hist).filter(|&(seq, _)| seq > last_seen) {
            repair_entry(h, *nbr, ann);
        }
    }
}

fn seen_after(hist: &HistSlice, last_seen: u64) -> u64 {
    hist.seqs()
        .next_back()
        .map_or(last_seen, |seq| seq.max(last_seen))
}

/// Each entry of the slice with its seq.
fn numbered(hist: &HistSlice) -> impl Iterator<Item = (u64, &HistEntry)> {
    hist.seqs().zip(hist.entries())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A refresh with `slice` leaves exactly the state the kernel fold defines,
    /// including owned heavy flags and the sync point, for stale prefixes
    /// and empty fresh suffixes alike — whether the slice is all
    /// `MatchAdd`/`MatchDel` (half the cases; the index serves it) or mixed.
    #[test]
    fn storage_repair_equals_kernel_fold(
        (verts, raw_hist, first_seq, stale, match_only) in (
            collection::vec(
                (any::<bool>(), collection::vec(
                    (0u32..64, 0u32..64, 0u32..64, any::<bool>(), any::<bool>()), 0..7)),
                5..6),
            collection::vec((0u32..64, 0u32..64, 0u32..64, any::<bool>(), any::<bool>()), 0..14),
            1u64..40,
            0u64..16,
            any::<bool>(),
        )
    ) {
        let hist = slice_from(&raw_hist, first_seq, if match_only { 2 } else { 4 });
        // `stale` entries of the slice are already seen (possibly all).
        let last_seen = first_seq - 1 + stale.min(hist.entries().len() as u64);
        let mut want = StorageMachine::new(LO, HI, 4);
        let mut got = StorageMachine::new(LO, HI, 4);
        for (v, (heavy, raw)) in (LO..HI).zip(&verts) {
            let entries = entries_from(raw);
            got.load(v, StoreVertex { heavy: *heavy, entries: entries.clone() });
            let mut heavy = *heavy;
            for (seq, &h) in numbered(&hist) {
                match h {
                    HistEntry::Heavy(c) if c == v && seq > last_seen => heavy = true,
                    HistEntry::Light(c) if c == v && seq > last_seen => heavy = false,
                    _ => {}
                }
            }
            let mut entries = entries;
            fold_kernel(&mut entries, &hist, last_seen);
            want.load(v, StoreVertex { heavy, entries });
        }
        want.set_last_seen(seen_after(&hist, last_seen));
        got.set_last_seen(last_seen);
        prop_assert!(got.handle(&hist, StoreReq::Refresh).is_none());
        prop_assert_eq!(got.last_seen(), want.last_seen());
        prop_assert_eq!(got.snapshot_text(), want.snapshot_text());
        got.settle_index();
        prop_assert_eq!(got.audit_index(), Ok(()));
    }

    /// The overflow machine's suspended stack under the same oracle.
    #[test]
    fn overflow_repair_equals_kernel_fold(
        (raw_edges, raw_hist, first_seq, stale) in (
            collection::vec((0u32..64, 0u32..64, 0u32..64, any::<bool>(), any::<bool>()), 0..12),
            collection::vec((0u32..64, 0u32..64, 0u32..64, any::<bool>(), any::<bool>()), 0..14),
            1u64..40,
            0u64..16,
        )
    ) {
        let hist = slice_from(&raw_hist, first_seq, 4);
        let last_seen = first_seq - 1 + stale.min(hist.entries().len() as u64);
        let edges = entries_from(&raw_edges);
        let mut got = OverflowMachine::default();
        got.load(3, edges.clone(), last_seen);
        let mut repaired = edges;
        fold_kernel(&mut repaired, &hist, last_seen);
        let mut want = OverflowMachine::default();
        want.load(3, repaired, seen_after(&hist, last_seen));
        prop_assert!(got.handle(&hist, StoreReq::Refresh).is_none());
        prop_assert_eq!(got.snapshot_text(), want.snapshot_text());
    }
}

/// A mentioned vertex far from the owned block and an annotation mate of
/// `NO_MATE` must not confuse the repair's vertex filter.
#[test]
fn repair_handles_far_vertices_and_no_mate() {
    let far: V = 1 << 20;
    let mut m = StorageMachine::new(0, 2, 4);
    let matched_far = Ann {
        matched: true,
        mate: far + 1,
        mate_light: true,
    };
    m.load(
        0,
        StoreVertex {
            heavy: false,
            entries: vec![(far, matched_far), (5, Ann::free())],
        },
    );
    let hist = HistSlice::new(
        1,
        [
            HistEntry::Heavy(far + 1),
            HistEntry::MatchAdd(Edge::new(5, NO_MATE - 1), true, false),
        ],
    );
    m.handle(&hist, StoreReq::Refresh);
    let sv = m.vertex(0).unwrap();
    assert!(!sv.entries[0].1.mate_light);
    assert_eq!(
        sv.entries[1].1,
        Ann {
            matched: true,
            mate: NO_MATE - 1,
            mate_light: false
        }
    );
    assert_eq!(m.last_seen(), 2);
}

/// Two neighbours that differ only above bit 16 share an index key. The
/// index may only pick the slot; which entry is replayed is decided by the
/// full id — with the twins in one slot (vertex 0) and in different slots
/// (vertices 1 and 2).
#[test]
fn indexed_repair_tells_aliasing_neighbours_apart() {
    let (x, twin) = (7, 7 + ALIAS);
    let start: [(V, Vec<V>); 3] = [(0, vec![twin, 3, x]), (1, vec![x]), (2, vec![twin, 3])];
    let mut m = StorageMachine::new(0, 3, 8);
    for (v, nbrs) in &start {
        let entries = nbrs.iter().map(|&n| (n, Ann::free())).collect();
        let heavy = false;
        m.load(*v, StoreVertex { heavy, entries });
    }
    let hist = HistSlice::new(
        1,
        [
            HistEntry::MatchAdd(Edge::new(x, 9), true, false),
            HistEntry::MatchAdd(Edge::new(twin, 4), false, true),
            HistEntry::MatchDel(Edge::new(twin, 4)),
            HistEntry::MatchAdd(Edge::new(3, twin), true, true),
        ],
    );
    m.handle(&hist, StoreReq::Refresh);
    assert_eq!(m.audit_index(), Ok(()));
    for (v, nbrs) in start {
        let mut want: Vec<(V, Ann)> = nbrs.iter().map(|&n| (n, Ann::free())).collect();
        fold_kernel(&mut want, &hist, 0);
        assert_eq!(m.vertex(v).unwrap().entries, want, "vertex {v}");
    }
    let at_x = m.vertex(1).unwrap().entries[0].1;
    let at_twin = m.vertex(2).unwrap().entries[0].1;
    assert_eq!((at_x.mate, at_twin.mate), (9, 3));
}

/// The index is state: after every step of the storage protocol it is the
/// sorted multiset of keys recomputed from the arena, and a
/// `MatchAdd`/`MatchDel` slice served through it lands on the kernel fold.
#[test]
fn index_follows_the_storage_protocol() {
    fn step(m: &mut StorageMachine, hist: &HistSlice, req: StoreReq) -> Option<(V, StoreAns)> {
        let what = format!("{hist:?} {req:?}");
        let reply = m.handle(hist, req);
        assert_eq!(m.audit_index(), Ok(()), "after {what}");
        reply
    }
    /// A slice naming every neighbour in play, checked against the oracle.
    fn refresh_matches_fold(m: &mut StorageMachine) {
        let seq = m.last_seen() + 1;
        let hist = HistSlice::new(
            seq,
            [
                HistEntry::MatchAdd(Edge::new(5, 6), true, false),
                HistEntry::MatchDel(Edge::new(6, 5 + ALIAS)),
                HistEntry::MatchAdd(Edge::new(5 + ALIAS, 40), false, true),
            ],
        );
        let entries = |m: &StorageMachine, v| m.vertex(v).unwrap().entries;
        let want: Vec<Vec<(V, Ann)>> = (0..4)
            .map(|v| {
                let mut entries = entries(m, v);
                fold_kernel(&mut entries, &hist, seq - 1);
                entries
            })
            .collect();
        step(m, &hist, StoreReq::Refresh);
        for (v, want) in (0..4).zip(want) {
            assert_eq!(entries(m, v), want, "vertex {v}");
        }
    }
    let ann = Ann::free();
    let add = |at, nbr| StoreReq::AddEdge { at, nbr, ann };
    let del = |at, nbr| StoreReq::DelEdge { at, nbr };
    let none = HistSlice::default();
    let mut m = StorageMachine::new(0, 4, 2);
    for (at, nbr) in [
        (0, 5),
        (0, 6),
        (1, 5),
        (2, 5 + ALIAS),
        (0, 5 + ALIAS),
        (3, 6),
    ] {
        step(&mut m, &none, add(at, nbr));
    }
    refresh_matches_fold(&mut m);
    let found = |reply| matches!(reply, Some((_, StoreAns::Del { found: true, .. })));
    assert!(found(step(&mut m, &none, del(1, 5))));
    assert!(!found(step(&mut m, &none, del(1, 5 + ALIAS))));
    // tau = 2: the mate edge moves to the front and `5` leaves the alive set.
    let mate = Some(5 + ALIAS);
    match step(&mut m, &none, StoreReq::MakeHeavy { v: 0, mate }) {
        Some((_, StoreAns::MovedOut(entries))) => {
            assert_eq!((entries.len(), entries[0].0), (1, 5))
        }
        other => panic!("{other:?}"),
    }
    step(&mut m, &none, del(0, 6));
    let entry = (5, ann);
    step(&mut m, &none, StoreReq::AddAlive { at: 0, entry });
    refresh_matches_fold(&mut m);

    // A delete burst: 60 entries in, 56 out, so the arena compacts on the
    // way (a machine that never compacted would hold 60 cells or more).
    let words_before = m.memory_words();
    for nbr in 100..160 {
        step(&mut m, &none, add(3, nbr));
    }
    for nbr in 104..160 {
        step(&mut m, &none, del(3, nbr));
    }
    assert!(m.memory_words() < words_before + 60 * 9 / 8);
    refresh_matches_fold(&mut m);

    // The index is not in the snapshot: a restore rebuilds it.
    let text = m.snapshot_text();
    let mut c = StorageMachine::new(0, 4, 2);
    c.restore_text(&text);
    assert_eq!(c.audit_index(), Ok(()));
    assert_eq!(c.snapshot_text(), text);
    refresh_matches_fold(&mut c);

    // Loading in descending vertex order grows the slot range at the front,
    // which renumbers every slot an already built index names.
    let mut d = StorageMachine::new(0, 0, 2);
    for v in (0..4).rev() {
        d.load(v, m.vertex(v).unwrap());
        assert!(d.audit_index().is_err(), "a load leaves the index stale");
        d.settle_index();
        assert_eq!(d.audit_index(), Ok(()), "after loading {v}");
    }
    d.set_last_seen(m.last_seen());
    assert_eq!(d.snapshot_text(), text);
    refresh_matches_fold(&mut d);
}

/// The sync table's text form: a machine synced at seq 0 has a `seen` line,
/// a never-synced machine has none, and the table round-trips.
#[test]
fn coordinator_seen_lines_roundtrip_byte_identical() {
    let params = DmpcParams::new(64, 192);
    let layout = Layout::new(&params);
    let first_store = 1 + layout.n_stats;
    let last = layout.total_machines() - 1;
    let text = format!(
        "coord v2\npairs 1\nseq 4\nrr 2\n\
         hist 2 add 3 9 1 0\nhist 3 heavy 9\n\
         seen {first_store} 0\nseen {} 3\nseen {last} 1\n\
         ovf 9 {last}\nfree {}\nsusp 9 2\n",
        first_store + 2,
        last - 1,
    );
    let mut c = Coordinator::new(layout, false, params.capacity_words());
    c.restore_text(&text);
    assert_eq!(c.snapshot_text(), text);
    // Restoring over a populated table forgets the old sync points.
    c.restore_text("coord v2\npairs 0\nseq 1\nrr 0\n");
    assert_eq!(c.snapshot_text(), "coord v2\npairs 0\nseq 1\nrr 0\n");
}

/// One insert into the empty graph: both endpoint owners are synced while
/// the history is still empty (`seen m 0`), then the round-robin refresh
/// ships the new `MatchAdd` to the first storage machine. Captured on the
/// commit before the sync table became dense.
#[test]
fn coordinator_snapshot_after_first_insert_is_pinned() {
    let params = DmpcParams::new(64, 192);
    let mut alg = DmpcMaximalMatching::new(params);
    let l = *alg.layout();
    let (a, b): (V, V) = (l.storage_block as V, 2 * l.storage_block as V + 1);
    assert!(alg.insert(Edge::new(a, b)).clean());
    let first_store = 1 + l.n_stats;
    let free: String = (0..l.n_overflow)
        .rev()
        .map(|i| format!("free {}\n", l.overflow_base() as usize + i))
        .collect();
    let want = format!(
        "coord v2\npairs 1\nseq 2\nrr 1\nhist 1 add {a} {b} 1 1\n\
         seen {first_store} 1\nseen {} 0\nseen {} 0\n{free}",
        first_store + 1,
        first_store + 2,
    );
    assert_eq!(alg.snapshot_machine(0), want);
}

/// Golden state digest and model metrics for one seeded n=256 stream
/// (uniform churn, then a star that drives vertex 0 through heavy and back
/// to light), applied in batches of 64. Captured on the commit before the
/// fused repair pass and the dense sync table; host-side changes must not
/// move any of them.
///
/// Words, rounds and messages restated, digest unchanged, when a history
/// suffix began to travel as one base seq and 3 words per entry instead of
/// 4 per entry: the batch drain meets its send-budget yield later, so 22
/// `BatchResume` self-messages and their rounds went too. They were
/// (2880, 142041, 15223).
#[test]
fn golden_digest_and_batch_metrics_n256() {
    let n = 256;
    let params = DmpcParams::new(n, 3 * n);
    let mut ups = streams::churn_stream(n, 2 * n, 1024, 0.55, 12);
    let g = streams::replay(n, &ups);
    let star: Vec<Edge> = (1..=80)
        .map(|v| Edge::new(0, v))
        .filter(|&e| !g.has_edge(e))
        .collect();
    assert!(g.degree(0) + star.len() > params.heavy_threshold() + 8);
    ups.extend(star.iter().map(|&e| Update::Insert(e)));
    ups.extend(star.iter().rev().map(|&e| Update::Delete(e)));
    let mut alg = DmpcMaximalMatching::new(params);
    let mut bm = BatchMetrics::default();
    for batch in ups.chunks(64) {
        bm.merge(&alg.apply_batch(batch));
    }
    assert!(bm.clean(), "{} violations", bm.violations);
    alg.audit(&streams::replay(n, &ups)).unwrap();
    assert_eq!(
        (
            alg.state_digest(),
            bm.rounds,
            bm.total_words,
            bm.total_messages
        ),
        (18197238039273732759, 2858, 127835, 15201)
    );
}
