//! Storage machines (adjacency lists with repairable annotations) and the
//! overflow pool (suspended-edge stacks of heavy vertices).
//!
//! Like the connectivity crate's vertex shards, a storage machine stores
//! every owned vertex's entries as a segment of one shared arena split into
//! parallel property arrays. Entry order is *semantic* here (the alive set
//! is positional: the mate edge is moved to the front, `MakeHeavy` splits
//! at `tau`, scans take the first hit), so all mutations preserve segment
//! order — removals shift the tail down instead of swapping.

use super::msg::{repair_entry, Ann, HistEntry, HistSlice, Repair, StoreAns, StoreReq};
use dmpc_graph::V;
use dmpc_mpc::text::{self, put_field, Fields, Sink};

/// Per-owned-vertex storage: the full adjacency of a light vertex, or the
/// alive set of a heavy one.
#[derive(Clone, Debug, Default)]
pub struct StoreVertex {
    /// Heavy flag (mirrors the stats record, repaired with the state).
    pub heavy: bool,
    /// (neighbor, annotation) entries.
    pub entries: Vec<(V, Ann)>,
}

/// A segment of the entry arena: `start..start+len` live, `cap` reserved.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Slot state: no vertex in this slot.
const SLOT_ABSENT: u8 = 0;
/// Slot state: light vertex.
const SLOT_LIGHT: u8 = 1;
/// Slot state: heavy vertex.
const SLOT_HEAVY: u8 = 2;

/// Headroom granted when an entry segment relocates.
const ENTRY_HEADROOM: u32 = 2;

/// Annotation flag bit: `matched`.
const F_MATCHED: u8 = 1;
/// Annotation flag bit: `mate_light`.
const F_MATE_LIGHT: u8 = 2;

#[inline]
fn pack_ann(ann: Ann) -> (V, u8) {
    let mut f = 0;
    if ann.matched {
        f |= F_MATCHED;
    }
    if ann.mate_light {
        f |= F_MATE_LIGHT;
    }
    (ann.mate, f)
}

#[inline]
fn unpack_ann(mate: V, f: u8) -> Ann {
    Ann {
        matched: f & F_MATCHED != 0,
        mate,
        mate_light: f & F_MATE_LIGHT != 0,
    }
}

/// Slots the neighbour index can name: its keys keep 16 bits for the slot.
const MAX_SLOTS: usize = 1 << 16;

/// Neighbour-index key of an entry pointing at `nbr` in `slot`: the low 16
/// bits of `nbr` above the slot, so keys sort by neighbour first and one
/// binary search finds every slot that may hold an entry for a vertex.
#[inline]
fn idx_key(nbr: V, slot: usize) -> u32 {
    debug_assert!(slot < MAX_SLOTS);
    (nbr << 16) | slot as u32
}

/// A machine's owned vertex block: per-slot state byte + arena segment,
/// entries as three parallel arrays (neighbor, mate, flag byte), and the
/// neighbour index over them.
#[derive(Debug, Default)]
struct Store {
    /// Direct-mapped interner base: vertex `v` lives in slot `v - base`.
    base: V,
    /// [`SLOT_ABSENT`] / [`SLOT_LIGHT`] / [`SLOT_HEAVY`] per slot.
    state: Vec<u8>,
    /// Entry segment per slot.
    pos: Vec<Seg>,
    /// Neighbor per entry.
    nbr: Vec<V>,
    /// Annotation mate per entry.
    mate: Vec<V>,
    /// Annotation flags per entry.
    flags: Vec<u8>,
    /// Live entries in the arena (the rest are holes).
    live: usize,
    /// Neighbour index: one [`idx_key`] per live entry, sorted (a multiset:
    /// neighbours `x` and `x + 65,536` in one slot share a key). A hit only
    /// names a slot; the entry is confirmed against the full `nbr` in that
    /// slot's segment, so aliasing ids cost a short look, never a wrong
    /// replay. History repair finds the entries a slice names through it.
    idx: Vec<u32>,
    /// Set by [`Store::insert_vertex`], the way in of both bulk paths
    /// (`load`, `restore_text`): the index is behind the arena and is not
    /// maintained until [`Store::settle_index`] rebuilds it with one sort.
    idx_stale: bool,
}

impl Store {
    fn new_range(lo: V, hi: V) -> Self {
        Store {
            base: lo,
            state: vec![SLOT_LIGHT; (hi - lo) as usize],
            pos: vec![Seg::default(); (hi - lo) as usize],
            ..Default::default()
        }
    }

    #[inline]
    fn slot_of(&self, v: V) -> Option<usize> {
        let i = v.checked_sub(self.base)? as usize;
        (i < self.state.len() && self.state[i] != SLOT_ABSENT).then_some(i)
    }

    #[inline]
    fn slot(&self, v: V) -> usize {
        self.slot_of(v).expect("vertex not owned")
    }

    /// Grows the slot range to cover `v` (installs an absent slot). Growing
    /// at the front renumbers every slot; the one caller, `insert_vertex`,
    /// marks the index stale.
    fn ensure_slot(&mut self, v: V) -> usize {
        if self.state.is_empty() {
            self.base = v;
        }
        // Storage blocks are at most ceil(sqrt N) <= 2^16 vertices for
        // `u32` ids, so a valid layout never trips this.
        let lo = self.base.min(v) as usize;
        let hi = (self.base as usize + self.state.len()).max(v as usize + 1);
        assert!(
            hi - lo <= MAX_SLOTS,
            "covering vertex {v} needs a slot above {}: \
             the neighbour index keeps 16 bits for the slot",
            MAX_SLOTS - 1
        );
        if v < self.base {
            let k = (self.base - v) as usize;
            self.state.splice(0..0, std::iter::repeat_n(SLOT_ABSENT, k));
            self.pos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.base = v;
        }
        let i = (v - self.base) as usize;
        while self.state.len() <= i {
            self.state.push(SLOT_ABSENT);
            self.pos.push(Seg::default());
        }
        i
    }

    #[inline]
    fn range(&self, slot: usize) -> std::ops::Range<usize> {
        let s = self.pos[slot];
        s.start as usize..(s.start + s.len) as usize
    }

    /// Every live entry's key, in slot order, at exact size.
    fn arena_keys(&self) -> Vec<u32> {
        let mut keys = Vec::with_capacity(self.live);
        for slot in 0..self.pos.len() {
            keys.extend(self.range(slot).map(|i| idx_key(self.nbr[i], slot)));
        }
        keys
    }

    /// Ends a bulk load: one sort per machine, not one sorted insert per
    /// entry.
    fn settle_index(&mut self) {
        if !self.idx_stale {
            return;
        }
        // Keys come out of the arena in slot order, so a stable sort on the
        // neighbour half alone orders them: two counting passes, a byte
        // each (a quarter of a comparison sort's time at ~3k keys, which is
        // what keeps restore and bulk load within a few percent).
        let mut keys = self.arena_keys();
        let mut out = vec![0; keys.len()];
        for shift in [16, 24] {
            let mut at = [0usize; 257];
            for &k in &keys {
                at[(k >> shift & 0xFF) as usize + 1] += 1;
            }
            for b in 0..256 {
                at[b + 1] += at[b];
            }
            for &k in &keys {
                let b = (k >> shift & 0xFF) as usize;
                out[at[b]] = k;
                at[b] += 1;
            }
            std::mem::swap(&mut keys, &mut out);
        }
        self.idx = keys;
        self.idx_stale = false;
    }

    fn index_add(&mut self, nbr: V, slot: usize) {
        if self.idx_stale {
            return;
        }
        let key = idx_key(nbr, slot);
        let i = self.idx.partition_point(|&k| k < key);
        self.idx.insert(i, key);
    }

    fn index_remove(&mut self, nbr: V, slot: usize) {
        if self.idx_stale {
            return;
        }
        let key = idx_key(nbr, slot);
        let i = self.idx.partition_point(|&k| k < key);
        assert_eq!(self.idx.get(i), Some(&key), "neighbour index lost a key");
        self.idx.remove(i);
    }

    /// Appends one entry to `at`'s segment, relocating (with headroom) on
    /// overflow; order-preserving.
    fn push_entry(&mut self, at: V, n: V, ann: Ann) {
        let slot = self.slot(at);
        self.index_add(n, slot);
        let (m, f) = pack_ann(ann);
        let s = self.pos[slot];
        if s.len < s.cap {
            let i = (s.start + s.len) as usize;
            self.nbr[i] = n;
            self.mate[i] = m;
            self.flags[i] = f;
            self.pos[slot].len += 1;
        } else if (s.start + s.cap) as usize == self.nbr.len() {
            // The segment ends at the arena tail: grow in place, no hole.
            self.nbr.push(n);
            self.mate.push(m);
            self.flags.push(f);
            self.pos[slot].len += 1;
            self.pos[slot].cap += 1;
        } else {
            let start = self.nbr.len() as u32;
            let cap = s.len + 1 + ENTRY_HEADROOM;
            for i in self.range(slot) {
                let (xn, xm, xf) = (self.nbr[i], self.mate[i], self.flags[i]);
                self.nbr.push(xn);
                self.mate.push(xm);
                self.flags.push(xf);
            }
            self.nbr.push(n);
            self.mate.push(m);
            self.flags.push(f);
            let pad = (cap - s.len - 1) as usize;
            self.nbr.resize(self.nbr.len() + pad, 0);
            self.mate.resize(self.mate.len() + pad, 0);
            self.flags.resize(self.flags.len() + pad, 0);
            self.pos[slot] = Seg {
                start,
                len: s.len + 1,
                cap,
            };
        }
        self.live += 1;
        self.maybe_compact();
    }

    /// Removes the entry `at -> n`, shifting the tail down (order is
    /// semantic). Returns whether it was present.
    fn remove_entry(&mut self, at: V, n: V) -> bool {
        let slot = self.slot(at);
        let r = self.range(slot);
        let Some(i) = r.clone().find(|&i| self.nbr[i] == n) else {
            return false;
        };
        for j in i..r.end - 1 {
            self.nbr[j] = self.nbr[j + 1];
            self.mate[j] = self.mate[j + 1];
            self.flags[j] = self.flags[j + 1];
        }
        self.pos[slot].len -= 1;
        self.live -= 1;
        self.index_remove(n, slot);
        self.maybe_compact();
        true
    }

    fn maybe_compact(&mut self) {
        if self.nbr.len() <= self.live + self.live / 8 + 16 {
            return;
        }
        let mut nbr = Vec::with_capacity(self.live);
        let mut mate = Vec::with_capacity(self.live);
        let mut flags = Vec::with_capacity(self.live);
        for s in self.pos.iter_mut() {
            let start = nbr.len() as u32;
            for i in s.start as usize..(s.start + s.len) as usize {
                nbr.push(self.nbr[i]);
                mate.push(self.mate[i]);
                flags.push(self.flags[i]);
            }
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.nbr = nbr;
        self.mate = mate;
        self.flags = flags;
    }

    fn materialize(&self, slot: usize) -> StoreVertex {
        StoreVertex {
            heavy: self.state[slot] == SLOT_HEAVY,
            entries: self.entries(slot),
        }
    }

    /// Installs vertex `v` with no entries (bulk load, snapshot restore).
    fn insert_vertex(&mut self, v: V, heavy: bool) {
        let slot = self.ensure_slot(v);
        self.idx_stale = true;
        self.live -= self.pos[slot].len as usize;
        self.pos[slot].len = 0;
        self.state[slot] = if heavy { SLOT_HEAVY } else { SLOT_LIGHT };
    }

    fn has_entry(&self, at: V, n: V) -> bool {
        self.range(self.slot(at)).any(|i| self.nbr[i] == n)
    }

    fn heavy(&self, v: V) -> bool {
        self.state[self.slot(v)] == SLOT_HEAVY
    }

    /// Sets the heavy flag, ignoring non-owned vertices (history repair
    /// addresses every owner of the changed vertex's *neighbors* too).
    fn set_heavy_if_present(&mut self, v: V, heavy: bool) {
        if let Some(slot) = self.slot_of(v) {
            self.state[slot] = if heavy { SLOT_HEAVY } else { SLOT_LIGHT };
        }
    }

    /// First entry at `z` that is free and not excluded.
    fn scan_free(&self, z: V, exclude: &[V]) -> Option<V> {
        self.range(self.slot(z))
            .find(|&i| self.flags[i] & F_MATCHED == 0 && !exclude.contains(&self.nbr[i]))
            .map(|i| self.nbr[i])
    }

    /// Heavy-scan at `z`: first free entry, and first steal candidate
    /// (matched to a light mate).
    fn scan_heavy(&self, z: V) -> (Option<V>, Option<(V, V)>) {
        let r = self.range(self.slot(z));
        let free = r
            .clone()
            .find(|&i| self.flags[i] & F_MATCHED == 0)
            .map(|i| self.nbr[i]);
        let steal = r
            .clone()
            .find(|&i| self.flags[i] & (F_MATCHED | F_MATE_LIGHT) == F_MATCHED | F_MATE_LIGHT)
            .map(|i| (self.nbr[i], self.mate[i]));
        (free, steal)
    }

    /// All entries of one slot, in stored order.
    fn entries(&self, slot: usize) -> Vec<(V, Ann)> {
        self.range(slot)
            .map(|i| (self.nbr[i], unpack_ann(self.mate[i], self.flags[i])))
            .collect()
    }

    /// Marks `v` heavy, moves the mate edge to the front of the alive set,
    /// and splits off everything past `keep` (the suspended entries).
    fn make_heavy(&mut self, v: V, mate: Option<V>, keep: usize) -> Vec<(V, Ann)> {
        let slot = self.slot(v);
        self.state[slot] = SLOT_HEAVY;
        let r = self.range(slot);
        if let Some(mv) = mate {
            if let Some(pos) = r.clone().find(|&i| self.nbr[i] == mv) {
                self.nbr.swap(r.start, pos);
                self.mate.swap(r.start, pos);
                self.flags.swap(r.start, pos);
            }
        }
        if r.len() <= keep {
            return Vec::new();
        }
        let moved: Vec<(V, Ann)> = (r.start + keep..r.end)
            .map(|i| (self.nbr[i], unpack_ann(self.mate[i], self.flags[i])))
            .collect();
        self.pos[slot].len = keep as u32;
        self.live -= moved.len();
        for &(n, _) in &moved {
            self.index_remove(n, slot);
        }
        self.maybe_compact();
        moved
    }

    /// History repair through the index: replays `fresh` over exactly the
    /// entries pointing at `x` (every slot filed under `x`'s low 16 bits is
    /// looked at; only a full-id match is replayed).
    fn repair_nbr(&mut self, x: V, fresh: &[HistEntry]) {
        debug_assert!(!self.idx_stale);
        let lo = idx_key(x, 0);
        let from = self.idx.partition_point(|&k| k < lo);
        for &key in self.idx[from..]
            .iter()
            .take_while(|&&k| k >> 16 == lo >> 16)
        {
            for i in self.range((key & 0xFFFF) as usize) {
                if self.nbr[i] == x {
                    let mut ann = unpack_ann(self.mate[i], self.flags[i]);
                    for entry in fresh {
                        repair_entry(entry, x, &mut ann);
                    }
                    (self.mate[i], self.flags[i]) = pack_ann(ann);
                }
            }
        }
    }

    /// History repair of the annotations by one pass over the entries,
    /// replaying the slice through the kernel for those it can change
    /// (entry order is immaterial — repairs are per-entry independent).
    fn repair_anns(&mut self, repair: &Repair) {
        for sg in &self.pos {
            for i in sg.start as usize..(sg.start + sg.len) as usize {
                if repair.may_change(self.nbr[i], self.mate[i]) {
                    let mut ann = unpack_ann(self.mate[i], self.flags[i]);
                    repair.replay(self.nbr[i], &mut ann);
                    (self.mate[i], self.flags[i]) = pack_ann(ann);
                }
            }
        }
    }

    /// Materialized state of one vertex (audits; not the update path).
    fn vertex(&self, v: V) -> Option<StoreVertex> {
        self.slot_of(v).map(|slot| self.materialize(slot))
    }

    /// Direct state injection (bulk loading); leaves the index stale.
    fn load(&mut self, v: V, sv: StoreVertex) {
        self.insert_vertex(v, sv.heavy);
        for (n, ann) in sv.entries {
            self.push_entry(v, n, ann);
        }
    }

    /// Exact resident footprint in words, counting the backing stores as
    /// allocated: 13 bytes per slot (state byte + segment), 9 bytes per
    /// arena cell (neighbor + mate + flag byte, holes included) and 4 bytes
    /// per live entry (its neighbour-index key, owed even while the index is
    /// stale), rounded up to whole words.
    fn memory_words(&self) -> usize {
        (self.state.len() + self.pos.len() * 12 + self.nbr.len() * 9 + self.live * 4).div_ceil(8)
    }
}

/// A storage machine owning a contiguous vertex block.
#[derive(Debug)]
pub struct StorageMachine {
    verts: Store,
    last_seen: u64,
    tau: usize,
    /// The owned block.
    owned: std::ops::Range<V>,
}

impl StorageMachine {
    /// Creates the machine owning vertices `lo..hi`, with heavy threshold
    /// `tau` (the alive-set capacity).
    pub fn new(lo: V, hi: V, tau: usize) -> Self {
        StorageMachine {
            verts: Store::new_range(lo, hi),
            last_seen: 0,
            tau,
            owned: lo..hi,
        }
    }

    /// Fail-stop wipe (chaos plane): drops program state; `tau` and the
    /// owned block are construction-time configuration and survive.
    pub fn wipe(&mut self) {
        self.verts = Store::default();
        self.last_seen = 0;
    }

    /// Renders the snapshot: sync point, then per-vertex heavy flag and
    /// entries in stored (scan) order, straight off the columns.
    /// Deterministic: vertices emit in id order and entries positionally,
    /// so arena placement never shows.
    pub fn write_text<S: Sink>(&self, s: &mut S) {
        let st = &self.verts;
        s.put(b"storage v1\nseen");
        put_field(s, self.last_seen);
        s.put(b"\n");
        for slot in 0..st.state.len() {
            if st.state[slot] == SLOT_ABSENT {
                continue;
            }
            let v = (st.base + slot as V) as u64;
            s.put(b"svert");
            put_field(s, v);
            put_field(s, (st.state[slot] == SLOT_HEAVY) as u64);
            s.put(b"\n");
            for i in st.range(slot) {
                s.put(b"sedge");
                put_field(s, v);
                write_entry(s, st.nbr[i], unpack_ann(st.mate[i], st.flags[i]));
            }
        }
    }

    /// Plain-text snapshot ([`StorageMachine::write_text`] as a `String`).
    pub fn snapshot_text(&self) -> String {
        text::render(|s| self.write_text(s))
    }

    /// Full state restore from [`StorageMachine::snapshot_text`] output.
    /// Every vertex must lie in the owned block, so another machine's
    /// snapshot is refused rather than installed under foreign keys.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("storage v1"), "snapshot header");
        for line in lines {
            let mut f = Fields::new(line);
            match f.word().expect("non-empty snapshot line") {
                b"seen" => self.last_seen = f.dec(),
                b"svert" => {
                    let v: V = f.dec();
                    assert!(
                        self.owned.contains(&v),
                        "snapshot vertex {v} restored on the storage machine of {:?}",
                        self.owned
                    );
                    self.verts.insert_vertex(v, f.flag());
                }
                b"sedge" => {
                    let v: V = f.dec();
                    let (nbr, ann) = parse_entry(&mut f);
                    self.verts.push_entry(v, nbr, ann);
                }
                k => panic!("unknown snapshot line {:?}", String::from_utf8_lossy(k)),
            }
        }
        self.verts.settle_index();
    }

    /// Read access for audits (materialized; not the update path).
    pub fn vertex(&self, v: V) -> Option<StoreVertex> {
        self.verts.vertex(v)
    }

    /// Direct load for bulk preprocessing. Leaves the neighbour index stale:
    /// [`StorageMachine::settle_index`] (or, failing that, the first history
    /// repair that reads it) rebuilds it.
    pub fn load(&mut self, v: V, sv: StoreVertex) {
        self.verts.load(v, sv);
    }

    /// Ends a bulk load: builds the neighbour index with one sort.
    pub fn settle_index(&mut self) {
        self.verts.settle_index();
    }

    /// Checks that the neighbour index is the sorted multiset of keys
    /// recomputed from the arena (audits; not the update path).
    pub fn audit_index(&self) -> Result<(), String> {
        let st = &self.verts;
        if st.idx_stale {
            return Err("neighbour index is stale (bulk load not settled)".into());
        }
        let mut want = st.arena_keys();
        want.sort_unstable();
        if st.idx != want {
            return Err(format!(
                "neighbour index {:x?} != arena keys {want:x?}",
                st.idx
            ));
        }
        Ok(())
    }

    /// Sets the history synchronization point (bulk preprocessing).
    pub fn set_last_seen(&mut self, seq: u64) {
        self.last_seen = seq;
    }

    /// The history sequence number this machine has replayed up to.
    pub fn last_seen(&self) -> u64 {
        self.last_seen
    }

    /// Replays the unseen part of `hist` over the stored annotations. What
    /// to visit is read off the slice alone. `MatchAdd`/`MatchDel` act on an
    /// entry only through its `nbr`, so a slice of nothing else is replayed
    /// over the entries the index files under the endpoints it names — the
    /// same entries the pass would pick, and replaying twice where an
    /// endpoint recurs is harmless: the last slice entry naming a `nbr`
    /// overwrites the whole annotation. `Heavy`/`Light` act through the
    /// current `mate`, which has no index, so a slice carrying one takes the
    /// one pass over every entry.
    fn repair(&mut self, hist: &HistSlice) {
        let fresh = hist.fresh(self.last_seen);
        if fresh.is_empty() {
            return;
        }
        let endpoints = |&entry: &HistEntry| match entry {
            HistEntry::MatchAdd(e, _, _) | HistEntry::MatchDel(e) => Some([e.u, e.v]),
            HistEntry::Heavy(_) | HistEntry::Light(_) => None,
        };
        if fresh.iter().all(|h| endpoints(h).is_some()) {
            self.verts.settle_index();
            for x in fresh.iter().filter_map(endpoints).flatten() {
                self.verts.repair_nbr(x, fresh);
            }
        } else if let Some(repair) = Repair::new(fresh) {
            self.verts.repair_anns(&repair);
            for &entry in fresh {
                match entry {
                    HistEntry::Heavy(c) => self.verts.set_heavy_if_present(c, true),
                    HistEntry::Light(c) => self.verts.set_heavy_if_present(c, false),
                    _ => {}
                }
            }
        }
        self.last_seen = hist.last_seq();
    }

    /// Serves one request behind the history suffix `hist`; may answer the
    /// coordinator, echoing the vertex the request named.
    pub fn handle(&mut self, hist: &HistSlice, req: StoreReq) -> Option<(V, StoreAns)> {
        self.repair(hist);
        match req {
            StoreReq::Refresh => None,
            StoreReq::AddEdge { at, nbr, ann } => {
                debug_assert!(!self.verts.has_entry(at, nbr));
                self.verts.push_entry(at, nbr, ann);
                None
            }
            StoreReq::DelEdge { at, nbr } => {
                let found = self.verts.remove_entry(at, nbr);
                Some((at, StoreAns::Del { found, alive: true }))
            }
            StoreReq::ScanFree { z, exclude } => {
                Some((z, StoreAns::ScanFree(self.verts.scan_free(z, &exclude))))
            }
            StoreReq::ScanAdj { z } => {
                Some((z, StoreAns::ScanAdj(self.verts.entries(self.verts.slot(z)))))
            }
            StoreReq::ScanHeavy { z } => {
                debug_assert!(self.verts.heavy(z));
                let (free, steal) = self.verts.scan_heavy(z);
                Some((z, StoreAns::ScanHeavy { free, steal }))
            }
            StoreReq::MakeHeavy { v, mate } => {
                let entries = self.verts.make_heavy(v, mate, self.tau);
                Some((v, StoreAns::MovedOut(entries)))
            }
            StoreReq::AddAlive { at, entry } => {
                self.verts.push_entry(at, entry.0, entry.1);
                None
            }
            StoreReq::MakeLight { v } => {
                self.verts.set_heavy_if_present(v, false);
                None
            }
            other => panic!("storage machine got unexpected request {other:?}"),
        }
    }

    /// Memory footprint in words.
    pub fn memory_words(&self) -> usize {
        2 + self.verts.memory_words()
    }
}

/// Emits the tail of an `sedge`/`oedge` snapshot line:
/// ` nbr matched mate mate_light\n`.
fn write_entry<S: Sink>(s: &mut S, nbr: V, ann: Ann) {
    put_field(s, nbr as u64);
    put_field(s, ann.matched as u64);
    put_field(s, ann.mate as u64);
    put_field(s, ann.mate_light as u64);
    s.put(b"\n");
}

/// Parses what [`write_entry`] emits.
fn parse_entry(f: &mut Fields) -> (V, Ann) {
    let nbr: V = f.dec();
    let ann = Ann {
        matched: f.flag(),
        mate: f.dec(),
        mate_light: f.flag(),
    };
    (nbr, ann)
}

/// An overflow machine: the suspended-edge stack of (at most) one heavy
/// vertex at a time.
#[derive(Debug, Default)]
pub struct OverflowMachine {
    assigned: Option<V>,
    edges: Vec<(V, Ann)>,
    last_seen: u64,
}

impl OverflowMachine {
    /// The vertex whose stack this machine holds.
    pub fn assigned(&self) -> Option<V> {
        self.assigned
    }

    /// Number of suspended edges held.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Read access for audits.
    pub fn edges(&self) -> &[(V, Ann)] {
        &self.edges
    }

    /// Direct load for bulk preprocessing.
    pub fn load(&mut self, v: V, edges: Vec<(V, Ann)>, last_seen: u64) {
        self.assigned = Some(v);
        self.edges = edges;
        self.last_seen = last_seen;
    }

    /// Fail-stop wipe (chaos plane): drops all program state.
    pub fn wipe(&mut self) {
        self.assigned = None;
        self.edges = Vec::new();
        self.last_seen = 0;
    }

    /// Renders the snapshot: sync point, assignment, and the suspended
    /// stack in positional order.
    pub fn write_text<S: Sink>(&self, s: &mut S) {
        s.put(b"overflow v1\nseen");
        put_field(s, self.last_seen);
        s.put(b"\n");
        if let Some(v) = self.assigned {
            s.put(b"assigned");
            put_field(s, v as u64);
            s.put(b"\n");
        }
        for &(nbr, ann) in &self.edges {
            s.put(b"oedge");
            write_entry(s, nbr, ann);
        }
    }

    /// Plain-text snapshot ([`OverflowMachine::write_text`] as a `String`).
    pub fn snapshot_text(&self) -> String {
        text::render(|s| self.write_text(s))
    }

    /// Full state restore from [`OverflowMachine::snapshot_text`] output.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("overflow v1"), "snapshot header");
        for line in lines {
            let mut f = Fields::new(line);
            match f.word().expect("non-empty snapshot line") {
                b"seen" => self.last_seen = f.dec(),
                b"assigned" => self.assigned = Some(f.dec()),
                b"oedge" => self.edges.push(parse_entry(&mut f)),
                k => panic!("unknown snapshot line {:?}", String::from_utf8_lossy(k)),
            }
        }
    }

    fn repair(&mut self, hist: &HistSlice) {
        let Some(repair) = Repair::new(hist.fresh(self.last_seen)) else {
            return;
        };
        for (nbr, ann) in &mut self.edges {
            if repair.may_change(*nbr, ann.mate) {
                repair.replay(*nbr, ann);
            }
        }
        self.last_seen = hist.last_seq();
    }

    /// Frees the machine's assignment to `v`, whose stack is empty.
    pub fn release(&mut self, v: V) {
        debug_assert_eq!(self.assigned, Some(v));
        debug_assert!(self.edges.is_empty());
        self.assigned = None;
    }

    /// Serves one request behind the history suffix `hist`; may answer the
    /// coordinator, echoing the vertex the request named.
    pub fn handle(&mut self, hist: &HistSlice, req: StoreReq) -> Option<(V, StoreAns)> {
        self.repair(hist);
        match req {
            StoreReq::Refresh => None,
            StoreReq::AddSuspended { v, entries } => {
                if self.assigned.is_none() {
                    self.assigned = Some(v);
                }
                debug_assert_eq!(self.assigned, Some(v));
                self.edges.extend(entries);
                None
            }
            StoreReq::DelEdge { at, nbr } => {
                debug_assert_eq!(self.assigned, Some(at));
                let before = self.edges.len();
                self.edges.retain(|&(x, _)| x != nbr);
                let (found, alive) = (self.edges.len() < before, false);
                Some((at, StoreAns::Del { found, alive }))
            }
            StoreReq::ScanFree { z, exclude } => {
                debug_assert_eq!(self.assigned, Some(z));
                let q = self
                    .edges
                    .iter()
                    .find(|&&(nbr, ann)| !ann.matched && !exclude.contains(&nbr))
                    .map(|&(nbr, _)| nbr);
                Some((z, StoreAns::ScanFree(q)))
            }
            StoreReq::FetchSuspended { v } => {
                debug_assert_eq!(self.assigned, Some(v));
                Some((v, StoreAns::Fetch(self.edges.pop())))
            }
            StoreReq::ScanAdj { z } => Some((z, StoreAns::ScanAdj(self.edges.clone()))),
            other => panic!("overflow machine got unexpected request {other:?}"),
        }
    }

    /// Memory footprint in words.
    pub fn memory_words(&self) -> usize {
        3 + 4 * self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::msg::NO_MATE;
    use super::*;
    use dmpc_graph::Edge;

    /// Adds the edge copy `at -> nbr`, annotated free.
    fn add(at: V, nbr: V) -> StoreReq {
        let ann = Ann::free();
        StoreReq::AddEdge { at, nbr, ann }
    }

    /// No history: the request alone.
    fn none() -> HistSlice {
        HistSlice::default()
    }

    #[test]
    fn add_del_scan() {
        let mut m = StorageMachine::new(0, 4, 8);
        m.handle(&none(), add(1, 9));
        let ann = Ann {
            matched: true,
            mate: 3,
            mate_light: true,
        };
        m.handle(&none(), StoreReq::AddEdge { at: 1, nbr: 8, ann });
        let exclude = vec![];
        match m.handle(&none(), StoreReq::ScanFree { z: 1, exclude }) {
            Some((_, StoreAns::ScanFree(q))) => assert_eq!(q, Some(9)),
            _ => panic!(),
        }
        let exclude = vec![9];
        match m.handle(&none(), StoreReq::ScanFree { z: 1, exclude }) {
            Some((_, StoreAns::ScanFree(q))) => assert_eq!(q, None),
            _ => panic!(),
        }
        match m.handle(&none(), StoreReq::DelEdge { at: 1, nbr: 9 }) {
            Some((_, StoreAns::Del { found, alive })) => {
                assert!(found);
                assert!(alive);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn history_repair_applies_once() {
        let mut m = StorageMachine::new(0, 2, 8);
        m.handle(&none(), add(0, 5));
        let h1 = HistSlice::new(1, [HistEntry::MatchAdd(Edge::new(5, 6), true, true)]);
        m.handle(&h1, StoreReq::Refresh);
        assert!(m.vertex(0).unwrap().entries[0].1.matched);
        // Replaying the same suffix is a no-op (idempotent by seq).
        let h2 = HistSlice::new(
            1,
            [
                HistEntry::MatchAdd(Edge::new(5, 6), true, true),
                HistEntry::MatchDel(Edge::new(5, 6)),
            ],
        );
        m.handle(&h2, StoreReq::Refresh);
        assert!(!m.vertex(0).unwrap().entries[0].1.matched);
        assert_eq!(m.last_seen(), 2);
    }

    #[test]
    fn overflow_stack() {
        let mut o = OverflowMachine::default();
        let entries = vec![(7, Ann::free()), (8, Ann::free())];
        o.handle(&none(), StoreReq::AddSuspended { v: 3, entries });
        assert_eq!(o.assigned(), Some(3));
        assert_eq!(o.len(), 2);
        match o.handle(&none(), StoreReq::FetchSuspended { v: 3 }) {
            Some((_, StoreAns::Fetch(entry))) => assert_eq!(entry.unwrap().0, 8),
            _ => panic!(),
        }
        match o.handle(&none(), StoreReq::DelEdge { at: 3, nbr: 7 }) {
            Some((_, StoreAns::Del { found, alive })) => {
                assert!(found);
                assert!(!alive);
            }
            _ => panic!(),
        }
        assert!(o.is_empty());
        o.release(3);
        assert_eq!(o.assigned(), None);
    }

    /// The metered footprint, to the byte: 13 per slot, 9 per arena cell
    /// (holes included), 4 per live entry for its index key.
    #[test]
    fn memory_words_counts_slots_cells_and_index_keys() {
        let mut m = StorageMachine::new(0, 4, 8);
        assert_eq!(m.verts.memory_words(), (4usize * 13).div_ceil(8));
        for (at, nbr) in [(0, 5), (0, 6), (1, 5)] {
            m.handle(&none(), add(at, nbr));
        }
        // Vertex 0 grew in place at the tail (2 cells); vertex 1 opened a
        // segment behind it with `ENTRY_HEADROOM` spare cells (3 cells).
        assert_eq!((m.verts.nbr.len(), m.verts.live), (5, 3));
        assert_eq!(
            m.verts.memory_words(),
            (4usize * 13 + 5 * 9 + 3 * 4).div_ceil(8)
        );
        assert_eq!(m.memory_words(), 2 + 14);
        // A delete leaves its cell behind as a hole and drops its key.
        for nbr in [5, 6] {
            m.handle(&none(), StoreReq::DelEdge { at: 0, nbr });
        }
        assert_eq!((m.verts.nbr.len(), m.verts.live), (5, 1));
        assert_eq!(
            m.verts.memory_words(),
            (4usize * 13 + 5 * 9 + 4).div_ceil(8)
        );
        assert_eq!(m.memory_words(), 2 + 13);
        // Owed while stale: a bulk load is metered before it is settled.
        let mut l = StorageMachine::new(0, 0, 8);
        let entries = vec![(5, Ann::free()), (6, Ann::free())];
        let heavy = false;
        l.load(2, StoreVertex { heavy, entries });
        assert!(l.verts.idx_stale && l.verts.idx.is_empty());
        assert_eq!(
            l.verts.memory_words(),
            (13usize + 2 * 9 + 2 * 4).div_ceil(8)
        );
    }

    #[test]
    #[should_panic(expected = "16 bits for the slot")]
    fn a_slot_the_index_cannot_name_is_refused() {
        let mut m = StorageMachine::new(0, 0, 8);
        m.load(0, StoreVertex::default());
        m.load((1 << 16) - 1, StoreVertex::default()); // slot 65,535: the last one
        m.load(1 << 16, StoreVertex::default());
    }

    /// A neighbour's snapshot names vertices this machine does not own: it
    /// is refused, not installed under foreign keys.
    #[test]
    #[should_panic(expected = "snapshot vertex 0 restored on the storage machine of 4..8")]
    fn restore_refuses_a_neighbours_snapshot() {
        let mut a = StorageMachine::new(0, 4, 8);
        a.handle(&none(), add(0, 5));
        let mut b = StorageMachine::new(4, 8, 8);
        b.restore_text(&a.snapshot_text());
    }

    /// Snapshot text after each step of the storage protocol.
    #[test]
    fn snapshot_text_follows_the_storage_protocol() {
        let mut m = StorageMachine::new(0, 4, 2);
        for (at, nbr) in [(0, 5), (0, 6), (1, 5), (2, 7), (0, 7)] {
            m.handle(&none(), add(at, nbr));
        }
        let free = NO_MATE;
        assert_eq!(
            m.snapshot_text(),
            format!(
                "storage v1\nseen 0\n\
                 svert 0 0\nsedge 0 5 0 {free} 0\nsedge 0 6 0 {free} 0\nsedge 0 7 0 {free} 0\n\
                 svert 1 0\nsedge 1 5 0 {free} 0\n\
                 svert 2 0\nsedge 2 7 0 {free} 0\n\
                 svert 3 0\n"
            )
        );

        // MakeHeavy moves the mate edge to the front and splits
        // positionally at tau = 2.
        let hist = HistSlice::new(1, [HistEntry::MatchAdd(Edge::new(6, 0), true, true)]);
        m.handle(&hist, StoreReq::Refresh);
        let mate = Some(6);
        match m.handle(&none(), StoreReq::MakeHeavy { v: 0, mate }) {
            Some((_, StoreAns::MovedOut(entries))) => assert_eq!(entries, [(7, Ann::free())]),
            _ => panic!(),
        }
        let rest = format!(
            "svert 1 0\nsedge 1 5 0 {free} 0\n\
             svert 2 0\nsedge 2 7 0 {free} 0\n\
             svert 3 0\n"
        );
        assert_eq!(
            m.snapshot_text(),
            format!(
                "storage v1\nseen 1\n\
                 svert 0 1\nsedge 0 6 1 0 1\nsedge 0 5 0 {free} 0\n{rest}"
            )
        );

        // Order-preserving delete at the front of a segment.
        m.handle(&none(), StoreReq::DelEdge { at: 0, nbr: 6 });
        let text = m.snapshot_text();
        assert_eq!(
            text,
            format!("storage v1\nseen 1\nsvert 0 1\nsedge 0 5 0 {free} 0\n{rest}")
        );

        // Round-trip through the snapshot codec.
        let mut c = StorageMachine::new(0, 4, 2);
        c.restore_text(&text);
        assert_eq!(c.snapshot_text(), text);
    }
}
