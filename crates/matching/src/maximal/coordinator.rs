//! The coordinator machine `M_C`: buffers the update-history, tracks which
//! machine has seen which history prefix, and orchestrates every update as
//! a constant number of request/reply waves.
//!
//! The coordinator waits one way. Whatever sends a wave sets one countdown
//! to the number of replies it expects and a phase holding only what the
//! continuation needs (`wait`). `reply` folds each message into the phase,
//! counts down in one place, and at zero hands the phase to `resume`, the
//! one match that continues the update. Every free-neighbor scan goes
//! through `scan_free`, and its `ScanPurpose` says how `on_scan_free`
//! resumes: `Rematch` a free vertex, the Section 4 insert check `InsAug`,
//! the last hop of a length-3 augmentation `AugFinal`, and the two scans of
//! the both-sides-free check on a new matched edge, `CheckA` then `CheckB`.
//!
//! In 3/2 mode, scans of a heavy vertex consult *both* its alive set (on
//! its storage machine) and its suspended stack (on its overflow machine):
//! a free neighbor hiding among suspended edges would otherwise survive as
//! the far end of a length-3 augmenting path. The plain Section 3 algorithm
//! only needs the alive set (maximality is restored either way).

use super::msg::{Ann, HistEntry, HistSlice, MatchMsg, StatRec, StoreReq, NO_MATE};
use super::Layout;
use dmpc_graph::{Edge, Update, V};
use dmpc_mpc::chaos::Fnv1a;
use dmpc_mpc::text::{self, put_field, Fields, Sink};
use dmpc_mpc::MachineId;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Every coordinator hash map, keyed by vertex or machine ids. These maps
/// sit on the per-update path, where SipHash's per-key cost (it resists
/// keys chosen to collide, and ids taken from the coordinator's own state
/// are not chosen by anyone) was a visible share of each update; FNV-1a
/// folds a `u32` key in four multiply steps. Its fixed seed also makes the
/// iteration order, and so the coordinator's outbox order, the same in
/// every process.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// What to do once a batch of stats records arrives.
#[derive(Debug)]
pub(crate) enum StatsThen {
    /// Initial fetch of an insert's endpoints.
    InsPrimary,
    /// Second insert wave: the endpoints' mates.
    InsMates,
    /// Initial fetch of a delete's endpoints.
    DelPrimary,
    /// Records needed to perform a queued mutation, then resume the free
    /// loop.
    Mutate(MutateAction),
    /// Batch prefetch wave 1: every endpoint of every queued update.
    BatchEndpoints,
    /// Batch prefetch wave 2: the mates of all matched endpoints; then the
    /// queue starts draining.
    BatchMates,
}

/// A queued matching mutation awaiting the stats of its participants.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MutateAction {
    /// Add `(a, b)` to the matching.
    MatchPair { a: V, b: V },
    /// Heavy steal by free heavy `z`: unmatch `(w, wm)`, match `(z, w)`,
    /// queue `w`'s light former mate `wm`.
    Steal { z: V, w: V, wm: V },
    /// Length-3 augmentation from free `z`: unmatch `(w, wp)`, match
    /// `(z, w)` and `(wp, q)`.
    AugRotate { z: V, w: V, wp: V, q: V },
    /// Safety-net rotation of a new matched edge `(a, b)` whose ends both
    /// have free witnesses `x != y`: unmatch `(a, b)`, match `(a, x)` and
    /// `(b, y)`.
    CheckRotate { a: V, b: V, x: V, y: V },
    /// Section 4 insert case, inserted `(u, v)` with `v` free: unmatch
    /// `(u, up)`, match `(u, v)` and `(up, w)`.
    InsAugRotate { u: V, up: V, v: V, w: V },
}

/// Why a free-neighbor scan was issued; [`Coordinator`]'s `on_scan_free`
/// resumes each.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ScanPurpose {
    /// Try to rematch free vertex `z`.
    Rematch,
    /// Section 4 insert check at `up = mate(u)`, excluding the inserted
    /// edge's free endpoint `v`.
    InsAug { u: V, up: V, v: V },
    /// Final scan of a length-3 augmentation from `z` through `w`, at
    /// `wp = mate(w)` (excluding `z`).
    AugFinal { z: V, w: V, wp: V },
    /// Both-sides-free check of the new matched edge `(a, b)`: the scan of
    /// `a` for a witness outside the in-update free set.
    CheckA { a: V, b: V },
    /// The check's scan of `b` for a witness other than `a`'s witness `x`.
    CheckB { a: V, b: V, x: V },
}

/// Coordinator protocol phase: what the replies of the wave in flight are
/// folded into, and how the update resumes once the last one is in
/// ([`Coordinator`]'s `resume`). How many replies are still outstanding is
/// the coordinator's one countdown, not part of the phase.
#[derive(Debug)]
pub(crate) enum Phase {
    /// No update in flight.
    Idle,
    /// `StatReply` batches, cached into the per-update records.
    Stats(StatsThen),
    /// `MovedOut` replies from heavy transitions.
    MovedOut,
    /// `DelReply` probes: whether each endpoint's alive-set copy was removed.
    DelProbes(FnvMap<V, bool>),
    /// `FetchReply` refills.
    Fetch,
    /// The scans of free heavy vertex `z` (alive set, plus the suspended
    /// stack in 3/2 mode): the least free neighbor and a steal candidate.
    ScanHeavy {
        z: V,
        free: Option<V>,
        steal: Option<(V, V)>,
    },
    /// A free-neighbor scan of `z` (storage, plus overflow for a heavy `z`
    /// in 3/2 mode): the least free neighbor found.
    ScanFree {
        z: V,
        purpose: ScanPurpose,
        found: Option<V>,
    },
    /// `ScanAdjReply` batches for an augmentation search at `z`, cached
    /// into the per-update adjacency.
    AugAdj(V),
    /// `CounterReply` batches for the augmentation search at `z`, over its
    /// candidate `(w, mate(w), mate-is-light)` triples in scan order.
    AugCounters {
        z: V,
        cands: Vec<(V, V, bool)>,
        got: Vec<(V, u32)>,
    },
    /// `ScanAdjReply` batches for the end-of-update counter commit, merged
    /// per vertex.
    CommitAdj(FnvMap<V, Vec<V>>),
    /// Batch drain paused at a send-budget boundary; resumes on
    /// [`MatchMsg::BatchResume`].
    Yield,
}

/// The per-update working memory.
#[derive(Debug, Default)]
struct Ctx {
    /// The update being processed.
    upd: Option<Update>,
    /// Cached records, kept current with local mutations.
    stat: FnvMap<V, StatRec>,
    /// Snapshot of records at first fetch (pre-update statuses).
    pre: FnvMap<V, StatRec>,
    /// Free vertices still to process.
    free_list: Vec<V>,
    /// Vertices certified free-and-pathless; re-queued after any later
    /// matching mutation, since a rematch elsewhere can create a new
    /// length-3 path ending at them (fixpoint bounded by the O(1)
    /// mutations per update).
    parked: Vec<V>,
    /// Fetched adjacency lists (light vertices: complete).
    adj: FnvMap<V, Vec<(V, Ann)>>,
    /// Direct counter deltas (relation changes).
    counter_deltas: FnvMap<V, i64>,
    /// Matched edges created this update, pending the both-sides-free
    /// safety check (3/2 mode).
    new_edges: Vec<(V, V)>,
}

impl Ctx {
    /// Vertices whose matched-status now differs from the pre-update
    /// snapshot; `true` = now free.
    fn status_diff(&self) -> Vec<(V, bool)> {
        let mut out = Vec::new();
        for (&v, rec) in &self.stat {
            if let Some(p) = self.pre.get(&v) {
                if p.matched() != rec.matched() {
                    out.push((v, !rec.matched()));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The lesser of two optional free neighbors: a scan that hears from two
/// machines keeps the least witness either reported.
fn least(a: Option<V>, b: Option<V>) -> Option<V> {
    a.into_iter().chain(b).min()
}

/// The coordinator machine state.
pub struct Coordinator {
    /// Machine layout.
    pub layout: Layout,
    /// Section 4 mode: maintain counters + eliminate length-3 paths.
    pub three_halves: bool,
    /// Per-round send budget `S` in words; the batch drain yields to the
    /// next round rather than exceed it.
    send_budget: usize,
    /// The update-history, contiguous in seq: entries are pushed with
    /// consecutive numbers and only ever popped from the front, so the last
    /// one is `next_seq - 1` and no entry stores its own
    /// ([`Coordinator::front_seq`]).
    hist: VecDeque<HistEntry>,
    next_seq: u64,
    /// Sync table, dense by machine id: the history seq each machine was
    /// last sent up to. `None` (never synced) trims like seq 0 but, unlike
    /// `Some(0)`, has no `seen` line in the snapshot.
    last_seen: Vec<Option<u64>>,
    /// Counts over the sync table: `lag[i]` storage and overflow machines
    /// were last sent up to seq `lag_base + i`. A trim pops the empty
    /// slots off the front, after which `lag_base` is the minimum sync
    /// point — no scan of the table.
    lag: VecDeque<u32>,
    lag_base: u64,
    rr_cursor: usize,
    overflow_of: FnvMap<V, MachineId>,
    free_overflow: Vec<MachineId>,
    suspended: FnvMap<V, usize>,
    /// Current protocol phase.
    pub(crate) phase: Phase,
    /// Replies still outstanding for the wave in flight: set where the wave
    /// is sent (`wait`), counted down in one place in `reply`.
    expect: usize,
    /// Per-update working memory.
    ctx: Ctx,
    /// Updates of the in-flight batch still to drain. The stat cache in
    /// [`Ctx::stat`] is carried from update to update within a batch (the
    /// coordinator is the only writer, so cached records stay exact), which
    /// is what turns per-update fetch round-trips into synchronous cache
    /// hits.
    queue: VecDeque<Update>,
    /// Running matched-edge count: every mutation goes through
    /// [`Coordinator`]'s `do_match`/`do_unmatch`, so one local counter
    /// answers `MatchingSize` queries without touching any other machine.
    matched_pairs: usize,
    /// Query answers stashed for driver-side extraction after the wave.
    answers: Vec<(u32, usize)>,
    out: Vec<(MachineId, MatchMsg)>,
    /// Words queued in `out` (what the batch drain checks against the send
    /// budget after every update).
    out_words: usize,
}

/// Emits a `key a b` snapshot line.
fn put_pair<S: Sink>(s: &mut S, key: &[u8], a: u64, b: u64) {
    s.put(key);
    put_field(s, a);
    put_field(s, b);
    s.put(b"\n");
}

/// Adds one machine to count slot `at`, growing the table to reach it.
fn count_at(lag: &mut VecDeque<u32>, at: usize) {
    if at >= lag.len() {
        lag.resize(at + 1, 0);
    }
    lag[at] += 1;
}

impl Coordinator {
    /// Creates the coordinator for the given layout; `send_budget` is the
    /// machine send cap `S` (in words) the batch drain must respect.
    pub fn new(layout: Layout, three_halves: bool, send_budget: usize) -> Self {
        let base = layout.overflow_base();
        Coordinator {
            layout,
            three_halves,
            send_budget,
            hist: VecDeque::new(),
            next_seq: 1,
            last_seen: vec![None; layout.total_machines()],
            lag: VecDeque::from([(layout.n_storage + layout.n_overflow) as u32]),
            lag_base: 0,
            rr_cursor: 0,
            overflow_of: FnvMap::default(),
            free_overflow: (0..layout.n_overflow)
                .rev()
                .map(|i| base + i as MachineId)
                .collect(),
            suspended: FnvMap::default(),
            phase: Phase::Idle,
            expect: 0,
            ctx: Ctx::default(),
            queue: VecDeque::new(),
            matched_pairs: 0,
            answers: Vec::new(),
            out: Vec::new(),
            out_words: 0,
        }
    }

    /// Plain-text snapshot of the coordinator's full durable state. The
    /// coordinator is never killed, but the epoch-abort path rolls *every*
    /// live machine back to the pre-batch frontier, so the snapshot must be
    /// lossless: history buffer, sync table, overflow directory and the
    /// matched-pair counter all round-trip through
    /// [`Coordinator::restore_text`]. Transient working state (phase, ctx,
    /// queue, stashed answers) is empty at every quiescent boundary
    /// and is not serialized.
    pub fn write_text<S: Sink>(&self, s: &mut S) {
        s.put(b"coord v2\npairs");
        put_field(s, self.matched_pairs as u64);
        s.put(b"\nseq");
        put_field(s, self.next_seq);
        s.put(b"\nrr");
        put_field(s, self.rr_cursor as u64);
        s.put(b"\n");
        for (seq, h) in (self.front_seq()..).zip(&self.hist) {
            s.put(b"hist");
            put_field(s, seq);
            match *h {
                HistEntry::MatchAdd(e, la, lb) => {
                    s.put(b" add");
                    put_field(s, e.u as u64);
                    put_field(s, e.v as u64);
                    put_field(s, la as u64);
                    put_field(s, lb as u64);
                }
                HistEntry::MatchDel(e) => {
                    s.put(b" del");
                    put_field(s, e.u as u64);
                    put_field(s, e.v as u64);
                }
                HistEntry::Heavy(v) => {
                    s.put(b" heavy");
                    put_field(s, v as u64);
                }
                HistEntry::Light(v) => {
                    s.put(b" light");
                    put_field(s, v as u64);
                }
            }
            s.put(b"\n");
        }
        for (m, q) in self.last_seen.iter().enumerate() {
            if let Some(q) = *q {
                put_pair(s, b"seen", m as u64, q);
            }
        }
        let mut ovf: Vec<(V, MachineId)> = self.overflow_of.iter().map(|(&v, &m)| (v, m)).collect();
        ovf.sort_unstable();
        for (v, m) in ovf {
            put_pair(s, b"ovf", v as u64, m as u64);
        }
        // Stack order is load-bearing: future overflow assignments pop from
        // the back, so the restored vector must be bit-identical.
        for &m in &self.free_overflow {
            s.put(b"free");
            put_field(s, m as u64);
            s.put(b"\n");
        }
        let mut susp: Vec<(V, usize)> = self.suspended.iter().map(|(&v, &c)| (v, c)).collect();
        susp.sort_unstable();
        for (v, c) in susp {
            put_pair(s, b"susp", v as u64, c as u64);
        }
    }

    /// Plain-text snapshot ([`Coordinator::write_text`] as a `String`).
    pub fn snapshot_text(&self) -> String {
        text::render(|s| self.write_text(s))
    }

    /// Full state restore from [`Coordinator::snapshot_text`] output: the
    /// epoch-abort rollback. Transients reset to the quiescent idle state
    /// the snapshot was taken in.
    pub fn restore_text(&mut self, text: &str) {
        self.hist.clear();
        self.last_seen.fill(None);
        self.overflow_of.clear();
        self.free_overflow.clear();
        self.suspended.clear();
        self.phase = Phase::Idle;
        self.ctx = Ctx::default();
        self.queue.clear();
        self.answers.clear();
        self.out.clear();
        self.out_words = 0;
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("coord v2"), "snapshot header");
        let mut front = None;
        for line in lines {
            let mut f = Fields::new(line);
            match f.word().expect("non-empty snapshot line") {
                b"pairs" => self.matched_pairs = f.dec(),
                b"seq" => self.next_seq = f.dec(),
                b"rr" => self.rr_cursor = f.dec(),
                b"hist" => {
                    let seq: u64 = f.dec();
                    let entry = match f.word().expect("hist line ends before its kind") {
                        b"add" => {
                            HistEntry::MatchAdd(Edge::new(f.dec(), f.dec()), f.flag(), f.flag())
                        }
                        b"del" => HistEntry::MatchDel(Edge::new(f.dec(), f.dec())),
                        b"heavy" => HistEntry::Heavy(f.dec()),
                        b"light" => HistEntry::Light(f.dec()),
                        other => {
                            panic!("unknown hist entry kind {}", String::from_utf8_lossy(other))
                        }
                    };
                    let want = *front.get_or_insert(seq) + self.hist.len() as u64;
                    assert_eq!(seq, want, "history not contiguous in seq");
                    self.hist.push_back(entry);
                }
                b"seen" => {
                    let m: usize = f.dec();
                    self.last_seen[m] = Some(f.dec());
                }
                b"ovf" => {
                    let v: V = f.dec();
                    self.overflow_of.insert(v, f.dec());
                }
                b"free" => self.free_overflow.push(f.dec()),
                b"susp" => {
                    let v: V = f.dec();
                    self.suspended.insert(v, f.dec());
                }
                other => panic!("unknown snapshot key {}", String::from_utf8_lossy(other)),
            }
        }
        if let Some(front) = front {
            assert_eq!(
                front + self.hist.len() as u64,
                self.next_seq,
                "history does not end at seq {}",
                self.next_seq - 1
            );
        }
        self.rebuild_lag();
    }

    /// Refills the count table from the sync table.
    fn rebuild_lag(&mut self) {
        self.lag_base = self.scan_min_seen();
        self.lag.clear();
        for q in &self.last_seen[1 + self.layout.n_stats..] {
            count_at(&mut self.lag, (q.unwrap_or(0) - self.lag_base) as usize);
        }
    }

    /// The sync points the trim reads: those of every storage and overflow
    /// machine (the coordinator and the stats machines carry no history).
    fn synced(&self) -> &[Option<u64>] {
        &self.last_seen[1 + self.layout.n_stats..]
    }

    /// Bulk-load hook: presets the matched-pair counter to the size of the
    /// preprocessed matching.
    pub fn preset_matched_pairs(&mut self, pairs: usize) {
        self.matched_pairs = pairs;
    }

    /// Current matched-edge count (exact; see the field docs).
    pub fn matched_pairs(&self) -> usize {
        self.matched_pairs
    }

    /// Answers a `MatchingSize` query from the local counter (stashes the
    /// answer for driver-side extraction; zero outbound traffic).
    pub fn answer_matching_size(&mut self, qid: u32) {
        self.answers.push((qid, self.matched_pairs));
    }

    /// Drains the query answers stashed here.
    pub fn take_answers(&mut self) -> Vec<(u32, usize)> {
        std::mem::take(&mut self.answers)
    }

    /// Stashed-answer count (metered as coordinator memory).
    pub fn answers_len(&self) -> usize {
        self.answers.len()
    }

    /// Bulk-load hook: registers an overflow assignment made during
    /// preprocessing.
    pub fn preassign_overflow(&mut self, v: V, machine: MachineId, count: usize) {
        self.free_overflow.retain(|&m| m != machine);
        self.overflow_of.insert(v, machine);
        self.suspended.insert(v, count);
    }

    /// Drops the update or batch a cut-short run left in flight (see
    /// `dmpc_mpc::Machine::abandon_run`): replies it waits for were dropped,
    /// so the next injection must start from idle.
    pub fn abandon_run(&mut self) {
        self.phase = Phase::Idle;
        self.queue.clear();
    }

    /// Records currently cached in per-update working memory (metered as
    /// coordinator memory).
    pub fn cache_len(&self) -> usize {
        self.ctx.stat.len()
    }

    /// Batch updates still queued (metered as coordinator memory).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    // ---- history helpers -------------------------------------------------

    fn push_hist(&mut self, e: HistEntry) {
        self.hist.push_back(e);
        self.next_seq += 1;
    }

    /// Seq of the first buffered entry (`next_seq` when none is).
    fn front_seq(&self) -> u64 {
        self.next_seq - self.hist.len() as u64
    }

    /// The suffix `machine` has not seen; marks it synced to the end, moving
    /// the machine from its old count slot to the head one.
    fn hist_for(&mut self, machine: MachineId) -> HistSlice {
        let head = self.next_seq - 1;
        let seen = self.last_seen[machine as usize].replace(head).unwrap_or(0);
        if seen != head {
            self.lag[(seen - self.lag_base) as usize] -= 1;
            count_at(&mut self.lag, (head - self.lag_base) as usize);
        }
        self.hist_suffix(seen)
    }

    /// Drops the history prefix every storage/overflow machine has been
    /// sent: the empty count slots leave the front, and `lag_base` is then
    /// the minimum sync point.
    fn trim_hist(&mut self) {
        while self.lag.front() == Some(&0) {
            self.lag.pop_front();
            self.lag_base += 1;
        }
        debug_assert_eq!(self.lag_base, self.scan_min_seen(), "count table");
        self.hist.drain(..self.first_after(self.lag_base));
    }

    /// The minimum sync point by a scan of the table: the oracle the count
    /// table is checked against.
    fn scan_min_seen(&self) -> u64 {
        self.synced()
            .iter()
            .map(|s| s.unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Index of the first buffered entry with seq above `seen`: the deque
    /// is contiguous in seq, so it sits at a fixed offset from the front.
    fn first_after(&self, seen: u64) -> usize {
        ((seen + 1).saturating_sub(self.front_seq()) as usize).min(self.hist.len())
    }

    /// Words of the sync state: one per slot of the dense table, and one
    /// per two `u32` count slots (metered as coordinator memory).
    pub fn sync_words(&self) -> usize {
        self.last_seen.len() + self.lag.len().div_ceil(2)
    }

    /// Current history length (tests assert it stays bounded by the
    /// refresh cycle).
    pub fn hist_len(&self) -> usize {
        self.hist.len()
    }

    /// The history entries with sequence number greater than `seen`
    /// (read-only; used by audits to replicate a machine's repair).
    pub fn hist_suffix(&self, seen: u64) -> HistSlice {
        let first = self.first_after(seen);
        let seqs = self.front_seq() + first as u64..;
        seqs.zip(self.hist.range(first..).copied()).collect()
    }

    // ---- small senders ---------------------------------------------------

    fn send(&mut self, to: MachineId, msg: MatchMsg) {
        use dmpc_mpc::Payload;
        self.out_words += msg.size_words();
        self.out.push((to, msg));
    }

    /// Hands the queued messages to the caller.
    fn take_out(&mut self) -> Vec<(MachineId, MatchMsg)> {
        self.out_words = 0;
        std::mem::take(&mut self.out)
    }

    /// Waits for the `replies` of the wave just sent, in `phase`.
    fn wait(&mut self, replies: usize, phase: Phase) {
        self.expect = replies;
        self.phase = phase;
    }

    /// Sends `req` to store machine `m` behind the history suffix `m` has
    /// not seen.
    fn send_store(&mut self, m: MachineId, req: StoreReq) {
        let hist = self.hist_for(m);
        self.send(m, MatchMsg::Store { hist, req });
    }

    fn send_storage(&mut self, v: V, req: StoreReq) {
        self.send_store(self.layout.storage_of(v), req);
    }

    fn send_overflow(&mut self, v: V, req: StoreReq) {
        self.send_store(self.overflow_of[&v], req);
    }

    /// Sends `req` to `v`'s storage machine, and to its overflow machine too
    /// when `overflow`; returns the number of replies to wait for.
    fn send_stores(&mut self, v: V, req: StoreReq, overflow: bool) -> usize {
        if overflow {
            self.send_storage(v, req.clone());
            self.send_overflow(v, req);
            2
        } else {
            self.send_storage(v, req);
            1
        }
    }

    /// Whether heavy `v` has edges on its overflow machine's stack.
    fn has_suspended(&self, v: V) -> bool {
        self.suspended.get(&v).is_some_and(|&c| c > 0)
    }

    fn push_stat(&mut self, v: V) {
        let rec = self.ctx.stat[&v];
        let m = self.layout.stats_of(v);
        self.send(m, MatchMsg::StatSet(vec![(v, rec)]));
    }

    fn fetch_stats(&mut self, vs: Vec<V>, then: StatsThen) {
        let mut by_machine: FnvMap<MachineId, Vec<V>> = FnvMap::default();
        for v in vs {
            if self.ctx.stat.contains_key(&v) {
                continue;
            }
            by_machine
                .entry(self.layout.stats_of(v))
                .or_default()
                .push(v);
        }
        if by_machine.is_empty() {
            self.after_stats(then);
            return;
        }
        let replies = by_machine.len();
        for (m, vs) in by_machine {
            self.send(m, MatchMsg::StatQuery(vs));
        }
        self.wait(replies, Phase::Stats(then));
    }

    fn light(&self, v: V) -> bool {
        !self.ctx.stat[&v].heavy
    }

    fn ann_of(&self, v: V) -> Ann {
        let r = &self.ctx.stat[&v];
        if r.matched() {
            Ann {
                matched: true,
                mate: r.mate,
                mate_light: !self.ctx.stat[&r.mate].heavy,
            }
        } else {
            Ann::free()
        }
    }

    /// Issues a free-neighbor scan for `z`: the storage machine, plus the
    /// overflow machine in 3/2 mode when `z` is heavy with suspended edges.
    /// `z_heavy` is passed explicitly because `z`'s record may not be
    /// cached (it can come from an adjacency annotation).
    fn scan_free(&mut self, z: V, z_heavy: bool, exclude: Vec<V>, purpose: ScanPurpose) {
        let overflow = self.three_halves && z_heavy && self.has_suspended(z);
        let replies = self.send_stores(z, StoreReq::ScanFree { z, exclude }, overflow);
        let found = None;
        self.wait(replies, Phase::ScanFree { z, purpose, found });
    }

    // ---- matching mutations -----------------------------------------------

    fn do_match(&mut self, a: V, b: V) {
        debug_assert!(
            !self.ctx.stat[&a].matched() && !self.ctx.stat[&b].matched(),
            "match({a},{b}) on matched vertex"
        );
        self.ctx.stat.get_mut(&a).unwrap().mate = b;
        self.ctx.stat.get_mut(&b).unwrap().mate = a;
        let (al, bl) = (self.light(a), self.light(b));
        let e = Edge::new(a, b);
        let (ul, vl) = if e.u == a { (al, bl) } else { (bl, al) };
        self.push_hist(HistEntry::MatchAdd(e, ul, vl));
        self.matched_pairs += 1;
        self.push_stat(a);
        self.push_stat(b);
        self.ctx.free_list.retain(|&x| x != a && x != b);
        if self.three_halves {
            self.ctx.new_edges.push((a, b));
        }
    }

    fn do_unmatch(&mut self, a: V, b: V) {
        debug_assert_eq!(self.ctx.stat[&a].mate, b);
        self.ctx.stat.get_mut(&a).unwrap().mate = NO_MATE;
        self.ctx.stat.get_mut(&b).unwrap().mate = NO_MATE;
        self.push_hist(HistEntry::MatchDel(Edge::new(a, b)));
        self.matched_pairs -= 1;
        self.push_stat(a);
        self.push_stat(b);
    }

    // ---- entry points ------------------------------------------------------

    /// Starts processing an injected update; returns outbound messages.
    pub fn start(&mut self, upd: Update) -> Vec<(MachineId, MatchMsg)> {
        self.ctx = Ctx {
            upd: Some(upd),
            ..Default::default()
        };
        let e = upd.edge();
        match upd {
            Update::Insert(_) => self.fetch_stats(vec![e.u, e.v], StatsThen::InsPrimary),
            Update::Delete(_) => self.fetch_stats(vec![e.u, e.v], StatsThen::DelPrimary),
        }
        self.take_out()
    }

    /// Starts an injected batch: prefetches every endpoint's record in one
    /// shared wave (then the mates in a second), and drains the queue
    /// back-to-back — consecutive updates whose records are cached process
    /// in the same round with zero extra fetch round-trips. Section 3 mode
    /// only: the 3/2 algorithm's counter commit reads pre-update snapshots
    /// that assume one update per run.
    pub fn start_batch(&mut self, updates: Vec<Update>) -> Vec<(MachineId, MatchMsg)> {
        assert!(
            !self.three_halves,
            "batched execution covers the Section 3 algorithm only"
        );
        if updates.is_empty() {
            return Vec::new();
        }
        self.queue = updates.into();
        self.ctx = Ctx::default();
        let mut endpoints: Vec<V> = self
            .queue
            .iter()
            .flat_map(|u| {
                let e = u.edge();
                [e.u, e.v]
            })
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        self.fetch_stats(endpoints, StatsThen::BatchEndpoints);
        self.take_out()
    }

    /// Pops the next queued batch update, carrying the stat cache over.
    fn next_queued(&mut self) {
        let Some(upd) = self.queue.pop_front() else {
            self.phase = Phase::Idle;
            return;
        };
        let stat = std::mem::take(&mut self.ctx.stat);
        self.ctx = Ctx {
            upd: Some(upd),
            stat,
            ..Default::default()
        };
        let e = upd.edge();
        match upd {
            Update::Insert(_) => self.fetch_stats(vec![e.u, e.v], StatsThen::InsPrimary),
            Update::Delete(_) => self.fetch_stats(vec![e.u, e.v], StatsThen::DelPrimary),
        }
    }

    /// Feeds one reply message; returns outbound messages.
    pub fn reply(&mut self, msg: MatchMsg) -> Vec<(MachineId, MatchMsg)> {
        // Fold the reply into the phase. The side effects a reply carries
        // (moving suspended edges, the suspended counts) happen here, in the
        // call that received it, so they leave in this call's outbox: the
        // batch drain's yield test reads `out_words`, which every `take_out`
        // resets, and a deferred send would move yields, and so rounds.
        let mut phase = std::mem::replace(&mut self.phase, Phase::Idle);
        match (&mut phase, msg) {
            (Phase::Stats(_), MatchMsg::StatReply(recs)) => {
                for (v, r) in recs {
                    self.ctx.stat.insert(v, r);
                    self.ctx.pre.entry(v).or_insert(r);
                }
            }
            (Phase::MovedOut, MatchMsg::MovedOut { v, entries }) => {
                if !entries.is_empty() {
                    *self.suspended.entry(v).or_default() += entries.len();
                    self.send_overflow(v, StoreReq::AddSuspended { v, entries });
                }
            }
            (Phase::DelProbes(found_alive), MatchMsg::DelReply { at, found, alive }) => {
                // Only an alive-set removal can trigger a suspended-stack
                // refill; a suspended removal leaves the alive set intact
                // and is accounted for here.
                *found_alive.entry(at).or_default() |= found && alive;
                if found && !alive {
                    if let Some(c) = self.suspended.get_mut(&at) {
                        *c -= 1;
                    }
                }
            }
            (Phase::Fetch, MatchMsg::FetchReply { v, entry }) => {
                if let Some(entry) = entry {
                    *self.suspended.get_mut(&v).unwrap() -= 1;
                    self.send_storage(v, StoreReq::AddAlive { at: v, entry });
                }
            }
            (
                Phase::ScanHeavy { free, steal, .. },
                MatchMsg::ScanHeavyReply {
                    free: f, steal: s, ..
                },
            ) => {
                *free = least(*free, f);
                *steal = s.or(*steal);
            }
            (
                Phase::ScanHeavy { free, .. } | Phase::ScanFree { found: free, .. },
                MatchMsg::ScanFreeReply { q, .. },
            ) => {
                *free = least(*free, q);
            }
            (Phase::AugAdj(_), MatchMsg::ScanAdjReply { z, entries }) => {
                self.ctx.adj.insert(z, entries);
            }
            (Phase::AugCounters { got, .. }, MatchMsg::CounterReply(rs)) => got.extend(rs),
            (Phase::CommitAdj(got), MatchMsg::ScanAdjReply { z, entries }) => {
                got.entry(z)
                    .or_default()
                    .extend(entries.iter().map(|&(n, _)| n));
            }
            (Phase::Yield, MatchMsg::BatchResume) => {}
            (phase, msg) => panic!("coordinator in {phase:?} got unexpected {msg:?}"),
        }
        self.expect -= 1;
        if self.expect == 0 {
            self.resume(phase);
        } else {
            self.phase = phase;
        }
        self.take_out()
    }

    /// Continues the update once the last reply of a wave is in.
    fn resume(&mut self, phase: Phase) {
        match phase {
            Phase::Idle => unreachable!("an idle coordinator waits for nothing"),
            Phase::Stats(then) => self.after_stats(then),
            Phase::MovedOut => self.insert_place_edge(),
            Phase::DelProbes(found_alive) => self.delete_after_probes(found_alive),
            Phase::Fetch => self.delete_after_refill(),
            Phase::ScanHeavy { z, free, steal } => self.on_scan_heavy(z, free, steal),
            Phase::ScanFree { z, purpose, found } => self.on_scan_free(z, purpose, found),
            Phase::AugAdj(z) => self.aug_counters(z),
            Phase::AugCounters { z, cands, got } => self.aug_pick(z, cands, got),
            Phase::CommitAdj(got) => self.commit_counters(got),
            Phase::Yield => self.next_queued(),
        }
    }

    // ---- insert flow -------------------------------------------------------

    fn after_stats(&mut self, then: StatsThen) {
        match then {
            StatsThen::InsPrimary => {
                let e = self.ctx.upd.unwrap().edge();
                let mut mates = Vec::new();
                for v in [e.u, e.v] {
                    let r = self.ctx.stat[&v];
                    if r.matched() {
                        mates.push(r.mate);
                    }
                }
                self.fetch_stats(mates, StatsThen::InsMates);
            }
            StatsThen::InsMates => self.insert_transitions(),
            StatsThen::DelPrimary => self.delete_probes(),
            StatsThen::Mutate(action) => self.run_mutation(action),
            StatsThen::BatchEndpoints => {
                // Wave 2: the mates of every matched endpoint, so the
                // per-update InsMates fetches also hit the cache.
                let mut mates: Vec<V> = self
                    .queue
                    .iter()
                    .flat_map(|u| {
                        let e = u.edge();
                        [e.u, e.v]
                    })
                    .filter_map(|v| {
                        let r = self.ctx.stat[&v];
                        r.matched().then_some(r.mate)
                    })
                    .collect();
                mates.sort_unstable();
                mates.dedup();
                self.fetch_stats(mates, StatsThen::BatchMates);
            }
            StatsThen::BatchMates => self.next_queued(),
        }
    }

    fn insert_transitions(&mut self) {
        let e = self.ctx.upd.unwrap().edge();
        let tau = self.layout.tau as u32;
        let mut transitions = Vec::new();
        for v in [e.u, e.v] {
            let r = self.ctx.stat.get_mut(&v).unwrap();
            r.degree += 1;
            if r.degree == tau + 1 {
                r.heavy = true;
                transitions.push(v);
            }
        }
        for &v in &transitions {
            self.push_hist(HistEntry::Heavy(v));
            let ov = self
                .free_overflow
                .pop()
                .expect("overflow pool exhausted; raise Layout::n_overflow");
            self.overflow_of.insert(v, ov);
            self.suspended.insert(v, 0);
            let mate = self.ctx.stat[&v].mate;
            let mate = (mate != NO_MATE).then_some(mate);
            self.send_storage(v, StoreReq::MakeHeavy { v, mate });
        }
        self.push_stat(e.u);
        self.push_stat(e.v);
        if transitions.is_empty() {
            self.insert_place_edge();
        } else {
            self.wait(transitions.len(), Phase::MovedOut);
        }
    }

    fn insert_place_edge(&mut self) {
        let e = self.ctx.upd.unwrap().edge();
        for (at, nbr) in [(e.u, e.v), (e.v, e.u)] {
            let ann = self.ann_of(nbr);
            if self.ctx.stat[&at].heavy {
                *self.suspended.get_mut(&at).unwrap() += 1;
                let entries = vec![(nbr, ann)];
                self.send_overflow(at, StoreReq::AddSuspended { v: at, entries });
            } else {
                self.send_storage(at, StoreReq::AddEdge { at, nbr, ann });
            }
        }
        if self.three_halves {
            let (pu, pv) = (self.ctx.pre[&e.u], self.ctx.pre[&e.v]);
            if !pv.matched() {
                *self.ctx.counter_deltas.entry(e.u).or_default() += 1;
            }
            if !pu.matched() {
                *self.ctx.counter_deltas.entry(e.v).or_default() += 1;
            }
        }
        self.insert_decide();
    }

    fn insert_decide(&mut self) {
        let e = self.ctx.upd.unwrap().edge();
        let (ru, rv) = (self.ctx.stat[&e.u], self.ctx.stat[&e.v]);
        match (ru.matched(), rv.matched()) {
            (true, true) => self.pre_commit(),
            (false, false) => {
                self.do_match(e.u, e.v);
                self.pre_commit();
            }
            (m_u, _) => {
                let (u, v) = if m_u { (e.u, e.v) } else { (e.v, e.u) };
                if self.three_halves {
                    let up = self.ctx.stat[&u].mate;
                    let up_heavy = self.ctx.stat[&up].heavy;
                    // Exclude v and anything freed so far as witnesses.
                    let mut ex = vec![v];
                    ex.extend(self.in_update_free());
                    self.scan_free(up, up_heavy, ex, ScanPurpose::InsAug { u, up, v });
                } else if self.ctx.stat[&v].heavy {
                    self.ctx.free_list.push(v);
                    self.process_free();
                } else {
                    self.pre_commit();
                }
            }
        }
    }

    // ---- delete flow -------------------------------------------------------

    fn delete_probes(&mut self) {
        let e = self.ctx.upd.unwrap().edge();
        let mut replies = 0;
        for (at, nbr) in [(e.u, e.v), (e.v, e.u)] {
            let overflow = self.ctx.stat[&at].heavy && self.overflow_of.contains_key(&at);
            replies += self.send_stores(at, StoreReq::DelEdge { at, nbr }, overflow);
        }
        self.wait(replies, Phase::DelProbes(FnvMap::default()));
    }

    fn delete_after_probes(&mut self, found_alive: FnvMap<V, bool>) {
        let e = self.ctx.upd.unwrap().edge();
        let mut fetches = 0;
        for v in [e.u, e.v] {
            if self.ctx.stat[&v].heavy
                && found_alive.get(&v).copied().unwrap_or(false)
                && self.has_suspended(v)
            {
                self.send_overflow(v, StoreReq::FetchSuspended { v });
                fetches += 1;
            }
        }
        if fetches > 0 {
            self.wait(fetches, Phase::Fetch);
        } else {
            self.delete_after_refill();
        }
    }

    fn delete_after_refill(&mut self) {
        let e = self.ctx.upd.unwrap().edge();
        let tau = self.layout.tau as u32;
        for v in [e.u, e.v] {
            let (newdeg, was_heavy) = {
                let r = self.ctx.stat.get_mut(&v).unwrap();
                r.degree -= 1;
                (r.degree, r.heavy)
            };
            if was_heavy && newdeg == tau {
                self.ctx.stat.get_mut(&v).unwrap().heavy = false;
                self.push_hist(HistEntry::Light(v));
                debug_assert!(
                    !self.has_suspended(v),
                    "alive = min(tau, deg) keeps the stack empty at the transition"
                );
                self.send_storage(v, StoreReq::MakeLight { v });
                if let Some(ov) = self.overflow_of.remove(&v) {
                    self.send(ov, MatchMsg::ReleaseOverflow { v });
                    self.free_overflow.push(ov);
                }
                self.suspended.remove(&v);
            }
        }
        self.push_stat(e.u);
        self.push_stat(e.v);
        if self.three_halves {
            let (pu, pv) = (self.ctx.pre[&e.u], self.ctx.pre[&e.v]);
            if !pv.matched() {
                *self.ctx.counter_deltas.entry(e.u).or_default() -= 1;
            }
            if !pu.matched() {
                *self.ctx.counter_deltas.entry(e.v).or_default() -= 1;
            }
        }
        if self.ctx.stat[&e.u].mate == e.v {
            self.do_unmatch(e.u, e.v);
            self.ctx.free_list.push(e.u);
            self.ctx.free_list.push(e.v);
            self.process_free();
        } else {
            self.pre_commit();
        }
    }

    // ---- the free-vertex loop ----------------------------------------------

    fn process_free(&mut self) {
        // Drop entries that got matched along the way.
        let stat = &self.ctx.stat;
        self.ctx.free_list.retain(|v| !stat[v].matched());
        // Heavy vertices first: their steals may free further light
        // vertices, and finishing them first keeps every remaining free
        // vertex light (which the augmentation accounting relies on).
        let heavy_z = self
            .ctx
            .free_list
            .iter()
            .copied()
            .find(|&v| self.ctx.stat[&v].heavy);
        let Some(z) = heavy_z.or_else(|| self.ctx.free_list.first().copied()) else {
            self.pre_commit();
            return;
        };
        if self.ctx.stat[&z].heavy {
            let mut replies = 1;
            self.send_storage(z, StoreReq::ScanHeavy { z });
            if self.three_halves && self.has_suspended(z) {
                let exclude = Vec::new();
                self.send_overflow(z, StoreReq::ScanFree { z, exclude });
                replies += 1;
            }
            let (free, steal) = (None, None);
            self.wait(replies, Phase::ScanHeavy { z, free, steal });
        } else {
            self.scan_free(z, false, Vec::new(), ScanPurpose::Rematch);
        }
    }

    fn on_scan_heavy(&mut self, z: V, free: Option<V>, steal: Option<(V, V)>) {
        if let Some(q) = free {
            self.fetch_stats(
                vec![q],
                StatsThen::Mutate(MutateAction::MatchPair { a: z, b: q }),
            );
        } else if let Some((w, wm)) = steal {
            self.fetch_stats(
                vec![w, wm],
                StatsThen::Mutate(MutateAction::Steal { z, w, wm }),
            );
        } else {
            // The counting argument (tau^2 > 2 m_max) guarantees a steal
            // candidate among tau all-matched alive neighbors.
            panic!("heavy vertex {z} found neither free neighbor nor light-mated neighbor");
        }
    }

    fn on_scan_free(&mut self, z: V, purpose: ScanPurpose, q: Option<V>) {
        match purpose {
            ScanPurpose::Rematch => {
                if let Some(q) = q {
                    self.fetch_stats(
                        vec![q],
                        StatsThen::Mutate(MutateAction::MatchPair { a: z, b: q }),
                    );
                } else if self.three_halves {
                    self.aug_search(z);
                } else {
                    self.park(z);
                    self.process_free();
                }
            }
            ScanPurpose::InsAug { u, up, v } => {
                if let Some(w) = q {
                    self.fetch_stats(
                        vec![w],
                        StatsThen::Mutate(MutateAction::InsAugRotate { u, up, v, w }),
                    );
                } else if self.ctx.stat[&v].heavy {
                    self.ctx.free_list.push(v);
                    self.process_free();
                } else {
                    self.pre_commit();
                }
            }
            ScanPurpose::AugFinal { z, w, wp } => {
                if let Some(q) = q {
                    self.fetch_stats(
                        vec![w, wp, q],
                        StatsThen::Mutate(MutateAction::AugRotate { z, w, wp, q }),
                    );
                } else {
                    panic!("counter promised a free neighbor of {wp} but the scan found none");
                }
            }
            ScanPurpose::CheckA { a, b } => match q {
                Some(x) => {
                    let mut exclude = self.in_update_free();
                    exclude.push(x);
                    let b_heavy = self.ctx.stat[&b].heavy;
                    self.scan_free(b, b_heavy, exclude, ScanPurpose::CheckB { a, b, x });
                }
                None => self.pre_commit(),
            },
            ScanPurpose::CheckB { a, b, x } => match q {
                Some(y) => self.fetch_stats(
                    vec![x, y],
                    StatsThen::Mutate(MutateAction::CheckRotate { a, b, x, y }),
                ),
                None => self.pre_commit(),
            },
        }
    }

    fn run_mutation(&mut self, action: MutateAction) {
        match action {
            MutateAction::MatchPair { a, b } => {
                self.do_match(a, b);
            }
            MutateAction::Steal { z, w, wm } => {
                self.do_unmatch(w, wm);
                self.do_match(z, w);
                self.ctx.free_list.push(wm);
            }
            MutateAction::AugRotate { z, w, wp, q } => {
                self.do_unmatch(w, wp);
                self.do_match(z, w);
                self.do_match(wp, q);
            }
            MutateAction::InsAugRotate { u, up, v, w } => {
                self.do_unmatch(u, up);
                self.do_match(u, v);
                self.do_match(up, w);
            }
            MutateAction::CheckRotate { a, b, x, y } => {
                self.do_unmatch(a, b);
                self.do_match(a, x);
                self.do_match(b, y);
            }
        }
        // Mutations invalidate earlier no-path certificates: re-queue.
        let parked = std::mem::take(&mut self.ctx.parked);
        self.ctx.free_list.extend(parked);
        self.process_free();
    }

    /// Vertices freed during this update that are still free (invalid as
    /// augmentation witnesses: their own neighborhoods are re-verified via
    /// the parked/requeue loop instead).
    fn in_update_free(&self) -> Vec<V> {
        self.ctx
            .status_diff()
            .into_iter()
            .filter(|&(_, now_free)| now_free)
            .map(|(v, _)| v)
            .collect()
    }

    /// Certifies `z` free with no applicable move; re-checked only if a
    /// later mutation occurs in this update.
    fn park(&mut self, z: V) {
        self.ctx.free_list.retain(|&x| x != z);
        if !self.ctx.parked.contains(&z) {
            self.ctx.parked.push(z);
        }
    }

    // ---- Section 4 augmentation search ---------------------------------------

    fn aug_search(&mut self, z: V) {
        let mut want: Vec<V> = vec![z];
        want.extend(self.ctx.free_list.iter().copied());
        for (v, _) in self.ctx.status_diff() {
            want.push(v);
        }
        want.sort_unstable();
        want.dedup();
        want.retain(|v| !self.ctx.adj.contains_key(v));
        if want.is_empty() {
            self.aug_counters(z);
            return;
        }
        let replies = want.len();
        for v in want {
            debug_assert!(self.light(v), "augmentation participants are light");
            self.send_storage(v, StoreReq::ScanAdj { z: v });
        }
        self.wait(replies, Phase::AugAdj(z));
    }

    fn aug_counters(&mut self, z: V) {
        // `ctx.adj` caches each list as fetched, so its annotations predate
        // any rotation made since in this update; every such mutation went
        // through `ctx.stat`, whose records therefore override them.
        let stat = &self.ctx.stat;
        let cands: Vec<(V, V, bool)> = self.ctx.adj[&z]
            .iter()
            .filter_map(|&(w, ann)| {
                let now = stat.get(&w).map(|r| (r.matched(), r.mate));
                let (matched, mate) = now.unwrap_or((ann.matched, ann.mate));
                let mate_light = stat.get(&mate).map_or(ann.mate_light, |r| !r.heavy);
                matched.then_some((w, mate, mate_light))
            })
            .collect();
        if cands.is_empty() {
            self.park(z);
            self.process_free();
            return;
        }
        let mut by_machine: FnvMap<MachineId, Vec<V>> = FnvMap::default();
        for &(_, wp, _) in &cands {
            by_machine
                .entry(self.layout.stats_of(wp))
                .or_default()
                .push(wp);
        }
        let replies = by_machine.len();
        for (m, vs) in by_machine {
            self.send(m, MatchMsg::CounterQuery(vs));
        }
        let got = Vec::new();
        self.wait(replies, Phase::AugCounters { z, cands, got });
    }

    fn aug_pick(&mut self, z: V, cands: Vec<(V, V, bool)>, got: Vec<(V, u32)>) {
        let counters: FnvMap<V, u32> = got.into_iter().collect();
        let diff = self.ctx.status_diff();
        let adj_has = |v: V, w: V| -> bool {
            self.ctx
                .adj
                .get(&v)
                .is_some_and(|l| l.iter().any(|&(x, _)| x == w))
        };
        for &(w, wp, wp_light) in &cands {
            let mut c = counters.get(&wp).copied().unwrap_or(0) as i64;
            // Stored counters reflect pre-update statuses; adjust for every
            // status change made during this update, then exclude z itself.
            for &(d, now_free) in &diff {
                if adj_has(d, wp) {
                    c += if now_free { 1 } else { -1 };
                }
            }
            if adj_has(z, wp) {
                c -= 1;
            }
            if c >= 1 {
                self.scan_free(wp, !wp_light, vec![z], ScanPurpose::AugFinal { z, w, wp });
                return;
            }
        }
        self.park(z);
        self.process_free();
    }

    // ---- finalization ---------------------------------------------------------

    /// Before committing counters: run the both-sides-free safety check on
    /// every matched edge created during this update. A new matched edge
    /// whose two endpoints *both* still have free neighbors (outside the
    /// in-update free set, whose ends are re-verified separately via the
    /// parked/requeue loop) is the middle of a length-3 augmenting path;
    /// augmenting it matches two more free vertices, so the loop terminates.
    fn pre_commit(&mut self) {
        if !self.three_halves {
            self.finalize();
            return;
        }
        while let Some((a, b)) = self.ctx.new_edges.pop() {
            // Rotations may have re-unmatched the pair since.
            if self.ctx.stat[&a].mate != b {
                continue;
            }
            let (a_heavy, exclude) = (self.ctx.stat[&a].heavy, self.in_update_free());
            self.scan_free(a, a_heavy, exclude, ScanPurpose::CheckA { a, b });
            return;
        }
        self.finalize();
    }

    fn finalize(&mut self) {
        if self.three_halves {
            let diff = self.ctx.status_diff();
            let missing: Vec<V> = diff
                .iter()
                .map(|&(v, _)| v)
                .filter(|v| !self.ctx.adj.contains_key(v))
                .collect();
            if !missing.is_empty() {
                let mut replies = 0;
                for v in missing {
                    let overflow = self.ctx.stat[&v].heavy && self.has_suspended(v);
                    replies += self.send_stores(v, StoreReq::ScanAdj { z: v }, overflow);
                }
                self.wait(replies, Phase::CommitAdj(FnvMap::default()));
                return;
            }
            let got: FnvMap<V, Vec<V>> = diff
                .iter()
                .map(|&(v, _)| {
                    (
                        v,
                        self.ctx.adj[&v].iter().map(|&(n, _)| n).collect::<Vec<V>>(),
                    )
                })
                .collect();
            self.commit_counters(got);
        } else {
            self.refresh_and_idle();
        }
    }

    fn commit_counters(&mut self, mut adjacency: FnvMap<V, Vec<V>>) {
        for (v, _) in self.ctx.status_diff() {
            if let std::collections::hash_map::Entry::Vacant(e) = adjacency.entry(v) {
                let l: Vec<V> = self.ctx.adj[&v].iter().map(|&(n, _)| n).collect();
                e.insert(l);
            }
        }
        let mut deltas = std::mem::take(&mut self.ctx.counter_deltas);
        for (v, now_free) in self.ctx.status_diff() {
            let d = if now_free { 1 } else { -1 };
            for &nbr in &adjacency[&v] {
                *deltas.entry(nbr).or_default() += d;
            }
        }
        let mut by_machine: FnvMap<(MachineId, i64), Vec<V>> = FnvMap::default();
        for (v, d) in deltas {
            if d != 0 {
                by_machine
                    .entry((self.layout.stats_of(v), d))
                    .or_default()
                    .push(v);
            }
        }
        for ((m, d), vs) in by_machine {
            self.send(m, MatchMsg::CounterDelta(vs, d as i32));
        }
        self.refresh_and_idle();
    }

    fn refresh_and_idle(&mut self) {
        let first = 1 + self.layout.n_stats;
        let count = self.layout.n_storage + self.layout.n_overflow;
        let m = (first + self.rr_cursor % count) as MachineId;
        self.rr_cursor = (self.rr_cursor + 1) % count;
        let hist = self.hist_for(m);
        if !hist.is_empty() {
            let req = StoreReq::Refresh;
            self.send(m, MatchMsg::Store { hist, req });
        }
        self.trim_hist();
        if self.queue.is_empty() {
            self.phase = Phase::Idle;
        } else if 4 * self.out_words < self.send_budget {
            // Batch drain: chain straight into the next queued update. With
            // a warm cache this happens within the same round.
            self.next_queued();
        } else {
            // Nearing the send cap: yield and resume next round, so the
            // combined drain never violates the per-round send budget.
            self.send(dmpc_mpc::COORDINATOR, MatchMsg::BatchResume);
            self.wait(1, Phase::Yield);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_core::DmpcParams;

    /// The sync state as the old full-table scan kept it: a plain table,
    /// and a history front that moves to `min + 1` at every trim.
    struct Oracle {
        seen: Vec<Option<u64>>,
        first_store: usize,
        front: u64,
    }

    impl Oracle {
        fn mark(&mut self, m: usize, head: u64) {
            self.seen[m] = Some(head);
        }

        fn trim(&mut self) {
            let min = self.seen[self.first_store..]
                .iter()
                .map(|s| s.unwrap_or(0))
                .min();
            self.front = self.front.max(min.unwrap() + 1);
        }

        fn seen_lines(&self) -> String {
            let lines = self.seen.iter().enumerate();
            lines
                .filter_map(|(m, q)| q.map(|q| format!("seen {m} {q}\n")))
                .collect()
        }
    }

    fn seen_lines(c: &Coordinator) -> String {
        let text = c.snapshot_text();
        text.lines()
            .filter(|l| l.starts_with("seen"))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    /// The count table holds exactly the table's histogram from `lag_base`.
    fn assert_lag_counts(c: &Coordinator) {
        let mut want = vec![0u32; c.lag.len()];
        for q in c.synced().iter().map(|s| s.unwrap_or(0)) {
            want[(q - c.lag_base) as usize] += 1;
        }
        assert_eq!(c.lag.iter().copied().collect::<Vec<_>>(), want);
    }

    #[test]
    fn count_table_trims_what_the_scan_trims() {
        let layout = Layout::new(&DmpcParams::new(256, 768));
        let first_store = 1 + layout.n_stats;
        let total = layout.total_machines();
        let mut c = Coordinator::new(layout, false, 1 << 20);
        // Seqs 5..=20 buffered; every fourth storage/overflow machine never
        // synced, the rest spread unevenly over 4..=20.
        let mut text = String::from("coord v2\npairs 0\nseq 21\nrr 3\n");
        for seq in 5..=20 {
            text += &format!("hist {seq} light {}\n", seq % 7);
        }
        let mut oracle = Oracle {
            seen: vec![None; total],
            first_store,
            front: 5,
        };
        for m in first_store..total {
            if m % 4 != 0 {
                let q = 4 + (m as u64 * 7) % 17;
                text += &format!("seen {m} {q}\n");
                oracle.mark(m, q);
            }
        }
        c.restore_text(&text);
        assert_eq!(c.snapshot_text(), text);
        assert_lag_counts(&c);
        let mut x = 12345u64;
        for step in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (x >> 33) as usize;
            match pick % 8 {
                0 | 1 => c.push_hist(HistEntry::Heavy(pick as V % 256)),
                2..=4 => {
                    let m = first_store + pick / 8 % (total - first_store);
                    let from = oracle.seen[m].unwrap_or(0).max(oracle.front - 1);
                    let got = c.hist_for(m as MachineId);
                    oracle.mark(m, c.next_seq - 1);
                    let seqs: Vec<u64> = got.iter().map(|&(s, _)| s).collect();
                    assert_eq!(seqs, (from + 1..c.next_seq).collect::<Vec<_>>());
                }
                5 | 6 => {
                    let m = first_store + c.rr_cursor % (total - first_store);
                    c.refresh_and_idle();
                    oracle.mark(m, c.next_seq - 1);
                    oracle.trim();
                }
                _ => {
                    c.trim_hist();
                    oracle.trim();
                }
            }
            if step % 500 == 499 {
                let snap = c.snapshot_text();
                c.restore_text(&snap);
                assert_eq!(c.snapshot_text(), snap, "step {step}");
            }
            assert_lag_counts(&c);
            assert_eq!(
                c.hist_len() as u64,
                c.next_seq - oracle.front,
                "step {step}"
            );
            assert_eq!(seen_lines(&c), oracle.seen_lines(), "step {step}");
        }
        // The never-synced machines were reached, so the history did drain.
        assert!(oracle.front > 5 && c.lag_base == c.scan_min_seen());
    }
}
