//! The chaos fault-injection plane: deterministic, seedable schedules of
//! machine failures and shard reshapes, plus the shared helpers every
//! recovery/migration transfer uses.
//!
//! A [`ChaosPlan`] is a first-class, reproducible test input: a list of
//! kill/revive/split/merge events pinned to *batch indexes* of a workload
//! stream. Harnesses (see `dmpc_core::elastic`) apply the events between
//! batches, so the same `(stream seed, plan seed)` pair always produces the
//! same fault trajectory — faults are data, not ad-hoc test hacks.
//!
//! The plane also owns the wire-format helpers for state transfer:
//! snapshots are plain text (the repo's serialization idiom), packed eight
//! bytes per 64-bit word by [`pack_text`] so handoff traffic is metered in
//! the model's units, and streamed in capacity-budgeted chunks by a
//! stop-and-wait [`SnapCourier`] (chunk, ack, next chunk) so migration and
//! recovery respect the per-round send cap `S` exactly like PR 5's query
//! waves. [`fnv1a`] is the digest used for bit-identical state comparisons.

use crate::MachineId;

/// What a chaos event does to the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosKind {
    /// Fail-stop the machine: messages addressed to it are dropped (and
    /// recorded as [`crate::Violation::DeadMachine`]) until it is revived.
    Kill(MachineId),
    /// Bring the machine back with recovered state (checkpoint + replay).
    Revive(MachineId),
    /// Halve the machine's shard, migrating the upper half to a neighbour.
    Split(MachineId),
    /// Empty the machine's shard into a neighbour.
    Merge(MachineId),
}

/// One scheduled fault, pinned to a position in the workload stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The event fires before the batch with this index is applied (an
    /// index one past the last batch fires after the whole stream).
    pub at_batch: usize,
    /// `None`: the event fires *between* batches (the PR 6 boundary model).
    /// `Some(r)`: the event fires *inside* batch `at_batch`'s quiescence
    /// run, at the start of round `r` (1-based, like round metrics) — the
    /// victim's round `r-1` sends still deliver, and every message
    /// addressed to it from round `r` on is quarantined as
    /// [`crate::Violation::LostInFlight`]. Only meaningful on
    /// [`ChaosKind::Kill`] and [`ChaosKind::Revive`].
    pub at_round: Option<u32>,
    /// What happens.
    pub kind: ChaosKind,
}

/// Which event kinds a generated plan may contain, and which machines are
/// exempt (e.g. a coordinator the paper treats as reliable).
#[derive(Clone, Copy, Debug)]
pub struct ChaosCaps {
    /// Allow kill/revive events.
    pub kill_revive: bool,
    /// Allow split/merge events (only meaningful for range-partitioned
    /// algorithms; drivers without shard migration skip them).
    pub split_merge: bool,
    /// Machines `0..protect` are never killed, split, or merged.
    pub protect: MachineId,
}

impl Default for ChaosCaps {
    fn default() -> Self {
        ChaosCaps {
            kill_revive: true,
            split_merge: true,
            protect: 0,
        }
    }
}

/// A deterministic, seedable schedule of chaos events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The events, sorted by `at_batch`.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (no faults) — the failure-free baseline.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder: append one event (kept sorted by batch index).
    pub fn with_event(mut self, at_batch: usize, kind: ChaosKind) -> Self {
        self.events.push(ChaosEvent {
            at_batch,
            at_round: None,
            kind,
        });
        self.events.sort_by_key(|e| e.at_batch);
        self
    }

    /// Builder: append one *mid-flight* event that fires at the start of
    /// round `at_round` (1-based) inside batch `at_batch`'s quiescence run.
    pub fn with_event_in_round(mut self, at_batch: usize, at_round: u32, kind: ChaosKind) -> Self {
        self.events.push(ChaosEvent {
            at_batch,
            at_round: Some(at_round),
            kind,
        });
        self.events.sort_by_key(|e| e.at_batch);
        self
    }

    /// Validates the plan against a cluster shape *before* any run starts,
    /// so malformed plans fail with a message naming the offending event
    /// instead of surfacing as a mid-run panic.
    ///
    /// `n_machines` is the cluster size, `killable` the number of machines
    /// the algorithm allows chaos to take (e.g. all but a protected
    /// coordinator), and `max_rounds` the quiescence cap
    /// ([`crate::Cluster::round_limit`]) that bounds legal round offsets.
    /// Mid-flight kills are *transient*: the service loop aborts the
    /// epoch and recovers the victim before the next batch, so they count
    /// against the simultaneous-dead budget only within their own batch.
    pub fn validate(
        &self,
        n_machines: usize,
        killable: usize,
        max_rounds: usize,
    ) -> Result<(), String> {
        let mut dead: Vec<MachineId> = Vec::new();
        let mut transient: Vec<MachineId> = Vec::new();
        let mut cur_batch = usize::MAX;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.at_batch != cur_batch {
                // Batch boundary: every mid-flight victim of the previous
                // batch has been auto-recovered by abort-and-retry.
                transient.clear();
                cur_batch = ev.at_batch;
            }
            let name = |m: MachineId| {
                format!("event #{i} ({:?} at batch {})", ev.kind, ev.at_batch)
                    + &match ev.at_round {
                        Some(r) => format!(" round {r} targeting machine {m}"),
                        None => format!(" targeting machine {m}"),
                    }
            };
            let m = match ev.kind {
                ChaosKind::Kill(m)
                | ChaosKind::Revive(m)
                | ChaosKind::Split(m)
                | ChaosKind::Merge(m) => m,
            };
            if m as usize >= n_machines {
                return Err(format!(
                    "{}: machine id out of range (cluster has {n_machines} machines)",
                    name(m)
                ));
            }
            if let Some(r) = ev.at_round {
                if !matches!(ev.kind, ChaosKind::Kill(_) | ChaosKind::Revive(_)) {
                    return Err(format!(
                        "{}: round offsets are only legal on Kill/Revive (reshapes \
                         need a quiescent cluster)",
                        name(m)
                    ));
                }
                if r == 0 || r as usize > max_rounds {
                    return Err(format!(
                        "{}: round offset {r} is outside the quiescence cap \
                         1..={max_rounds}",
                        name(m)
                    ));
                }
            }
            match ev.kind {
                ChaosKind::Kill(m) => {
                    if dead.contains(&m) || transient.contains(&m) {
                        return Err(format!("{}: machine is already dead", name(m)));
                    }
                    if ev.at_round.is_some() {
                        transient.push(m);
                    } else {
                        dead.push(m);
                    }
                    let down = dead.len() + transient.len();
                    if down > killable {
                        return Err(format!(
                            "{}: {down} machines dead at once exceeds the killable \
                             count {killable}",
                            name(m)
                        ));
                    }
                    if down >= n_machines {
                        return Err(format!(
                            "{}: killing every machine leaves no live peer to recover \
                             from",
                            name(m)
                        ));
                    }
                }
                ChaosKind::Revive(m) => {
                    if let Some(p) = transient.iter().position(|&d| d == m) {
                        transient.remove(p);
                    } else if let Some(p) = dead.iter().position(|&d| d == m) {
                        if ev.at_round.is_some() {
                            // A mid-round revive cannot rebuild state lost
                            // at a batch boundary: recovery needs a
                            // quiescent handoff.
                            return Err(format!(
                                "{}: mid-round revive of a machine killed at a batch \
                                 boundary (state recovery needs a quiescent handoff)",
                                name(m)
                            ));
                        }
                        dead.remove(p);
                    } else {
                        return Err(format!("{}: machine is not dead", name(m)));
                    }
                }
                ChaosKind::Split(_) | ChaosKind::Merge(_) => {}
            }
        }
        Ok(())
    }

    /// Generates a well-formed plan: kills target alive, unprotected
    /// machines; revives target dead ones; splits/merges fire only while no
    /// machine is dead (the service loop skips reshapes during an outage
    /// anyway); every machine still dead at the end is revived one past the last
    /// batch. Deterministic in `(seed, n_batches, n_machines, n_events,
    /// caps)`.
    pub fn generate(
        seed: u64,
        n_batches: usize,
        n_machines: usize,
        n_events: usize,
        caps: ChaosCaps,
    ) -> Self {
        let mut rng = seed ^ 0x5eed_c4a0_5c4a_05c4;
        let mut times: Vec<usize> = (0..n_events)
            .map(|_| splitmix64(&mut rng) as usize % n_batches.max(1))
            .collect();
        times.sort_unstable();
        let mut events = Vec::new();
        let mut dead: Vec<MachineId> = Vec::new();
        let killable: Vec<MachineId> = (caps.protect..n_machines as MachineId).collect();
        for at in times {
            let r = splitmix64(&mut rng);
            if !dead.is_empty() && (r & 1 == 1 || dead.len() >= killable.len().saturating_sub(1)) {
                let m = dead.remove(splitmix64(&mut rng) as usize % dead.len());
                events.push(ChaosEvent {
                    at_batch: at,
                    at_round: None,
                    kind: ChaosKind::Revive(m),
                });
            } else if caps.split_merge && dead.is_empty() && r & 6 != 0 {
                let m = killable[splitmix64(&mut rng) as usize % killable.len().max(1)];
                let kind = if r & 8 == 0 {
                    ChaosKind::Split(m)
                } else {
                    ChaosKind::Merge(m)
                };
                events.push(ChaosEvent {
                    at_batch: at,
                    at_round: None,
                    kind,
                });
            } else if caps.kill_revive {
                let alive: Vec<MachineId> = killable
                    .iter()
                    .copied()
                    .filter(|m| !dead.contains(m))
                    .collect();
                if alive.is_empty() {
                    continue;
                }
                let m = alive[splitmix64(&mut rng) as usize % alive.len()];
                dead.push(m);
                events.push(ChaosEvent {
                    at_batch: at,
                    at_round: None,
                    kind: ChaosKind::Kill(m),
                });
            }
        }
        for m in dead {
            events.push(ChaosEvent {
                at_batch: n_batches,
                at_round: None,
                kind: ChaosKind::Revive(m),
            });
        }
        ChaosPlan { seed, events }
    }

    /// The events scheduled at batch index `at`, in plan order.
    pub fn events_at(&self, at: usize) -> impl Iterator<Item = &ChaosEvent> {
        self.events.iter().filter(move |e| e.at_batch == at)
    }
}

/// `splitmix64`: the standard 64-bit mixing step (public-domain constants),
/// used so the chaos plane has a seedable RNG with zero dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Packs a text snapshot into wire words: word 0 is the byte length, then
/// the bytes, eight per word, zero-padded. Snapshots stay human-readable on
/// the machine side while handoff traffic is metered in model words.
pub fn pack_text(text: &str) -> Vec<u64> {
    let bytes = text.as_bytes();
    let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
    words
}

/// Inverse of [`pack_text`]. Panics on a malformed buffer (transfer-layer
/// bugs, not data-dependent conditions).
pub fn unpack_text(words: &[u64]) -> String {
    let len = words[0] as usize;
    assert!(
        words.len() == 1 + len.div_ceil(8),
        "packed text length mismatch"
    );
    let mut bytes = Vec::with_capacity(len);
    for w in &words[1..] {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).expect("packed text is valid UTF-8")
}

/// FNV-1a over bytes: the digest used for bit-identical state comparisons
/// (chaos runs vs failure-free replays).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming form of [`fnv1a`]: feeding a byte string in any number of
/// pieces gives exactly `fnv1a` of their concatenation, so a digest over a
/// large text never needs the text in one buffer.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The same digest behind the standard hashing traits, so
/// `BuildHasherDefault<Fnv1a>` can key a `HashMap`: a key's hash is
/// [`fnv1a`] of the bytes its `Hash` impl writes.
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes)
    }

    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
    }
}

/// Sender-side state of one budgeted stop-and-wait state transfer: at most
/// `budget` payload words leave per round, the next chunk departs only on
/// the receiver's ack, so handoff never violates the send cap `S`.
#[derive(Clone, Debug)]
pub struct SnapCourier {
    /// The receiving machine.
    pub dst: MachineId,
    /// Whether the receiver installs the payload as a full state restore
    /// (recovery) or merges it (migration).
    pub install: bool,
    words: Vec<u64>,
    cursor: usize,
    budget: usize,
}

impl SnapCourier {
    /// A courier shipping `words` to `dst`, at most `budget` payload words
    /// per chunk.
    pub fn new(dst: MachineId, install: bool, words: Vec<u64>, budget: usize) -> Self {
        SnapCourier {
            dst,
            install,
            words,
            cursor: 0,
            budget: budget.max(1),
        }
    }

    /// The next chunk and whether it is the last, or `None` when the
    /// payload is fully shipped. An empty payload still yields one (empty,
    /// last) chunk so the receiver always observes a terminator.
    pub fn next_chunk(&mut self) -> Option<(Vec<u64>, bool)> {
        if self.cursor > self.words.len() || (self.cursor == self.words.len() && self.cursor != 0) {
            return None;
        }
        let end = (self.cursor + self.budget).min(self.words.len());
        let chunk = self.words[self.cursor..end].to_vec();
        self.cursor = end;
        let last = end == self.words.len();
        if last && end == 0 {
            self.cursor = 1; // mark the empty payload as shipped
        }
        Some((chunk, last))
    }

    /// Payload words not yet shipped (memory accounting).
    pub fn words_left(&self) -> usize {
        self.words.len().saturating_sub(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for text in [
            "",
            "a",
            "12345678",
            "123456789",
            "vert 0 0 1\nadj 0 1 t 2 3 4\n",
        ] {
            assert_eq!(unpack_text(&pack_text(text)), text);
        }
    }

    #[test]
    fn streamed_fnv1a_equals_one_shot_at_every_split() {
        let text = b"vert 0 0 1\nadj 0 1 t 2 3 4\nvert 1 0 1";
        for cut in 0..=text.len() {
            let mut h = Fnv1a::new();
            h.write(&text[..cut]);
            h.write(&text[cut..]);
            assert_eq!(h.finish(), fnv1a(text));
        }
        assert_eq!(Fnv1a::new().finish(), fnv1a(b""));
    }

    #[test]
    fn hasher_path_equals_one_shot() {
        use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
        let text = b"vert 0 0 1\nadj 0 1 t 2 3 4";
        let mut h = Fnv1a::default();
        Hasher::write(&mut h, &text[..7]);
        Hasher::write(&mut h, &text[7..]);
        assert_eq!(Hasher::finish(&h), fnv1a(text));
        // A map key hashes to the digest of the bytes its `Hash` writes.
        let build = BuildHasherDefault::<Fnv1a>::default();
        assert_eq!(build.hash_one(77u32), fnv1a(&77u32.to_ne_bytes()));
    }

    #[test]
    fn generated_plans_are_deterministic_and_well_formed() {
        let caps = ChaosCaps::default();
        let a = ChaosPlan::generate(7, 20, 8, 10, caps);
        let b = ChaosPlan::generate(7, 20, 8, 10, caps);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::generate(8, 20, 8, 10, caps));
        // Kills target alive machines, revives dead ones, and every kill is
        // eventually revived.
        let mut dead = std::collections::BTreeSet::new();
        for ev in &a.events {
            match ev.kind {
                ChaosKind::Kill(m) => assert!(dead.insert(m), "kill of a dead machine"),
                ChaosKind::Revive(m) => assert!(dead.remove(&m), "revive of an alive machine"),
                ChaosKind::Split(_) | ChaosKind::Merge(_) => {
                    assert!(dead.is_empty(), "reshape while a machine is dead")
                }
            }
        }
        assert!(dead.is_empty(), "unrevived machines at end of plan");
    }

    #[test]
    fn protect_exempts_low_machines() {
        let caps = ChaosCaps {
            kill_revive: true,
            split_merge: false,
            protect: 1,
        };
        let plan = ChaosPlan::generate(3, 40, 4, 24, caps);
        assert!(!plan.events.is_empty());
        for ev in &plan.events {
            match ev.kind {
                ChaosKind::Kill(m) | ChaosKind::Split(m) | ChaosKind::Merge(m) => {
                    assert!(m >= 1, "protected machine targeted")
                }
                ChaosKind::Revive(_) => {}
            }
        }
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let plan = ChaosPlan::generate(7, 20, 8, 10, ChaosCaps::default());
        assert_eq!(plan.validate(8, 8, 10_000), Ok(()));
        // Mid-flight kills are transient (auto-recovered by abort-and-retry
        // within their batch), so the same machine may die again later.
        let mid = ChaosPlan::new(0)
            .with_event_in_round(2, 5, ChaosKind::Kill(3))
            .with_event_in_round(4, 2, ChaosKind::Kill(3))
            .with_event_in_round(4, 6, ChaosKind::Revive(3));
        assert_eq!(mid.validate(8, 8, 10_000), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_event() {
        // Round offset past the quiescence cap.
        let err = ChaosPlan::new(0)
            .with_event_in_round(1, 64, ChaosKind::Kill(2))
            .validate(8, 8, 50)
            .unwrap_err();
        assert!(err.contains("event #0"), "{err}");
        assert!(err.contains("Kill(2)"), "{err}");
        assert!(err.contains("round offset 64"), "{err}");
        assert!(err.contains("1..=50"), "{err}");

        // Round offsets are illegal on reshapes.
        let err = ChaosPlan::new(0)
            .with_event_in_round(0, 3, ChaosKind::Split(1))
            .validate(8, 8, 100)
            .unwrap_err();
        assert!(err.contains("only legal on Kill/Revive"), "{err}");

        // Machine id out of range.
        let err = ChaosPlan::new(0)
            .with_event(0, ChaosKind::Kill(9))
            .validate(8, 8, 100)
            .unwrap_err();
        assert!(err.contains("machine 9"), "{err}");
        assert!(err.contains("8 machines"), "{err}");

        // More simultaneous kills than the algorithm allows.
        let err = ChaosPlan::new(0)
            .with_event(0, ChaosKind::Kill(1))
            .with_event(0, ChaosKind::Kill(2))
            .validate(8, 1, 100)
            .unwrap_err();
        assert!(err.contains("exceeds the killable count 1"), "{err}");

        // Killing everything leaves no live peer to recover from.
        let err = ChaosPlan::new(0)
            .with_event(0, ChaosKind::Kill(0))
            .with_event(0, ChaosKind::Kill(1))
            .validate(2, 2, 100)
            .unwrap_err();
        assert!(err.contains("no live peer"), "{err}");

        // Double-kill and spurious revive.
        let err = ChaosPlan::new(0)
            .with_event(0, ChaosKind::Kill(1))
            .with_event(1, ChaosKind::Kill(1))
            .validate(8, 8, 100)
            .unwrap_err();
        assert!(err.contains("already dead"), "{err}");
        let err = ChaosPlan::new(0)
            .with_event(0, ChaosKind::Revive(1))
            .validate(8, 8, 100)
            .unwrap_err();
        assert!(err.contains("not dead"), "{err}");
    }

    #[test]
    fn courier_chunks_respect_budget_and_terminate() {
        let words: Vec<u64> = (0..23).collect();
        let mut c = SnapCourier::new(3, false, words.clone(), 10);
        let mut got = Vec::new();
        let mut lasts = 0;
        while let Some((chunk, last)) = c.next_chunk() {
            assert!(chunk.len() <= 10);
            got.extend(chunk);
            if last {
                lasts += 1;
            }
        }
        assert_eq!(got, words);
        assert_eq!(lasts, 1);
        // Empty payloads still emit exactly one terminating chunk.
        let mut e = SnapCourier::new(0, true, Vec::new(), 4);
        assert_eq!(e.next_chunk(), Some((Vec::new(), true)));
        assert_eq!(e.next_chunk(), None);
    }
}
