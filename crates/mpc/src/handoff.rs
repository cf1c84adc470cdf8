//! The snapshot handoff: the one way a machine's state crosses the cluster.
//!
//! A revived machine's state and a migrated shard travel as plain text,
//! packed eight bytes per word behind a length word so the transfer is
//! metered in the model's units. The sender ships the words in chunks of at
//! most [`chunk_budget`] words, each leaving only on the receiver's ack of
//! the one before, so a handoff round stays far inside the send cap `S`.
//! A handoff of `w` packed words in `c` chunks costs `2c + 1` rounds, `2c`
//! messages and `w + 3c` words. Each machine program holds one [`Handoff`],
//! feeds it every [`HandoffMsg`], and acts on the [`Outcome`].

use crate::{MachineId, Outbox, Payload};

/// Per-chunk payload budget under machine capacity `capacity_words` (the
/// model's `S`): a quarter of it, leaving the rest of the round's send cap
/// to the protocol's own traffic.
pub fn chunk_budget(capacity_words: usize) -> usize {
    (capacity_words / 4).max(1)
}

/// The handoff's wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandoffMsg {
    /// Injected at the sender: ship the staged text (see [`Handoff::stage`])
    /// to `to` in chunks of at most `budget` words.
    Begin {
        /// The receiving machine.
        to: MachineId,
        /// Per-chunk payload budget (words).
        budget: usize,
    },
    /// sender -> receiver: one chunk of the packed text.
    Chunk {
        /// Packed text words.
        words: Vec<u64>,
        /// Final chunk: the receiver now has the whole text.
        last: bool,
    },
    /// receiver -> sender: chunk received, send the next.
    Ack,
}

impl Payload for HandoffMsg {
    fn size_words(&self) -> usize {
        match self {
            HandoffMsg::Begin { .. } => 3,
            HandoffMsg::Chunk { words, .. } => 2 + words.len(),
            HandoffMsg::Ack => 1,
        }
    }
}

/// What a [`HandoffMsg`] leaves for the machine program that received it.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing: the handoff carries on by itself.
    Pending,
    /// An ack found nothing left to send: this machine's shipment is done.
    Shipped,
    /// The last chunk arrived (and is acked): the whole text, to install.
    Received(String),
}

/// One machine's side of the handoff: a text staged to ship, the shipment
/// in flight, and the chunks received so far.
#[derive(Debug, Default)]
pub struct Handoff {
    staged: Option<String>,
    courier: Option<Courier>,
    inbound: Vec<u64>,
}

/// A shipment in flight, until the ack of its last chunk.
#[derive(Debug)]
struct Courier {
    to: MachineId,
    words: Vec<u64>,
    sent: usize,
    budget: usize,
}

impl Handoff {
    /// Stages `text` for the next [`HandoffMsg::Begin`] (driver-side: the
    /// text was recovered off-cluster).
    pub fn stage(&mut self, text: &str) {
        self.staged = Some(text.to_owned());
    }

    /// Starts shipping `text` to `to` in chunks of at most `budget` words
    /// and sends the first, wrapped into the machine's message type by
    /// `wrap`. The rest leave on the receiver's acks.
    pub fn ship<M: Payload>(
        &mut self,
        to: MachineId,
        text: &str,
        budget: usize,
        out: &mut Outbox<M>,
        wrap: fn(HandoffMsg) -> M,
    ) {
        self.courier = Some(Courier {
            to,
            words: pack(text),
            sent: 0,
            budget: budget.max(1),
        });
        self.next_chunk(out, wrap);
    }

    /// Sends the next chunk, or drops the finished shipment.
    fn next_chunk<M: Payload>(
        &mut self,
        out: &mut Outbox<M>,
        wrap: fn(HandoffMsg) -> M,
    ) -> Outcome {
        let Some(c) = self.courier.as_mut().filter(|c| c.sent < c.words.len()) else {
            self.courier = None;
            return Outcome::Shipped;
        };
        let end = (c.sent + c.budget).min(c.words.len());
        let words = c.words[c.sent..end].to_vec();
        c.sent = end;
        let last = end == c.words.len();
        out.send(c.to, wrap(HandoffMsg::Chunk { words, last }));
        Outcome::Pending
    }

    /// Feeds one handoff message from `from`, sending what it calls for
    /// (the first chunk, the next one, an ack) through `out`.
    pub fn on_message<M: Payload>(
        &mut self,
        from: MachineId,
        msg: HandoffMsg,
        out: &mut Outbox<M>,
        wrap: fn(HandoffMsg) -> M,
    ) -> Outcome {
        match msg {
            HandoffMsg::Begin { to, budget } => {
                let text = self.staged.take().expect("handoff without a staged text");
                self.ship(to, &text, budget, out, wrap);
                Outcome::Pending
            }
            HandoffMsg::Chunk { words, last } => {
                self.inbound.extend_from_slice(&words);
                out.send(from, wrap(HandoffMsg::Ack));
                if last {
                    Outcome::Received(unpack(&std::mem::take(&mut self.inbound)))
                } else {
                    Outcome::Pending
                }
            }
            HandoffMsg::Ack => self.next_chunk(out, wrap),
        }
    }

    /// True while a shipment is in flight (its last ack not yet back).
    pub fn is_shipping(&self) -> bool {
        self.courier.is_some()
    }

    /// Words held, metered as the machine's memory: the staged text (as
    /// packed), the chunks received so far, and a shipment's unsent words
    /// plus its 2-word header (destination and budget).
    pub fn memory_words(&self) -> usize {
        let staged = self.staged.as_ref().map_or(0, |t| 1 + t.len().div_ceil(8));
        let courier = self
            .courier
            .as_ref()
            .map_or(0, |c| 2 + c.words.len() - c.sent);
        staged + courier + self.inbound.len()
    }
}

/// Packs a text into wire words: the byte length, then the bytes, eight per
/// word, zero-padded. Never empty, so every shipment has a last chunk.
fn pack(text: &str) -> Vec<u64> {
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

/// Inverse of [`pack`]. Panics on a malformed buffer (a transfer-layer
/// bug, not a data-dependent condition).
fn unpack(words: &[u64]) -> String {
    let len = words[0] as usize;
    assert_eq!(
        words.len(),
        1 + len.div_ceil(8),
        "packed text length mismatch"
    );
    let mut bytes: Vec<u8> = words[1..].iter().flat_map(|w| w.to_le_bytes()).collect();
    bytes.truncate(len);
    String::from_utf8(bytes).expect("packed text is valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Envelope;

    #[test]
    fn pack_unpack_round_trips() {
        for text in [
            "",
            "a",
            "12345678",
            "123456789",
            "vert 0 0 1\nadj 0 1 t 2 3 4\n",
        ] {
            assert_eq!(unpack(&pack(text)), text);
        }
    }

    #[test]
    fn chunks_respect_the_budget_and_the_cost_is_exact() {
        for (text, budget) in [("", 4), ("a", 1), ("vert 0 0 1\nadj 0 1 t 2 3 4\n", 2)] {
            // Machine 0 ships to machine 1, one round per hop.
            let (w, mut hs) = (pack(text).len(), [Handoff::default(), Handoff::default()]);
            hs[0].stage(text);
            assert_eq!(hs[0].memory_words(), w);
            let begin = HandoffMsg::Begin { to: 1, budget };
            let from = Envelope::<HandoffMsg>::EXTERNAL;
            let mut inflight = vec![Envelope {
                from,
                to: 0,
                msg: begin,
            }];
            let (mut rounds, mut msgs, mut words, mut outcomes) = (0, 0, 0, Vec::new());
            while !inflight.is_empty() {
                rounds += 1;
                let mut sink = Vec::new();
                for env in inflight.drain(..) {
                    let mut out = Outbox::open(env.to, &mut sink);
                    outcomes.push(hs[env.to as usize].on_message(
                        env.from,
                        env.msg,
                        &mut out,
                        |m| m,
                    ));
                }
                for env in &sink {
                    (msgs, words) = (msgs + 1, words + env.msg.size_words());
                    assert!(env.msg.size_words() <= 2 + budget);
                }
                inflight = sink;
            }
            let c = w.div_ceil(budget);
            assert_eq!((rounds, msgs, words), (2 * c + 1, 2 * c, w + 3 * c));
            assert!(outcomes.contains(&Outcome::Received(text.to_owned())));
            assert_eq!(outcomes.last(), Some(&Outcome::Shipped));
            assert!(hs.iter().all(|h| h.memory_words() == 0 && !h.is_shipping()));
        }
    }
}
