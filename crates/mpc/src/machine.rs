//! The machine abstraction: local state + message handlers.

use crate::MachineId;

/// A message payload. Every payload reports its size in 64-bit words so the
/// simulator can meter communication and enforce per-round send/receive caps.
pub trait Payload: Send + Clone + std::fmt::Debug {
    /// Size of this message in 64-bit words (>= 1: even an empty signal
    /// occupies an envelope word on the wire).
    fn size_words(&self) -> usize;
}

/// A routed message.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sending machine, or [`Envelope::EXTERNAL`] for injected updates.
    pub from: MachineId,
    /// Receiving machine.
    pub to: MachineId,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Pseudo-id used as `from` for messages injected from outside the
    /// cluster (the arriving edge update). External injections are not
    /// counted as machine-to-machine communication.
    pub const EXTERNAL: MachineId = MachineId::MAX;
}

/// Per-round context available to a stepping machine.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx {
    /// The id of the machine being stepped.
    pub self_id: MachineId,
    /// Total number of machines in the cluster.
    pub n_machines: usize,
    /// Round number within the current update (starting at 1).
    pub round: u32,
}

/// Collects the messages a machine sends during one round.
///
/// An outbox is a *view* over an executor-owned envelope buffer: sends are
/// appended directly to the buffer the executor later routes from, so a
/// steady-state round performs no allocation for outbound messages, and
/// [`Outbox::queued_words`] is a running counter (O(1), not a re-scan).
#[derive(Debug)]
pub struct Outbox<'a, M> {
    from: MachineId,
    sink: &'a mut Vec<Envelope<M>>,
    words: usize,
}

impl<'a, M: Payload> Outbox<'a, M> {
    /// Opens an outbox for `from` appending into `sink`. Only envelopes
    /// appended through this view are attributed to `from`. Public so tests
    /// and harnesses can drive machine programs without a cluster.
    pub fn open(from: MachineId, sink: &'a mut Vec<Envelope<M>>) -> Self {
        Outbox {
            from,
            sink,
            words: 0,
        }
    }

    /// Sends `msg` to machine `to` (delivered at the start of the next
    /// round). Sending to self is allowed and keeps the machine active.
    pub fn send(&mut self, to: MachineId, msg: M) {
        self.words += msg.size_words();
        self.sink.push(Envelope {
            from: self.from,
            to,
            msg,
        });
    }

    /// Sends `msg` to every machine in `0..n` except the sender.
    pub fn broadcast(&mut self, n_machines: usize, msg: M) {
        for to in 0..n_machines as MachineId {
            if to != self.from {
                self.send(to, msg.clone());
            }
        }
    }

    /// Total words queued by this machine so far this round (used for cap
    /// enforcement). Maintained incrementally — O(1) per call.
    pub fn queued_words(&self) -> usize {
        self.words
    }
}

/// A machine program. Machines are event-driven: `on_messages` is invoked
/// exactly in the rounds where the machine has a non-empty inbox, which is
/// also the paper's notion of an *active* machine ("involved in
/// communication"). A machine with pending local work keeps itself active by
/// sending itself a message.
pub trait Machine: Send {
    /// The message type exchanged by this machine program.
    type Msg: Payload;

    /// Handles this round's inbox. Messages are delivered sorted by
    /// `(from, insertion order)`, deterministically.
    ///
    /// The inbox is an executor-owned buffer lent for the duration of the
    /// call; consume it with `inbox.drain(..)` (anything left behind is
    /// discarded when the call returns — messages do not carry over).
    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Current local memory footprint in words; checked against the machine
    /// capacity `S` after every active round. The default (0) opts out of
    /// memory accounting.
    fn memory_words(&self) -> usize {
        0
    }

    /// Called by the executor once on every machine a run stepped, when the
    /// run was cut short: it stopped at the round limit, or a machine was
    /// killed or a message dropped at a dead machine's door inside it, so a
    /// reply the protocol waits for may never arrive. Drop the in-flight
    /// protocol state such a run strands. Never called after a run that
    /// completed. The default keeps everything.
    fn abandon_run(&mut self) {}
}

// Blanket payload impls for simple testing payloads.
impl Payload for u64 {
    fn size_words(&self) -> usize {
        1
    }
}

impl Payload for Vec<u64> {
    fn size_words(&self) -> usize {
        self.len().max(1)
    }
}

impl Payload for () {
    fn size_words(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_counts_words() {
        let mut sink: Vec<Envelope<Vec<u64>>> = Vec::new();
        let mut out = Outbox::open(3, &mut sink);
        out.send(1, vec![1, 2, 3]);
        out.send(2, vec![9]);
        assert_eq!(out.queued_words(), 4);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[0].from, 3);
        assert_eq!(sink[0].to, 1);
    }

    #[test]
    fn outbox_counter_consistent_under_interleaved_send_broadcast() {
        // The running counter must agree with a from-scratch recomputation
        // after every mutation, under interleaved send/broadcast traffic.
        let mut sink: Vec<Envelope<Vec<u64>>> = Vec::new();
        let mut out = Outbox::open(2, &mut sink);
        let mut expect = 0usize;
        for step in 0..20usize {
            if step.is_multiple_of(3) {
                let msg = vec![step as u64; (step % 5) + 1];
                expect += msg.size_words();
                out.send((step % 7) as MachineId, msg);
            } else {
                let msg = vec![7; (step % 2) + 1];
                // Broadcast to 5 machines skips the sender (id 2).
                expect += 4 * msg.size_words();
                out.broadcast(5, msg);
            }
            let recomputed: usize = sink_words(&out);
            assert_eq!(out.queued_words(), expect);
            assert_eq!(out.queued_words(), recomputed);
        }

        fn sink_words(out: &Outbox<Vec<u64>>) -> usize {
            out.sink.iter().map(|e| e.msg.size_words()).sum()
        }
    }

    #[test]
    fn outbox_view_attributes_only_own_sends() {
        // Two successive outboxes over one sink: each counts only its own
        // envelopes, and the sink accumulates both in order.
        let mut sink: Vec<Envelope<u64>> = Vec::new();
        {
            let mut a = Outbox::open(0, &mut sink);
            a.send(1, 10);
            assert_eq!(a.queued_words(), 1);
        }
        {
            let mut b = Outbox::open(1, &mut sink);
            assert_eq!(b.queued_words(), 0);
            b.send(0, 20);
            b.send(0, 30);
            assert_eq!(b.queued_words(), 2);
        }
        let route: Vec<(MachineId, MachineId, u64)> =
            sink.iter().map(|e| (e.from, e.to, e.msg)).collect();
        assert_eq!(route, vec![(0, 1, 10), (1, 0, 20), (1, 0, 30)]);
    }

    #[test]
    fn broadcast_skips_self() {
        let mut sink: Vec<Envelope<u64>> = Vec::new();
        let mut out = Outbox::open(1, &mut sink);
        out.broadcast(4, 7);
        let targets: Vec<_> = sink.iter().map(|e| e.to).collect();
        assert_eq!(targets, vec![0, 2, 3]);
    }
}
