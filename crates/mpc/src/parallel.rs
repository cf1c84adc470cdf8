//! Machine stepping shared by every backend.
//!
//! One simulator round steps many independent machines. The round executor
//! ([`crate::Cluster`]) sorts the round's envelopes by `(to, from)` so each
//! active machine's inbox is one contiguous slice of the delivered buffer;
//! this module turns those slices into `on_messages` calls.
//!
//! Both backends — serial and the persistent worker pool — run the *same*
//! `worker_task` over contiguous chunks of the group list, writing into
//! per-worker scratch (`WorkerScratch`) whose buffers the cluster owns and
//! reuses across rounds. Because chunks cover disjoint machine-index ranges
//! and disjoint delivered ranges, and outputs are merged in worker order,
//! both backends produce bit-identical metrics and machine states — a
//! property the test suite checks directly.

use crate::machine::{Envelope, Machine, Outbox, RoundCtx};
use crate::MachineId;

/// One active machine's inbox this round: a contiguous range of the sorted
/// delivered buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Group {
    /// The receiving machine.
    pub machine: MachineId,
    /// Start of its envelope run in the delivered buffer.
    pub start: usize,
    /// Length of the run.
    pub len: usize,
}

/// Per-worker reusable buffers. Owned by the cluster so steady-state rounds
/// allocate nothing: `inbox` is lent to machines and drained, `out` is the
/// outbox sink, `sent` records per-machine send volumes for cap metering.
#[derive(Debug)]
pub(crate) struct WorkerScratch<Msg> {
    pub inbox: Vec<Envelope<Msg>>,
    pub out: Vec<Envelope<Msg>>,
    pub sent: Vec<(MachineId, usize)>,
}

impl<Msg> Default for WorkerScratch<Msg> {
    fn default() -> Self {
        WorkerScratch {
            inbox: Vec::new(),
            out: Vec::new(),
            sent: Vec::new(),
        }
    }
}

/// Everything one round's stepping needs, shared across workers by
/// reference. Machines, worker scratch and the delivered buffer are raw
/// pointers because workers index disjoint ranges of them concurrently;
/// the access discipline is documented on [`worker_task`].
pub(crate) struct StepEnv<'a, M: Machine> {
    pub machines: *mut M,
    pub n_machines: usize,
    pub workers: *mut WorkerScratch<M::Msg>,
    /// The sorted delivered buffer. Ownership of every envelope in group
    /// ranges has been released by the cluster (`set_len(0)`); exactly one
    /// worker reads each slot, exactly once.
    pub delivered: *const Envelope<M::Msg>,
    pub groups: &'a [Group],
    /// Groups per worker chunk (the last chunk may be short).
    pub chunk: usize,
    pub round: u32,
}

// SAFETY: shared across worker threads by reference. The raw pointers are
// dereferenced only inside `worker_task`, which partitions all access by
// worker index (see its safety contract); `M: Send` and `M::Msg: Send`
// make moving that access across threads sound.
unsafe impl<M: Machine> Sync for StepEnv<'_, M> {}

impl<M: Machine> StepEnv<'_, M> {
    /// The group range worker `t` owns.
    fn group_range(&self, t: usize) -> (usize, usize) {
        let lo = (t * self.chunk).min(self.groups.len());
        let hi = ((t + 1) * self.chunk).min(self.groups.len());
        (lo, hi)
    }
}

/// Steps every group assigned to worker `t`: moves each group's envelopes
/// out of the delivered buffer into the worker's inbox scratch, runs the
/// machine with an outbox over the worker's output buffer, and records the
/// per-machine send volume.
///
/// # Safety
///
/// Caller must guarantee, for the duration of the call:
/// - `env.machines` / `env.workers` point to live arrays covering every
///   machine index in `env.groups` and worker index `t`;
/// - no two concurrent calls share a worker index or a machine index
///   (group chunks are disjoint and machine-sorted, one call per `t`);
/// - each envelope slot in a group range is read by exactly one call
///   (the cluster has released ownership of all of them via `set_len(0)`),
///   so the `ptr::read` here is the unique owner of each message.
pub(crate) unsafe fn worker_task<M: Machine>(env: &StepEnv<'_, M>, t: usize) {
    let (glo, ghi) = env.group_range(t);
    let w = &mut *env.workers.add(t);
    w.out.clear();
    w.sent.clear();
    for g in &env.groups[glo..ghi] {
        w.inbox.clear();
        for i in g.start..g.start + g.len {
            w.inbox.push(std::ptr::read(env.delivered.add(i)));
        }
        let ctx = RoundCtx {
            self_id: g.machine,
            n_machines: env.n_machines,
            round: env.round,
        };
        let machine = &mut *env.machines.add(g.machine as usize);
        let mut out = Outbox::open(g.machine, &mut w.out);
        machine.on_messages(&ctx, &mut w.inbox, &mut out);
        w.sent.push((g.machine, out.queued_words()));
        // Anything the machine left behind is discarded (documented on
        // `Machine::on_messages`); clearing also keeps capacity for reuse.
        w.inbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Payload;
    use crate::pool::WorkerPool;

    #[derive(Clone, Debug)]
    struct Echo(u64);
    impl Payload for Echo {
        fn size_words(&self) -> usize {
            1
        }
    }

    struct Doubler {
        total: u64,
    }
    impl Machine for Doubler {
        type Msg = Echo;
        fn on_messages(
            &mut self,
            ctx: &RoundCtx,
            inbox: &mut Vec<Envelope<Echo>>,
            out: &mut Outbox<Echo>,
        ) {
            for e in inbox.drain(..) {
                self.total += e.msg.0;
                out.send(
                    (ctx.self_id + 1) % ctx.n_machines as MachineId,
                    Echo(e.msg.0 * 2),
                );
            }
        }
    }

    /// Runs one hand-built round through `worker_task` with the given
    /// worker count, returning machine states and per-worker outputs
    /// flattened in worker order.
    fn run(threads: usize) -> (Vec<u64>, Vec<(MachineId, u64)>) {
        let mut machines: Vec<Doubler> = (0..64).map(|_| Doubler { total: 0 }).collect();
        let mut delivered: Vec<Envelope<Echo>> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        for i in (0..64usize).step_by(2) {
            groups.push(Group {
                machine: i as MachineId,
                start: delivered.len(),
                len: 1,
            });
            delivered.push(Envelope {
                from: Envelope::<Echo>::EXTERNAL,
                to: i as MachineId,
                msg: Echo(i as u64 + 1),
            });
        }
        let used = threads.min(groups.len()).max(1);
        let chunk = groups.len().div_ceil(used);
        let mut workers: Vec<WorkerScratch<Echo>> = Vec::new();
        workers.resize_with(used, WorkerScratch::default);
        let env = StepEnv {
            machines: machines.as_mut_ptr(),
            n_machines: 64,
            workers: workers.as_mut_ptr(),
            delivered: delivered.as_ptr(),
            groups: &groups,
            chunk,
            round: 1,
        };
        // Release ownership of the delivered envelopes to the workers.
        unsafe { delivered.set_len(0) };
        if used == 1 {
            unsafe { worker_task(&env, 0) };
        } else {
            WorkerPool::new(used).execute(used, &|t| unsafe { worker_task(&env, t) });
        }
        let outs: Vec<(MachineId, u64)> = workers
            .iter()
            .flat_map(|w| w.out.iter().map(|e| (e.to, e.msg.0)))
            .collect();
        (machines.iter().map(|m| m.total).collect(), outs)
    }

    /// The same round chunked over 2/3/8/64 pool workers leaves the machine
    /// states and the worker-ordered outputs of a single worker.
    #[test]
    fn scope_matches_serial() {
        let serial = run(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }
}
