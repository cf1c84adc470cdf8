//! Steady-state rounds allocate nothing: after a warm-up phase has sized
//! the cluster's scratch buffers, driving further updates and batches
//! through the executor performs zero heap allocation end-to-end.
//!
//! This is the tentpole property of the PR-3 executor overhaul — routing,
//! inbox delivery, outbox collection and metrics aggregation all run on
//! cluster-owned buffers reused across rounds. The test installs a counting
//! global allocator, so it lives alone in this integration-test binary.
//! The counter and its switch are per thread: the serial executor runs on
//! the test's own thread, while the harness's other threads (the second
//! test, result reporting) allocate whenever they like.

use dmpc_mpc::{
    Cluster, ClusterConfig, Envelope, ExecOptions, Machine, MachineId, Outbox, RoundCtx, Violation,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while it is measuring, else `None`.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Counts one allocation if this thread is measuring. A const-initialised
/// `Cell` has no lazy init and no destructor, so touching it from the
/// allocator never allocates; `try_with` covers thread teardown.
fn count_alloc() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

/// Starts a measured phase on this thread, from zero.
fn start_counting() {
    COUNT.with(|c| c.set(Some(0)));
}

/// Ends the measured phase; returns the allocations this thread made in it.
fn stop_counting() -> usize {
    COUNT
        .with(Cell::take)
        .expect("stop_counting without start_counting")
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Fans a token out around the ring without allocating machine-side.
struct Relay {
    id: MachineId,
    seen: u64,
}

impl Machine for Relay {
    type Msg = u64;

    fn on_messages(
        &mut self,
        ctx: &RoundCtx,
        inbox: &mut Vec<Envelope<u64>>,
        out: &mut Outbox<u64>,
    ) {
        for env in inbox.drain(..) {
            self.seen += 1;
            if env.msg > 0 {
                let next = (self.id + 1) % ctx.n_machines as MachineId;
                out.send(next, env.msg - 1);
                if env.msg.is_multiple_of(3) {
                    // A second same-round send exercises outbox growth paths.
                    out.send((self.id + 2) % ctx.n_machines as MachineId, env.msg / 2);
                }
            }
        }
    }

    fn memory_words(&self) -> usize {
        2
    }
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let cfg = ClusterConfig::default().with_exec(ExecOptions::lean());
    let machines = (0..16 as MachineId)
        .map(|id| Relay { id, seen: 0 })
        .collect();
    let mut cluster = Cluster::new(machines, cfg);

    // Warm-up: size every scratch buffer (pending/delivered/sort_aux,
    // counting-sort histogram, group index, worker inbox/outbox) at the
    // largest load the measured phase will see.
    for i in 0..50u64 {
        cluster.inject((i % 16) as MachineId, 24);
        cluster.run_update();
    }
    let _ = cluster.run_batch((0..8u64).map(|i| ((i % 16) as MachineId, 24u64)), 8);
    // Both router paths: the single-token rounds above are sparse (one or
    // two messages, sorted in place); 64 two-hop tokens make three rounds
    // of 64 messages, dense for any small sparse-round bound (counting
    // sort on cluster scratch).
    let wide = || (0..64u64).map(|i| ((i % 16) as MachineId, 2u64));
    let _ = cluster.run_batch(wide(), 64);

    // Measured phase: identical load, zero allocations allowed.
    start_counting();
    for i in 0..100u64 {
        cluster.inject((i % 16) as MachineId, 24);
        let m = cluster.run_update();
        assert!(m.clean());
    }
    let b = cluster.run_batch((0..8u64).map(|i| ((i % 16) as MachineId, 24u64)), 8);
    let w = cluster.run_batch(wide(), 64);
    let allocs = stop_counting();

    assert!(b.clean() && w.clean());
    assert_eq!(allocs, 0, "steady-state executor rounds must not allocate");
    // The wide batch's rounds were wide, and every machine was stepped and
    // recorded in the reused touched-set buffer.
    assert_eq!(w.max_words_per_round, 64);
    assert_eq!(w.machines_touched, 16);
    assert_eq!(cluster.touched().len(), 16);
    // Sanity: the measured phase actually did work.
    let seen: u64 = cluster.machines().map(|m| m.seen).sum();
    assert!(seen > 1000);
}

/// The PR-6 chaos plane rides along without a steady-state tax: while it
/// is idle (no machine dead, no event armed), rounds still allocate
/// nothing. During a recovery epoch — a machine dead, traffic addressed to
/// it dropped with [`Violation::DeadMachine`] records — allocation is
/// bounded (violation bookkeeping only), and after the revive the
/// zero-alloc steady state returns: the recovery scratch is released back
/// to the reused buffers.
#[test]
fn chaos_plane_idle_is_zero_alloc_and_recovery_is_bounded() {
    let cfg = ClusterConfig::default().with_exec(ExecOptions::lean());
    let machines = (0..16 as MachineId)
        .map(|id| Relay { id, seen: 0 })
        .collect();
    let mut cluster = Cluster::new(machines, cfg);

    // Warm-up, as in the steady-state test.
    for i in 0..50u64 {
        cluster.inject((i % 16) as MachineId, 24);
        cluster.run_update();
    }

    // Phase 1: chaos plane present but idle — still zero allocations.
    start_counting();
    for i in 0..100u64 {
        cluster.inject((i % 16) as MachineId, 24);
        let m = cluster.run_update();
        assert!(m.clean());
    }
    assert_eq!(
        stop_counting(),
        0,
        "an idle chaos plane must not tax steady-state rounds"
    );

    // Phase 2: recovery epoch. A dead machine turns every message addressed
    // to it into a DeadMachine violation record; that bookkeeping may
    // allocate, but boundedly — no per-round runaway.
    cluster.kill(3);
    start_counting();
    let mut dead_drops = 0usize;
    for i in 0..50u64 {
        cluster.inject((i % 16) as MachineId, 24);
        let m = cluster.run_update();
        dead_drops += m
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::DeadMachine { machine: 3, .. }))
            .count();
    }
    let recovery_allocs = stop_counting();
    assert!(dead_drops > 0, "the outage must actually drop traffic");
    assert!(
        recovery_allocs <= 2048,
        "recovery-epoch allocation must stay bounded, got {recovery_allocs}"
    );

    // Phase 3: revive and re-warm once — the steady state is zero-alloc
    // again (recovery scratch released, buffers back to reuse).
    cluster.revive(3);
    for i in 0..50u64 {
        cluster.inject((i % 16) as MachineId, 24);
        cluster.run_update();
    }
    start_counting();
    for i in 0..100u64 {
        cluster.inject((i % 16) as MachineId, 24);
        let m = cluster.run_update();
        assert!(m.clean());
    }
    assert_eq!(
        stop_counting(),
        0,
        "post-recovery rounds must return to zero allocation"
    );
}
