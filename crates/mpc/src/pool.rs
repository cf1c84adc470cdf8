//! A persistent worker pool for round execution.
//!
//! Spawning threads per round costs a full spawn/join cycle — tens of
//! microseconds per thread — *every round*, which dwarfs the round itself
//! on small simulations. The pool spawns its threads once (per
//! [`crate::Cluster`]) and reuses them for every round of every update and
//! batch; dispatching a round is one mutex/condvar handshake.
//!
//! # Protocol
//!
//! [`WorkerPool::execute`] publishes a type-erased job (a raw pointer to a
//! caller-stack closure plus a monomorphized trampoline) under the pool
//! mutex, bumps the epoch counter, and wakes all workers. Each worker runs
//! the closure with its worker index, then decrements the in-flight count;
//! the last one signals the driver, which blocks until the count reaches
//! zero **before returning** — that blocking is what makes lending
//! non-`'static` stack data to the workers sound. Worker panics are caught,
//! recorded, and re-raised on the driver thread, so a poisoned round can
//! never leave the driver waiting forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased job: the closure the driver lends for one round.
#[derive(Clone, Copy)]
struct Job {
    /// `&F` as a raw pointer; valid until the epoch's in-flight count hits
    /// zero, which `execute` awaits before returning.
    data: *const (),
    /// Monomorphized trampoline reconstructing `&F` and calling it.
    call: unsafe fn(*const (), usize),
    /// Number of workers participating in this epoch (workers with index
    /// `>= participants` skip the job).
    participants: usize,
}

// SAFETY: the raw pointer is only dereferenced through `call` while the
// publishing `execute` call is blocked waiting for the epoch to drain, and
// the pointee is `Sync` (enforced by `execute`'s bound).
unsafe impl Send for Job {}

struct PoolState {
    epoch: u64,
    job: Option<Job>,
    in_flight: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work: Condvar,
    /// The driver waits here for the epoch to drain.
    done: Condvar,
}

/// Long-lived round-execution threads with a barrier-style dispatch
/// protocol. See the module docs for the protocol and safety argument.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                in_flight: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dmpc-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(w)` on workers `w in 0..participants` concurrently and
    /// blocks until every participant has finished. Panics (on the caller)
    /// if any worker panicked inside `f`.
    ///
    /// Takes `&mut self`: one epoch is in flight at a time.
    pub fn execute<F: Fn(usize) + Sync>(&mut self, participants: usize, f: &F) {
        // A caller asking for more workers than exist has broken its
        // partitioning invariant; clamping silently would skip work chunks,
        // so fail loudly instead.
        assert!(
            participants <= self.threads(),
            "{participants} participants exceed the pool's {} threads",
            self.threads()
        );
        if participants == 0 {
            return;
        }
        /// Rebuilds `&F` from the erased pointer. SAFETY: called only while
        /// `execute` keeps `f` alive and blocked on the epoch drain.
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), idx: usize) {
            (*(data as *const F))(idx);
        }
        let mut st = self.shared.state.lock().expect("pool mutex");
        debug_assert!(st.in_flight == 0 && st.job.is_none(), "epoch overlap");
        st.job = Some(Job {
            data: f as *const F as *const (),
            call: trampoline::<F>,
            participants,
        });
        st.epoch += 1;
        st.in_flight = participants;
        self.shared.work.notify_all();
        while st.in_flight > 0 {
            st = self.shared.done.wait(st).expect("pool mutex");
        }
        st.job = None;
        let panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        if panicked {
            panic!("worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked outside a job is already recorded; a
            // second panic during unwinding would abort, so swallow here.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    match st.job {
                        // Participate in this epoch.
                        Some(job) if idx < job.participants => break job,
                        // Not a participant: keep waiting for the next one.
                        _ => continue,
                    }
                }
                st = shared.work.wait(st).expect("pool mutex");
            }
        };
        // Run outside the lock so participants overlap.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, idx) }));
        let mut st = shared.state.lock().expect("pool mutex");
        if result.is_err() {
            st.panicked = true;
        }
        st.in_flight -= 1;
        if st.in_flight == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_every_participant_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.execute(4, &|w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn reusable_across_many_epochs() {
        let mut pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.execute(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1500);
    }

    #[test]
    fn partial_participation_skips_high_indices() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.execute(2, &|w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
        }
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![10, 10, 0, 0]);
    }

    #[test]
    fn lends_stack_data_mutably_via_disjoint_indices() {
        let mut pool = WorkerPool::new(4);
        let mut slots = [0usize; 4];
        let base = SendPtr(slots.as_mut_ptr());
        pool.execute(4, &|w| unsafe {
            *base.slot(w) = w + 1;
        });
        assert_eq!(slots, [1, 2, 3, 4]);

        struct SendPtr(*mut usize);
        unsafe impl Sync for SendPtr {}
        impl SendPtr {
            fn slot(&self, i: usize) -> *mut usize {
                unsafe { self.0.add(i) }
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(2, &|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool is still usable after a poisoned epoch.
        let total = AtomicUsize::new(0);
        pool.execute(2, &|_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn zero_participants_is_a_noop() {
        let mut pool = WorkerPool::new(2);
        pool.execute(0, &|_| panic!("must not run"));
    }
}
