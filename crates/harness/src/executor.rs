//! A worker pool for embarrassingly-parallel sweep points.
//!
//! Every sweep in this workspace — latency-versus-load (Figure 3),
//! fault degradation (§6.2), the analytic design-space sweeps — is a
//! map over *independent* simulation or model points. [`par_map`] runs
//! that map on a `std::thread::scope` pool (no dependencies, no
//! `unsafe`) and returns results **in input order**, so a parallel
//! sweep is bit-identical to a sequential one provided each point's
//! randomness is a function of the point alone (the per-point seed
//! derivation documented in `metro_sim::experiment`).

use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The worker count to use when the caller does not specify one: the
/// host's available parallelism, or 1 if that cannot be determined.
#[must_use]
pub fn default_jobs() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order.
///
/// `f` receives `(index, &item)`. Work is claimed dynamically (an
/// atomic cursor), so uneven point costs — a saturated load point can
/// take 50× an unloaded one — still balance across workers. With
/// `jobs == 1` (or a single item) no threads are spawned and the map
/// runs inline on the caller's stack.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(jobs: NonZeroUsize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled by the pool")
        })
        .collect()
}

/// Renders a `catch_unwind` payload: the `&str` or `String` message
/// when the panic carried one, a placeholder otherwise.
#[must_use]
pub fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many times a barrier waiter spins before yielding the CPU.
///
/// Kept deliberately small: on an oversubscribed host (more shards
/// than cores) long spins starve the worker that would release the
/// barrier, while on a dedicated multicore the barrier is crossed well
/// within this budget anyway.
const BARRIER_SPIN_LIMIT: u32 = 256;

/// A sense-reversing spin barrier for a fixed set of participants.
///
/// Unlike `std::sync::Barrier` there is no mutex or condvar on the
/// crossing path — per-phase synchronisation inside a simulation tick
/// happens tens of thousands of times per second, and parking workers
/// between phases would dominate the tick itself. Waiters spin briefly
/// and then yield, so correctness does not depend on core count.
struct SpinBarrier {
    participants: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(participants: usize) -> Self {
        Self {
            participants,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all participants have called `wait` for the
    /// current generation. The acquire/release pairing on `generation`
    /// (and the AcqRel arrival RMWs feeding it) makes every write
    /// before any participant's `wait` visible to every participant
    /// after it — the happens-before edge `TickPool` relies on.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < BARRIER_SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The leader-published job: a borrowed `Fn(usize)` erased to a thin
/// data pointer plus a monomorphised trampoline, so the pool's worker
/// threads (which are `'static`) can call a closure that borrows the
/// caller's stack. Validity is enforced by the barrier protocol in
/// [`TickPool::run`], not by the type system — hence the `unsafe`
/// island below.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

#[allow(unsafe_code)]
// SAFETY: the trampoline's only obligation is that `data` points at a
// live `F`; `TickPool::run` guarantees that for the whole window in
// which workers can hold a `Job` (between the start and done barriers,
// while the caller's `f` is borrowed on its stack).
unsafe fn call_job<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
    let f = unsafe { &*data.cast::<F>() };
    f(worker);
}

/// The slot the leader publishes the current [`Job`] through.
///
/// Interior mutability without a lock: the slot is written by the
/// leader only while every worker is parked at the start barrier, and
/// read by workers only after they cross it — the barrier's
/// happens-before edges (see [`SpinBarrier::wait`]) make those
/// accesses data-race-free, which is exactly what the `Sync` impl
/// asserts.
struct JobSlot(UnsafeCell<Option<Job>>);

#[allow(unsafe_code)]
// SAFETY: see the struct-level comment — all cross-thread access is
// ordered by the pool's barriers. The raw `Job` pointers inside are
// only ever dereferenced during a round, while the leader guarantees
// the pointee is live, so moving/sharing the slot across threads adds
// no hazard beyond the access protocol already argued above.
unsafe impl Sync for JobSlot {}
#[allow(unsafe_code)]
// SAFETY: as above.
unsafe impl Send for JobSlot {}

struct PoolShared {
    /// Current job, leader-written between rounds (see [`JobSlot`]).
    job: JobSlot,
    /// Crossed once per round to release workers into the job, and
    /// once at shutdown to release them into exit.
    start: SpinBarrier,
    /// Crossed once per round after every participant finished the
    /// job; the leader does not return from `run` before this, so the
    /// borrowed closure outlives every worker's use of it.
    done: SpinBarrier,
    /// Set (with the job slot left empty) before the final start-
    /// barrier crossing to tell workers to exit.
    shutdown: AtomicBool,
    /// Set by any worker whose job invocation panicked; the leader
    /// converts it into a panic after the done barrier.
    poisoned: AtomicBool,
}

/// A persistent worker pool for barrier-synchronised phase fan-out.
///
/// [`par_map`] spawns a fresh `std::thread::scope` per call, which is
/// fine for sweeps whose points run for milliseconds but hopeless for
/// a simulation tick that fans out several *phases* per tick at
/// microsecond granularity. `TickPool::new(n)` spawns `n - 1` worker
/// threads **once**; every subsequent [`run`](Self::run) hands all `n`
/// participants (the calling thread doubles as participant 0) the same
/// borrowed closure and crosses two spin barriers — no allocation, no
/// locks, no thread spawn on the hot path.
///
/// Participants are told their index (`0..n`), and `run` returns only
/// after every participant finished, so a caller may hand each index a
/// disjoint mutable slice of its own state (via `split_at_mut`-style
/// partitioning) and rely on all writes being visible on return.
pub struct TickPool {
    shared: Arc<PoolShared>,
    participants: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TickPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickPool")
            .field("participants", &self.participants)
            .finish_non_exhaustive()
    }
}

impl TickPool {
    /// Creates a pool with `participants` total participants: the
    /// calling thread (participant 0 in every [`run`](Self::run)) plus
    /// `participants - 1` spawned workers.
    #[must_use]
    pub fn new(participants: NonZeroUsize) -> Self {
        let participants = participants.get();
        let shared = Arc::new(PoolShared {
            job: JobSlot(UnsafeCell::new(None)),
            start: SpinBarrier::new(participants),
            done: SpinBarrier::new(participants),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        });
        let workers = (1..participants)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tick-pool-{index}"))
                    .spawn(move || Self::worker_loop(&shared, index))
                    .expect("spawning a tick-pool worker")
            })
            .collect();
        Self {
            shared,
            participants,
            workers,
        }
    }

    /// Total participant count (spawned workers plus the caller).
    #[must_use]
    pub fn participants(&self) -> usize {
        self.participants
    }

    #[allow(unsafe_code)]
    fn worker_loop(shared: &PoolShared, index: usize) {
        loop {
            shared.start.wait();
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // SAFETY: the leader published a `Job` before its own
            // start-barrier arrival, and will not return from `run`
            // (nor touch the slot again) until this worker crosses the
            // done barrier below — so the slot read is ordered after
            // the write, and the pointee `F` is still live for the
            // whole call.
            let job = unsafe { (*shared.job.0.get()).expect("job published before release") };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                (job.call)(job.data, index)
            }));
            if outcome.is_err() {
                shared.poisoned.store(true, Ordering::Release);
            }
            shared.done.wait();
        }
    }

    /// Runs `f(index)` once per participant (`0..participants`), the
    /// caller executing index 0 in place, and returns after all have
    /// finished. Calls are strictly serialised: a second `run` cannot
    /// begin until the previous one fully completed.
    ///
    /// # Panics
    ///
    /// Panics if any participant's `f` panicked (worker panics are
    /// caught, recorded, and re-raised here after the round completes,
    /// leaving the pool usable).
    #[allow(unsafe_code)]
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        // SAFETY: `data` points at `f`, which lives on this stack
        // frame until the end of this function; the done barrier below
        // guarantees no worker touches the pointer after that. Writing
        // the slot is race-free because every worker is parked at the
        // start barrier until the leader's `wait` below.
        unsafe {
            *self.shared.job.0.get() = Some(Job {
                data: std::ptr::from_ref(&f).cast::<()>(),
                call: call_job::<F>,
            });
        }
        self.shared.start.wait();
        let leader_outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        self.shared.done.wait();
        // SAFETY: every worker has crossed the done barrier, so none
        // holds the job; clearing the slot here cannot race.
        unsafe {
            *self.shared.job.0.get() = None;
        }
        let worker_panicked = self.shared.poisoned.swap(false, Ordering::AcqRel);
        if leader_outcome.is_err() || worker_panicked {
            panic!("TickPool: a participant panicked during run()");
        }
    }
}

impl Drop for TickPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Workers are parked at the start barrier; cross it once more
        // to release them into the shutdown check.
        self.shared.start.wait();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for n in [1, 2, 4, 9] {
            let out = par_map(jobs(n), &items, |i, &v| {
                assert_eq!(i, v);
                v * 3 + 1
            });
            assert_eq!(out, items.iter().map(|v| v * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // A deterministic per-point computation must not depend on the
        // worker count.
        let items: Vec<u64> = (0..33).collect();
        let f = |i: usize, &v: &u64| -> u64 {
            let mut x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            for _ in 0..100 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let seq = par_map(jobs(1), &items, f);
        let par = par_map(jobs(8), &items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(jobs(4), &[] as &[u32], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = par_map(jobs(64), &[1, 2, 3], |_, &v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_count_is_capped_at_item_count() {
        // Regression: an uncapped pool would try to honour the
        // requested job count literally — with a pathological request
        // like this one it would attempt a million thread spawns and
        // abort the process long before producing a result.
        let items = [10u64, 20, 30, 40];
        let spawned: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        let out = par_map(jobs(1_000_000), &items, |i, &v| {
            spawned
                .lock()
                .expect("thread-id set")
                .insert(std::thread::current().id());
            v + i as u64
        });
        assert_eq!(out, vec![10, 21, 32, 43]);
        let distinct = spawned.lock().expect("thread-id set").len();
        assert!(
            distinct <= items.len(),
            "ran on {distinct} threads for {} items",
            items.len()
        );
    }

    #[test]
    fn tick_pool_fans_out_to_every_participant() {
        for n in [1usize, 2, 4] {
            let pool = TickPool::new(jobs(n));
            assert_eq!(pool.participants(), n);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "participant {w}");
            }
        }
    }

    #[test]
    fn tick_pool_is_reusable_across_many_rounds() {
        // The whole point of the pool: thousands of cheap rounds on
        // the same threads. Each round increments disjoint per-worker
        // counters; afterwards every counter saw every round.
        let n = 3usize;
        let pool = TickPool::new(jobs(n));
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        const ROUNDS: usize = 500;
        for _ in 0..ROUNDS {
            pool.run(|w| {
                counters[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), ROUNDS);
        }
    }

    #[test]
    fn tick_pool_run_observes_all_worker_writes() {
        // `run` returning must publish every participant's writes to
        // the leader (the done barrier's happens-before edge). Workers
        // write disjoint slice regions through a Mutex-free partition.
        let n = 4usize;
        let pool = TickPool::new(jobs(n));
        let mut data = vec![0u64; 64];
        for round in 1..=10u64 {
            let chunk = data.len() / n;
            let parts: Vec<Mutex<&mut [u64]>> = data.chunks_mut(chunk).map(Mutex::new).collect();
            pool.run(|w| {
                let mut part = parts[w].try_lock().expect("disjoint shard slice");
                for v in part.iter_mut() {
                    *v += round;
                }
            });
            drop(parts);
            let expect: u64 = (1..=round).sum();
            assert!(data.iter().all(|&v| v == expect), "round {round}");
        }
    }

    #[test]
    fn panic_payload_renders_str_and_string_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_payload(p.as_ref()), "plain str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_payload(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_payload(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn tick_pool_worker_panic_poisons_the_round_but_not_the_pool() {
        let pool = TickPool::new(jobs(2));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                assert!(w == 0, "injected worker failure");
            });
        }));
        assert!(caught.is_err(), "worker panic must surface from run()");
        // The pool survives a poisoned round and runs cleanly again.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tick_pool_leader_panic_poisons_the_round_but_not_the_pool() {
        // The leader (participant 0) runs the job inline on the calling
        // thread; its panic must unwind through run() while still
        // releasing the pooled workers for the next round.
        let pool = TickPool::new(jobs(3));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                assert!(w != 0, "injected leader failure");
            });
        }));
        assert!(caught.is_err(), "leader panic must surface from run()");
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn tick_pool_survives_repeated_poisoned_rounds() {
        // Several consecutive poisoned rounds, interleaved with clean
        // ones: the poison flag must reset every round, never latch.
        let pool = TickPool::new(jobs(2));
        let clean_rounds = AtomicUsize::new(0);
        for round in 0..6usize {
            if round % 2 == 0 {
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.run(|w| {
                        assert!(w == 0, "poisoned round {round}");
                    });
                }));
                assert!(caught.is_err(), "round {round} must poison");
            } else {
                pool.run(|_| {
                    clean_rounds.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(clean_rounds.load(Ordering::Relaxed), 3 * 2);
    }
}
