//! A persistent work-stealing worker pool for campaign-cell fan-out.
//!
//! The experiment campaigns (attack, resilience, defense, throughput) all
//! reduce to the same shape: a planned `Vec` of independent cells, each a
//! full simulation run, whose results must come back in plan order. The
//! original runner spawned a fresh set of scoped threads per campaign and
//! handed out cells from a single atomic counter; this module replaces that
//! with one process-wide pool whose workers are spawned once, parked on a
//! condvar between campaigns, and reused — so a session that runs a
//! throughput sweep, a resilience matrix and a defense ladder back-to-back
//! pays thread-spawn cost exactly once.
//!
//! Scheduling is work-stealing over per-participant deques: a job's task
//! indices are split into contiguous blocks (one per participant, for
//! cache-friendly walks over the spec array), each participant pops its own
//! block from the front and steals from the *back* of a victim's block when
//! it runs dry. The submitting thread always participates in its own job,
//! which keeps a single-core box at full utilisation and makes nested
//! submission deadlock-free: an inner job's submitter drives that job to
//! completion itself even if every pool worker is busy with the outer one.
//!
//! This is the workspace's only parallel runner: the campaigns, campaignd's
//! supervisor and the lint crate's per-file analysis all fan out here.
//!
//! Everything here is safe code — the crate forbids `unsafe`. The price is
//! a `'static` bound on jobs: callers hand the pool owned state (e.g. an
//! `Arc<[RunSpec]>`) rather than borrowing from the submitting stack frame.
//!
//! Every lock acquisition recovers from poisoning with
//! [`PoisonError::into_inner`] instead of unwrapping (R12). That is sound
//! here because no guard is ever held across user code that can panic: a
//! task runs inside `catch_unwind` *between* guard scopes, so a poisoned
//! mutex can only mean a sibling died from a secondary effect of a panic
//! that is already latched and re-thrown at the submit site — the counters
//! and deques the guards protect are structurally consistent, and killing
//! every later campaign on a flag would turn one failed cell into a
//! permanently dead pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// One submitted fan-out: `total` index-addressed tasks, type-erased behind
/// a boxed closure that writes each result into a caller-held slot.
struct Job {
    /// One deque per participant slot, seeded with contiguous index blocks.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Next participant slot to claim (wraps modulo `queues.len()`).
    claims: AtomicUsize,
    /// Runs task `i` and stores its result.
    run_one: Box<dyn Fn(usize) + Send + Sync>,
    /// Number of tasks in the job.
    total: usize,
    /// Completed-task count; the submitter waits on [`Job::done_cv`].
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload caught while running a task; re-thrown at the
    /// submit site so a panicking cell fails the campaign, not a worker.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    fn new(participants: usize, total: usize, run_one: Box<dyn Fn(usize) + Send + Sync>) -> Self {
        let mut queues = Vec::with_capacity(participants);
        let mut next = 0usize;
        for p in 0..participants {
            // Contiguous blocks, sized within one of each other.
            let take = (total - next) / (participants - p);
            queues.push(Mutex::new((next..next + take).collect()));
            next += take;
        }
        Self {
            queues,
            claims: AtomicUsize::new(0),
            run_one,
            total,
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Whether every task has been claimed (not necessarily finished).
    /// Used by the pool to stop routing new participants at a spent job.
    fn drained(&self) -> bool {
        self.queues
            .iter()
            .all(|q| q.lock().unwrap_or_else(PoisonError::into_inner).is_empty())
    }

    /// Claims a participant slot and runs tasks — own block first, stolen
    /// tail-ends after — until no task remains anywhere. Panics from a task
    /// are caught and latched; the task still counts as done so the
    /// submitter wakes and can re-throw.
    fn participate(&self) {
        let slot = self.claims.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        loop {
            // The own-queue pop is its own statement so the temporary
            // guard dies at the `;` before `steal` touches the other
            // queues (R12): two participants stealing from each other
            // while each holds its own queue lock would deadlock.
            let own = self.queues[slot]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(i) = own.or_else(|| self.steal(slot)) else { break };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run_one)(i))) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
            let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
            *done += 1;
            if *done == self.total {
                self.done_cv.notify_all();
            }
        }
    }

    /// Steals a task from the back of another participant's deque.
    fn steal(&self, slot: usize) -> Option<usize> {
        let k = self.queues.len();
        (1..k).find_map(|off| {
            self.queues[(slot + off) % k]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
        })
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while *done < self.total {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The process-wide pool: a queue of live jobs and the lazily grown set of
/// persistent workers parked on [`WorkerPool::work`].
struct WorkerPool {
    state: Mutex<PoolState>,
    work: Condvar,
}

struct PoolState {
    jobs: VecDeque<Arc<Job>>,
    spawned: usize,
}

fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool {
        state: Mutex::new(PoolState {
            jobs: VecDeque::new(),
            spawned: 0,
        }),
        work: Condvar::new(),
    })
}

/// A persistent worker: grab the front live job, help until it is drained,
/// park until the next submission. Workers never exit; between campaigns
/// they cost one parked OS thread each.
///
/// # Errors
///
/// Returns the OS error when the thread cannot be spawned; the caller
/// degrades to fewer participants instead of dying (R7: fail closed).
fn spawn_worker(p: &'static WorkerPool) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name("campaign-worker".into())
        .spawn(move || loop {
            let job = {
                let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    st.jobs.retain(|j| !j.drained());
                    if let Some(j) = st.jobs.front() {
                        break Arc::clone(j);
                    }
                    st = p.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.participate();
        })
        .map(|_| ())
}

/// Maps `f` over `0..n` on the persistent pool, preserving index order.
///
/// `workers` is the total participant count *including* the calling thread;
/// the pool is grown (never shrunk) to supply the other `workers - 1`.
/// With `workers <= 1` or `n <= 1` the map degenerates to a plain serial
/// loop on the caller with no pool interaction at all — that is the exact
/// single-worker path the reproducibility tests pin against.
///
/// The `'static` bounds are what keep this crate's `forbid(unsafe_code)`
/// honest: the job may be picked up by a detached worker, so it cannot
/// borrow from the submitting stack frame. Campaign runners satisfy it by
/// moving their planned spec vector into an `Arc<[_]>` (see
/// [`crate::experiment::run_campaign_cells`]).
///
/// # Panics
///
/// Re-raises the first panic any task raised, after all tasks finished.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if n == 0 {
        return Vec::new();
    }
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let participants = workers.min(n);
    let slots: Arc<Vec<Mutex<Option<T>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let sink = Arc::clone(&slots);
    let job = Arc::new(Job::new(
        participants,
        n,
        Box::new(move |i| {
            let value = f(i);
            *sink[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }),
    ));

    let p = pool();
    // Reserve the missing workers under the lock, but spawn them outside
    // it (R12): `thread::spawn` calls into the OS, and a worker that wakes
    // instantly would block on the very pool lock the submitter still
    // holds.
    let reserved = {
        let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
        let missing = (participants - 1).saturating_sub(st.spawned);
        st.spawned += missing;
        missing
    };
    let mut started = 0;
    for _ in 0..reserved {
        if spawn_worker(p).is_err() {
            break;
        }
        started += 1;
    }
    if started < reserved {
        // Fail closed: return the reservations the OS refused. The job
        // still completes — the submitting thread always participates.
        let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.spawned -= reserved - started;
    }
    {
        let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.jobs.push_back(Arc::clone(&job));
    }
    p.work.notify_all();

    job.participate();
    job.wait();
    {
        let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.jobs.retain(|j| !Arc::ptr_eq(j, &job));
    }
    if let Some(payload) = job
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    slots
        .iter()
        .map(|slot| {
            slot.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                // adas-lint: allow(R7, reason = "collection runs after the pool latch re-raised any worker panic; every index in 0..n was dispatched exactly once, so each slot holds a value")
                .expect("every task ran exactly once")
        })
        .collect()
}

/// A panic caught by [`catch_cell`], reduced to its message so the value is `Send + Sync` and can be stored,
/// logged, and retried without carrying the raw `Box<dyn Any>` payload
/// around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// The panic message (`&str` / `String` payloads), or a placeholder for
    /// non-string payloads.
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

/// Runs `f`, converting a panic into `Err(CellPanic)` instead of unwinding.
///
/// [`run_indexed`] deliberately fails the whole submission on the *first*
/// latched panic — right for benches, where a panicking cell invalidates
/// the campaign — but a supervising service (campaignd) needs the
/// opposite: wrapping each task in `catch_cell` lets the other `n - 1`
/// results survive so only the failed cell is retried.
pub fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, CellPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        CellPanic { message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let out = run_indexed(4, 64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_jobs() {
        assert!(run_indexed::<usize, _>(8, 0, |i| i).is_empty());
        assert_eq!(run_indexed(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn single_worker_is_serial_on_the_caller() {
        let caller = std::thread::current().id();
        let out = run_indexed(1, 5, move |i| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stealing_rebalances_a_skewed_block() {
        // Task 0 is pathologically slow; with contiguous block seeding the
        // rest of its block must be stolen for the job to finish promptly.
        let out = run_indexed(4, 32, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            i as u64
        });
        assert_eq!(out, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_persists_across_jobs() {
        // Back-to-back jobs reuse the grown pool; totals must be exact for
        // both, proving no task is lost or duplicated across submissions.
        for round in 0..5u64 {
            let sum = AtomicU64::new(0);
            let sum = Arc::new(sum);
            let s = Arc::clone(&sum);
            run_indexed(4, 100, move |i| {
                s.fetch_add(i as u64 + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950 + 100 * round);
        }
    }

    #[test]
    fn nested_submission_completes() {
        // An outer job whose tasks each submit an inner job: the inner
        // submitter participates in its own job, so this cannot deadlock
        // even if every pool worker is parked inside the outer job.
        let out = run_indexed(3, 6, |i| {
            let inner = run_indexed(2, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn task_panic_propagates_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(4, 16, |i| {
                if i == 9 {
                    panic!("cell 9 exploded");
                }
                i
            })
        });
        let payload = result.expect_err("panic must reach the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "cell 9 exploded");

        // The pool survives the panic and keeps serving jobs.
        assert_eq!(run_indexed(4, 8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn caught_tasks_keep_every_other_result() {
        // Regression: run_indexed re-raises only the *first* latched panic
        // and abandons the whole submission's results. With each task
        // wrapped in catch_cell, two panicking cells come back as two
        // individual failures and every other result survives — what lets
        // a supervisor retry exactly the failed cells. `&str` and
        // formatted `String` payloads both keep their message, and the
        // single-worker serial path behaves the same.
        for workers in [4, 1] {
            let out = run_indexed(workers, 16, |i| {
                catch_cell(|| {
                    if i == 3 {
                        panic!("cell 3 exploded");
                    }
                    if i == 11 {
                        panic!("cell {} exploded", 11);
                    }
                    i * 2
                })
            });
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                match (i, r) {
                    (3, Err(p)) => assert_eq!(p.message, "cell 3 exploded"),
                    (11, Err(p)) => assert_eq!(p.message, "cell 11 exploded"),
                    (_, Ok(v)) => assert_eq!(*v, i * 2),
                    (_, r) => panic!("{workers} workers, cell {i}: unexpected {r:?}"),
                }
            }
        }
        // The pool itself never saw a panic: subsequent plain submissions
        // are unaffected.
        assert_eq!(run_indexed(4, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn catch_cell_passes_values_through() {
        assert_eq!(catch_cell(|| 7u32), Ok(7));
        let err = catch_cell(|| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!(err.message, "boom");
        assert_eq!(err.to_string(), "task panicked: boom");
    }
}
