//! Kept request threads: a process-wide crew of OS threads, started once
//! and parked between jobs, that every request path borrows instead of
//! spawning.
//!
//! A caller hands the crew `n` calls of one borrowed job, `job(0..n)`,
//! and runs its own share on the calling thread. Each call is a ticket
//! in the crew's queue; a parked thread claims it, runs it and counts it
//! down on the caller's latch. When its own share is done the caller
//! withdraws every ticket no thread has claimed yet and parks on the
//! latch until the claimed ones have counted down. Two kinds of work
//! share that one settle:
//!
//! * `Crew::offer` — optional help, such as the fold helpers and the
//!   plan drain of [`ParallelExecutor`](crate::ParallelExecutor): a
//!   withdrawn ticket is dropped, because the caller's own share has
//!   already done its work.
//! * [`Crew::require`] — required work, such as a router's shard legs:
//!   the caller runs each withdrawn ticket itself. A busy crew costs
//!   latency, never liveness.
//!
//! A panic in a job is caught on the crew thread, which stays in the
//! crew, and is resumed on the caller once the settle completes, so it
//! reaches the request that caused it. The crew grows to the widest
//! `n` any caller has asked for and never shrinks; index builds, servers'
//! accept and worker loops and other set-up threads do not use it.
//!
//! This module holds the crate's only `unsafe` code: a ticket carries
//! the caller's borrowed job with its lifetime erased. The latch is what
//! keeps it sound — see [`Settle`].

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A panic payload carried from a crew thread to its caller.
type Payload = Box<dyn Any + Send>;

/// The process-wide crew behind [`Crew::global`].
static CREW: Crew = Crew {
    queue: Mutex::new(VecDeque::new()),
    posted: Condvar::new(),
    threads: AtomicUsize::new(0),
};

/// Kept threads parked on one queue of tickets.
pub struct Crew {
    /// Tickets posted and not yet claimed or withdrawn.
    queue: Mutex<VecDeque<Ticket>>,
    /// Wakes parked threads when tickets are posted.
    posted: Condvar,
    /// Threads started so far (they never exit).
    threads: AtomicUsize,
}

/// One call of a caller's job, as a crew thread sees it.
struct Ticket {
    /// The caller's job, its lifetime erased: valid until this ticket is
    /// counted down on `latch` or withdrawn (see [`Settle`]).
    job: *const (dyn Fn(usize) + Sync),
    /// Which call this is.
    index: usize,
    /// Counted down once the call has returned or panicked.
    latch: Arc<Latch>,
}

// SAFETY: `job` points at a `Sync` closure, so calling it from another
// thread is sound while it lives, and `Settle` keeps it alive for every
// ticket until the ticket is counted down or withdrawn. `index` is a
// plain integer and `latch` an `Arc` of `Send + Sync` state.
unsafe impl Send for Ticket {}

/// Calls counted down by crew threads, plus the first panic among them.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

/// Locks `mutex`, taking over a guard a panicking thread poisoned: no
/// crew lock is ever held while a job runs, and every update leaves the
/// data valid, so a poisoned guard is still consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Crew {
    /// The process-wide crew.
    pub fn global() -> &'static Crew {
        &CREW
    }

    /// Threads this crew has started. It grows to the widest call any
    /// caller has made and never shrinks, so after warm-up this stays
    /// put.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Offers `job(0..n)` to parked threads as optional help and runs
    /// `own` on the calling thread. When `own` returns, every call no
    /// thread has claimed is withdrawn and never runs; the claimed ones
    /// are waited for. Returns `own`'s result and how many calls crew
    /// threads claimed. A panic in a claimed call is resumed here.
    pub(crate) fn offer<R>(
        &'static self,
        n: usize,
        job: &(dyn Fn(usize) + Sync),
        own: impl FnOnce() -> R,
    ) -> (R, usize) {
        self.settle(n, job, own, false)
    }

    /// Hands `job(0..n)` to parked threads as required work and runs
    /// `own` on the calling thread. Every call runs: those no thread has
    /// claimed by the time `own` returns run on the calling thread, in
    /// order, before the claimed ones are waited for. A panic in a
    /// claimed call is resumed here.
    pub fn require<R>(
        &'static self,
        n: usize,
        job: &(dyn Fn(usize) + Sync),
        own: impl FnOnce() -> R,
    ) -> R {
        self.settle(n, job, own, true).0
    }

    fn settle<R>(
        &'static self,
        n: usize,
        job: &(dyn Fn(usize) + Sync),
        own: impl FnOnce() -> R,
        required: bool,
    ) -> (R, usize) {
        if n == 0 {
            return (own(), 0);
        }
        self.grow(n);
        let mut settle = Settle {
            crew: self,
            latch: Arc::default(),
            posted: n,
            claimed: None,
            settled: false,
        };
        // SAFETY: only the lifetime changes, not the layout. The erased
        // pointer lives in this call's tickets, and `settle` — dropped
        // before this function returns or unwinds — withdraws every
        // ticket no thread claimed and waits until each claimed one has
        // been counted down, which its thread does after its last use of
        // the job. So no ticket dereferences `job` after it is gone.
        let erased = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                job,
            )
        };
        lock(&self.queue).extend((0..n).map(|index| Ticket {
            job: erased,
            index,
            latch: Arc::clone(&settle.latch),
        }));
        if n == 1 {
            self.posted.notify_one();
        } else {
            self.posted.notify_all();
        }
        let result = own();
        let withdrawn = settle.withdraw();
        if required {
            for &index in &withdrawn {
                job(index);
            }
        }
        let claimed = n - withdrawn.len();
        if let Some(payload) = settle.wait() {
            panic::resume_unwind(payload);
        }
        (result, claimed)
    }

    /// Starts threads until there are at least `n`.
    fn grow(&'static self, n: usize) {
        let mut have = self.threads.load(Ordering::Relaxed);
        while have < n {
            match self.threads.compare_exchange(
                have,
                have + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    std::thread::Builder::new()
                        .name(format!("bix-crew-{have}"))
                        .spawn(move || self.serve())
                        .expect("start a crew thread");
                    have += 1;
                }
                Err(now) => have = now,
            }
        }
    }

    /// A crew thread's life: claim a ticket, run it, count it down, park
    /// when the queue is empty.
    fn serve(&self) {
        loop {
            let ticket = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(ticket) = queue.pop_front() {
                        break ticket;
                    }
                    queue = self
                        .posted
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Ticket { job, index, latch } = ticket;
            // SAFETY: this ticket was claimed (popped under the queue
            // lock) before its caller withdrew, so the caller's `Settle`
            // is waiting for it to be counted down below and the job it
            // points at is still alive.
            let call = || unsafe { (*job)(index) };
            let outcome = panic::catch_unwind(AssertUnwindSafe(call));
            let mut state = lock(&latch.state);
            state.0 += 1;
            if let Err(payload) = outcome {
                state.1.get_or_insert(payload);
            }
            // Only the caller parks on its latch.
            latch.done.notify_one();
        }
    }
}

/// A caller's side of one call to the crew, living on its stack.
///
/// The latch invariant: a borrowed job outlives every use a crew thread
/// makes of it, because the caller cannot leave [`Crew::settle`] —
/// normally or by unwinding — before this guard has (1) removed every
/// ticket of its call still in the queue, so no thread can claim one
/// later, and (2) waited until every ticket claimed before that has been
/// counted down, which its thread does only after the job returned or
/// panicked. A ticket leaves the queue only under the queue lock, so it
/// is either withdrawn or claimed, never both and never neither.
struct Settle {
    crew: &'static Crew,
    latch: Arc<Latch>,
    /// Tickets this call posted.
    posted: usize,
    /// Tickets crew threads claimed; `None` until the rest are withdrawn.
    claimed: Option<usize>,
    /// Every claimed ticket has been counted down.
    settled: bool,
}

impl Settle {
    /// Takes this call's unclaimed tickets out of the queue (the first
    /// time only) and returns their indexes in posting order.
    fn withdraw(&mut self) -> Vec<usize> {
        if self.claimed.is_some() {
            return Vec::new();
        }
        let mut withdrawn = Vec::new();
        lock(&self.crew.queue).retain(|t| {
            let mine = Arc::ptr_eq(&t.latch, &self.latch);
            if mine {
                withdrawn.push(t.index);
            }
            !mine
        });
        self.claimed = Some(self.posted - withdrawn.len());
        withdrawn
    }

    /// Withdraws what is left, then parks until every claimed ticket has
    /// been counted down; returns the first panic among them.
    fn wait(&mut self) -> Option<Payload> {
        self.withdraw();
        if self.settled {
            return None;
        }
        let claimed = self.claimed.expect("withdrawn above");
        let mut state = lock(&self.latch.state);
        while state.0 < claimed {
            state = self
                .latch
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.settled = true;
        state.1.take()
    }
}

impl Drop for Settle {
    /// Settles a call left by a panic in the caller's own share or in a
    /// required call it ran: the withdraw and wait that keep the job
    /// alive still happen. A crew thread's panic is dropped here, since
    /// one is already unwinding.
    fn drop(&mut self) {
        drop(self.wait());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Offers one call and holds the caller's own share until it has
    /// started (or a generous timeout passes, if every crew thread is
    /// busy with other tests' work); returns the name of the crew thread
    /// it ran on, if it ran on one.
    fn offer_and_await(job: impl Fn() + Sync) -> Option<String> {
        let (started, seen) = mpsc::channel();
        let started = Mutex::new(started);
        let ran_on = Mutex::new(None);
        let ((), claimed) = Crew::global().offer(
            1,
            &|_| {
                let name = std::thread::current().name().map(str::to_owned);
                *ran_on.lock().expect("thread name") = name;
                let _ = started.lock().expect("sender").send(());
                job();
            },
            || {
                let _ = seen.recv_timeout(Duration::from_secs(10));
            },
        );
        let ran_on = ran_on.into_inner().expect("thread name");
        assert_eq!(claimed, usize::from(ran_on.is_some()));
        ran_on.filter(|name| name.starts_with("bix-crew-"))
    }

    #[test]
    fn offered_help_runs_on_a_crew_thread_or_not_at_all() {
        assert!(
            offer_and_await(|| ()).is_some(),
            "an idle crew thread claims the offer"
        );
        assert!(Crew::global().threads() >= 1);

        // The caller finishing first withdraws what nobody claimed.
        let runs = AtomicUsize::new(0);
        let ((), claimed) = Crew::global().offer(
            64,
            &|_| {
                runs.fetch_add(1, Ordering::Relaxed);
            },
            || (),
        );
        assert_eq!(runs.load(Ordering::Relaxed), claimed);
    }

    #[test]
    fn required_work_runs_every_call_exactly_once() {
        for n in [1usize, 3, 17] {
            let counts: Vec<AtomicUsize> = (0..=n).map(|_| AtomicUsize::new(0)).collect();
            let job = |i: usize| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            };
            let answer = Crew::global().require(n, &job, || {
                job(n);
                42
            });
            assert_eq!(answer, 42);
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "n={n} call {i}");
            }
        }
    }

    #[test]
    fn a_panic_on_a_crew_thread_reaches_the_caller_and_the_crew_keeps_it() {
        let tripped = Mutex::new(None);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            offer_and_await(|| {
                *tripped.lock().expect("name") = std::thread::current().name().map(str::to_owned);
                panic!("crew job failed")
            })
        }));
        let payload = caught.expect_err("the crew job's panic is resumed on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"crew job failed"));
        // The thread that panicked is still in the crew: it claims a
        // later job (other tests share the crew, so allow it a few).
        let tripped = tripped
            .into_inner()
            .expect("name")
            .expect("ran on a crew thread");
        assert!(
            (0..1000).any(|_| offer_and_await(|| ()).as_ref() == Some(&tripped)),
            "{tripped} never claimed a job again"
        );
    }

    #[test]
    fn a_panic_in_the_callers_share_still_settles_the_crew() {
        let runs = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            Crew::global().require(
                4,
                &|_| {
                    runs.fetch_add(1, Ordering::Relaxed);
                },
                || panic!("caller failed"),
            )
        }));
        assert!(caught.is_err());
        // Whatever a crew thread claimed finished before the unwind left
        // `require`, and nothing of the call was left queued: a later
        // job, claimed in queue order, finds no stale call ahead of it.
        let claimed = runs.load(Ordering::Relaxed);
        assert!(claimed <= 4);
        assert!(offer_and_await(|| ()).is_some());
        assert_eq!(runs.load(Ordering::Relaxed), claimed);
    }
}
