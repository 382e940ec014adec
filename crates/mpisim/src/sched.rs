//! Cooperative event-driven rank scheduler.
//!
//! The original execution model ran every rank as a free-running OS
//! thread: a blocked receive spun on a 50 ms condvar poll, and the host
//! kernel decided which of P runnable threads to run next. That model
//! tops out at a few hundred ranks — P threads all polling their
//! mailboxes thrash the host scheduler long before memory runs out — and
//! it wastes a poll interval every time a message lands.
//!
//! This module replaces it with a cooperative scheduler driven by the
//! simulation's own virtual-clock model:
//!
//! * **Task = rank, continuation = switched stack.** A rank program runs
//!   on its own `mmap`ed stack (a private `stack::Fiber`) and keeps its
//!   natural blocking style: at a block point it saves six registers and
//!   its stack pointer and the scheduler loop continues on the thread's
//!   own stack. No OS thread belongs to a rank, and a blocked rank costs a
//!   register swap, not a futex hand-off.
//! * **One thread.** `Sched::run` resumes every rank on the thread that
//!   calls it, one at a time, so nothing on a rank's stack ever changes OS
//!   thread (`stack`'s rule 1) and dispatch is a sequential, deterministic
//!   loop: the engine has no physical race at all. Its state (tasks, ready
//!   heap, counts, stall flag) therefore needs no lock: the running
//!   `Sched::run` installs it in a thread-local and every block point
//!   reaches it there.
//! * **Virtual-clock ready heap.** The loop dispatches runnable tasks in
//!   ascending order of their virtual timestamp at the moment they became
//!   runnable, ties broken by rank ([`ReadyQueue`]). The order is a
//!   heuristic (run the event that is earliest in simulated time first),
//!   *not* a correctness requirement: every simulation-visible quantity —
//!   virtual clocks, traces, journals, fault coins, survivor sets — is
//!   already scheduler-invariant (arrival-stamped messages, deferred clock
//!   accounting, eager sends with death flags published before
//!   unwinding), which is what makes thread-vs-event byte-identity
//!   testable at all.
//! * **Event wakeups, not polls.** Message delivery readies exactly the
//!   destination task; crash-death and world-poison flags ready every
//!   parked task. A per-rank wake *epoch* closes the classic check-then-
//!   park race: a waiter records the epoch, re-checks its mailbox, and
//!   parks only if no wake arrived in between. No clock wakes anyone:
//!   the loop never sleeps, and a wait ends only on a wake or a stall.
//! * **Stall detection.** Only a rank can wake a rank, so if no task is
//!   running and none is ready, the world can never make progress again
//!   on its own. The scheduler then releases the *bounded* waiter
//!   (`Proc::recv_or_stall`) earliest in `(vtime, rank)` order, whose
//!   wait ends there; it may send what the next one waits for. With no
//!   bounded waiter the scheduler flags the stall and readies everyone;
//!   each waiter raises the armed typed timeout or a deadlock panic
//!   instead of hanging CI. Both depend only on the simulation, never on
//!   wall time.
//!
//! The pre-refactor model is preserved behind
//! [`SchedMode::Threads`](crate::SchedMode) as the differential-testing
//! oracle. The two engines share every block point and differ only in how
//! a blocked rank waits (`Waiter`, at the bottom of this module):
//! `tests/sched_differential.rs` runs both schedulers over the
//! same seed × workload × fault grid and asserts byte-identical
//! journals, traces, stats, and survivor sets.

mod stack;

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::mailbox::Mailbox;
use crate::proc::Rank;
use crate::time::VirtualTime;
use stack::{Fiber, Stack};

/// Which execution engine a [`crate::World`] runs its ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Cooperative event-driven scheduler (the default): rank tasks
    /// multiplexed on the thread that runs the world, parked without
    /// polling, dispatched in virtual-clock order. Scales to tens of
    /// thousands of ranks.
    #[default]
    Events,
    /// The pre-refactor model: every rank thread free-runs and blocked
    /// receives poll on a timeout. Kept as the differential-testing
    /// oracle; caps out at a few hundred ranks.
    Threads,
}

/// Min-heap of runnable tasks ordered by `(virtual time, rank)`.
///
/// Virtual times are non-negative finite `f64`s, so their IEEE-754 bit
/// patterns order exactly like the values themselves — the heap keys on
/// the bits to get a total order without an `Ord` wrapper. Ties at equal
/// virtual time resolve by rank, ascending, regardless of insertion
/// order (`tests/prop_sched.rs` pins this).
#[derive(Debug, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<Reverse<(u64, Rank)>>,
}

impl ReadyQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Key a non-negative virtual time for the heap.
    #[inline]
    fn key(vtime: VirtualTime) -> u64 {
        debug_assert!(vtime >= 0.0, "virtual clocks are monotone from zero");
        vtime.to_bits()
    }

    /// Insert a runnable rank at its current virtual time.
    pub fn push(&mut self, vtime: VirtualTime, rank: Rank) {
        self.heap.push(Reverse((Self::key(vtime), rank)));
    }

    /// Remove and return the earliest runnable rank (lowest virtual
    /// time, then lowest rank).
    pub fn pop(&mut self) -> Option<Rank> {
        self.heap.pop().map(|Reverse((_, rank))| rank)
    }

    /// Number of queued ranks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Lifecycle of one rank task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Runnable, queued in the ready heap.
    Ready,
    /// Executing rank code.
    Running,
    /// Suspended at a block point; readied by `notify` or a stall.
    Waiting,
    /// Program returned or unwound.
    Done,
}

/// Outcome of one park: why the task got the CPU back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// A wake event (or a wake that raced the park) readied the task;
    /// re-check the wait condition.
    Granted,
    /// The scheduler proved a stall and released this bounded waiter:
    /// its wait ends without the event it was waiting for.
    TimedOut,
}

struct Task {
    state: TaskState,
    /// Wake counter; bumped by every `notify` touching the rank. A waiter
    /// snapshots it before re-checking its mailbox and parks only if it is
    /// unchanged — the lost-wakeup guard.
    epoch: u64,
    /// Virtual timestamp recorded when the rank parked; its ready-heap
    /// key when it becomes runnable again.
    parked_vtime: VirtualTime,
    /// Whether the task's current wait may end at a stall
    /// (`Proc::recv_or_stall`) rather than only on a wake.
    bounded: bool,
    /// Why the task was last readied; what its `park` returns.
    outcome: ParkOutcome,
    /// The rank's stack, mapped by [`Sched::new`] so that running out of
    /// mappings fails before any rank runs; taken by [`Sched::run`].
    stack: Option<Stack>,
}

#[derive(Default)]
struct Inner {
    tasks: Vec<Task>,
    /// Runnable tasks.
    ready: ReadyQueue,
    /// Tasks not yet `Done`; [`Sched::run`] returns at zero.
    live: usize,
    /// Tasks `Running` right now (at most one).
    active: usize,
    /// Set when the scheduler proves no task can ever run again.
    stalled: bool,
}

thread_local! {
    /// The state of the engine whose [`Sched::run`] is running on this
    /// thread (the innermost, when worlds nest), or `None`. Only this
    /// thread ever reaches it: every rank of the world runs here
    /// (`stack`'s rule 1), so it needs no lock.
    static ENGINE: RefCell<Option<Inner>> = const { RefCell::new(None) };
}

/// Apply `f` to the state of the engine running on this thread. The borrow
/// ends when `f` returns, so none is live across a switch (`stack`'s
/// rule 2).
///
/// Panics outside [`Sched::run`].
fn with_engine<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    ENGINE.with_borrow_mut(|engine| {
        f(engine
            .as_mut()
            .expect("no event engine runs on this thread"))
    })
}

/// The engine state of a running [`Sched::run`], moved into `ENGINE`.
/// Dropping it — on return or on unwind — moves the state back to its
/// [`Sched`] and reinstalls whatever engine it displaced, so a nested world
/// hands the outer one back and a failed run leaves the thread clean.
struct Installed<'a> {
    home: &'a mut Inner,
    outer: Option<Inner>,
}

impl<'a> Installed<'a> {
    fn new(home: &'a mut Inner) -> Self {
        let outer = ENGINE.replace(Some(std::mem::take(home)));
        Installed { home, outer }
    }
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        if let Some(state) = ENGINE.replace(self.outer.take()) {
            *self.home = state;
        }
    }
}

/// The cooperative scheduler of one event-mode world.
///
/// It is owned by the thread that runs the world: [`Sched::run`] installs
/// its state in a thread-local for the duration of the run, and the
/// rank-side calls ([`Sched::park`], [`Sched::notify`], …) act on the
/// state installed there. One thread runs every rank, so the state sits
/// behind no lock, and the ranks share only the stateless
/// [`Waiter::Events`].
pub(crate) struct Sched {
    inner: Inner,
}

impl Sched {
    /// Scheduler for `ranks` tasks, each on a stack of `stack_bytes`. All
    /// tasks start ready at virtual time zero.
    ///
    /// Panics if a stack cannot be mapped — before anything runs.
    pub(crate) fn new(ranks: usize, stack_bytes: usize) -> Self {
        let mut ready = ReadyQueue::new();
        let tasks = (0..ranks)
            .map(|rank| {
                ready.push(0.0, rank);
                let stack = Stack::map(stack_bytes).unwrap_or_else(|e| {
                    panic!(
                        "failed to map the {stack_bytes}-byte stack of rank {rank} of {ranks} \
                         (two mappings each; see vm.max_map_count): {e}"
                    )
                });
                Task {
                    state: TaskState::Ready,
                    epoch: 0,
                    parked_vtime: 0.0,
                    bounded: false,
                    outcome: ParkOutcome::Granted,
                    stack: Some(stack),
                }
            })
            .collect();
        Sched {
            inner: Inner {
                tasks,
                ready,
                live: ranks,
                active: 0,
                stalled: false,
            },
        }
    }

    /// The whole world, on the calling thread: run `body(rank)` for every
    /// rank, each on its own stack, switching to whichever is ready and
    /// earliest in virtual time whenever the running one parks. Returns
    /// the bodies' results in rank order once all have finished.
    ///
    /// Call it once per scheduler.
    pub(crate) fn run<T>(&mut self, body: &dyn Fn(Rank) -> T) -> Vec<T> {
        let stacks: Vec<Stack> = self
            .inner
            .tasks
            .iter_mut()
            .map(|task| task.stack.take().expect("a world is run once"))
            .collect();
        let results: Vec<Cell<Option<T>>> = stacks.iter().map(|_| Cell::new(None)).collect();
        let mut fibers: Vec<Fiber<'_>> = stacks
            .into_iter()
            .zip(&results)
            .enumerate()
            .map(|(rank, (stack, result))| {
                Fiber::new(stack, move || {
                    result.set(Some(body(rank)));
                    Sched::exit(rank);
                })
            })
            .collect();
        let installed = Installed::new(&mut self.inner);
        while let Some(rank) = Sched::next_ready() {
            fibers[rank].resume();
        }
        drop(installed);
        drop(fibers);
        results
            .into_iter()
            .map(|r| r.into_inner().expect("every rank ran to its end"))
            .collect()
    }

    /// Mark the earliest ready task running and return it; `None` once
    /// every task is done.
    fn next_ready() -> Option<Rank> {
        with_engine(|g| {
            let Some(rank) = g.ready.pop() else {
                assert_eq!(g.live, 0, "`check_stall` readies a task whenever none runs");
                return None;
            };
            debug_assert_eq!(g.tasks[rank].state, TaskState::Ready);
            g.tasks[rank].state = TaskState::Running;
            g.active += 1;
            Some(rank)
        })
    }

    /// Whether the running engine has proven the world deadlocked.
    pub(crate) fn stalled() -> bool {
        with_engine(|g| g.stalled)
    }

    /// Snapshot the rank's wake epoch *before* re-checking the wait
    /// condition. Passing the snapshot to [`Sched::park`] makes the
    /// check-then-park sequence race-free: any wake in between bumps the
    /// epoch and the park returns immediately.
    pub(crate) fn pre_wait(rank: Rank) -> u64 {
        with_engine(|g| g.tasks[rank].epoch)
    }

    /// Park the running task at a block point: switch to the scheduler
    /// loop, and continue here once a wake event readies the task and the
    /// loop picks it again (or, for a `bounded` wait, once a stall
    /// releases it — [`ParkOutcome::TimedOut`]).
    ///
    /// `vtime` is the task's virtual timestamp at the block point; it
    /// becomes the ready-heap key when the task is woken. Must be called
    /// from the rank's own stack, i.e. from inside [`Sched::run`]'s `body`.
    pub(crate) fn park(rank: Rank, epoch: u64, vtime: VirtualTime, bounded: bool) -> ParkOutcome {
        let parked = with_engine(|g| {
            let task = &mut g.tasks[rank];
            if task.epoch != epoch {
                // A wake raced the re-check; keep running and re-check.
                return false;
            }
            debug_assert_eq!(task.state, TaskState::Running);
            task.state = TaskState::Waiting;
            task.parked_vtime = vtime;
            task.bounded = bounded;
            g.active -= 1;
            g.check_stall();
            true
        });
        if !parked {
            return ParkOutcome::Granted;
        }
        stack::suspend();
        with_engine(|g| g.tasks[rank].outcome)
    }

    /// Wake `rank`: bump its epoch and, if it is parked, move it to the
    /// ready heap. Called after every message delivery to the rank's
    /// mailbox.
    pub(crate) fn notify(rank: Rank) {
        with_engine(|g| {
            g.tasks[rank].epoch += 1;
            if g.tasks[rank].state == TaskState::Waiting {
                g.make_ready(rank, ParkOutcome::Granted);
            }
        })
    }

    /// Wake every parked task — death flags and world poison are global
    /// conditions any waiter might be blocked on.
    pub(crate) fn notify_all() {
        with_engine(Inner::ready_all)
    }

    /// The task's program returned or unwound.
    fn exit(rank: Rank) {
        with_engine(|g| {
            debug_assert_eq!(g.tasks[rank].state, TaskState::Running);
            g.tasks[rank].state = TaskState::Done;
            g.live -= 1;
            g.active -= 1;
            g.check_stall();
        })
    }
}

impl Inner {
    /// Move a `Waiting` task to the ready heap. `outcome` is what the
    /// task's `park` will return.
    fn make_ready(&mut self, rank: Rank, outcome: ParkOutcome) {
        let task = &mut self.tasks[rank];
        debug_assert_eq!(task.state, TaskState::Waiting);
        task.state = TaskState::Ready;
        task.outcome = outcome;
        self.ready.push(task.parked_vtime, rank);
    }

    /// After a task stopped running: if nothing runs and nothing is ready
    /// while tasks remain, no rank can ever wake another — a stall. Release
    /// the bounded waiter lowest in `(parked_vtime, rank)`, the ready
    /// heap's own order: one at a time, because it may send what the next
    /// one waits for. With none, flag the stall and ready everyone so they
    /// fail loudly instead of hanging.
    fn check_stall(&mut self) {
        if self.active != 0 || !self.ready.is_empty() || self.live == 0 {
            return;
        }
        let released = (0..self.tasks.len())
            .filter(|&r| self.tasks[r].state == TaskState::Waiting && self.tasks[r].bounded)
            .min_by_key(|&r| (ReadyQueue::key(self.tasks[r].parked_vtime), r));
        match released {
            Some(rank) => self.make_ready(rank, ParkOutcome::TimedOut),
            None => {
                self.stalled = true;
                self.ready_all();
            }
        }
    }

    /// Bump every epoch and ready every parked task.
    fn ready_all(&mut self) {
        for rank in 0..self.tasks.len() {
            self.tasks[rank].epoch += 1;
            if self.tasks[rank].state == TaskState::Waiting {
                self.make_ready(rank, ParkOutcome::Granted);
            }
        }
    }
}

/// The one mode-dependent step of a blocked rank: *wait for something to
/// change*. `Proc::block_on` owns everything else about blocking (probe
/// order, the poison check, what a stall means, the recheck after a
/// peer's death), so the two engines differ only in the arms below and
/// the thread oracle stays an independent waiting mechanism to diff the
/// scheduler against.
///
/// Both arms close the probe-then-wait race the same way: the waiter
/// takes a [`Waiter::ticket`] *before* probing and hands it back to
/// [`Waiter::wait`], which returns at once if the ticket went stale — the
/// scheduler's per-rank wake epoch in event mode, the mailbox's delivery
/// counter in thread mode.
pub(crate) enum Waiter {
    /// [`SchedMode::Events`]: park on the scheduler running on this
    /// thread until woken or released by a stall.
    Events,
    /// [`SchedMode::Threads`]: every rank free-runs on its own OS thread;
    /// a blocked rank sleeps on its mailbox condvar one poll slice at a
    /// time. Nothing signals a death or poison flag here — the slice
    /// bounds how stale they get — and nothing sees every rank parked, so
    /// a wall budget stands in for the proof of a stall.
    Threads,
}

impl Waiter {
    /// The engine for `mode` over `ranks` tasks: the waiter the ranks
    /// share and, in event mode, the scheduler that runs them, owned by the
    /// caller (`stack_bytes` per rank; thread mode sizes its threads'
    /// stacks itself). Where `stack` has no switch routine — anywhere but
    /// x86-64 Linux — event mode runs on the thread engine too.
    pub(crate) fn new(mode: SchedMode, ranks: usize, stack_bytes: usize) -> (Self, Option<Sched>) {
        match mode {
            SchedMode::Events if stack::SUPPORTED => {
                (Waiter::Events, Some(Sched::new(ranks, stack_bytes)))
            }
            _ => (Waiter::Threads, None),
        }
    }

    /// A message was delivered to `rank`'s mailbox `mailbox`.
    #[inline]
    pub(crate) fn notify(&self, rank: Rank, mailbox: &Mailbox) {
        match self {
            Waiter::Events => Sched::notify(rank),
            Waiter::Threads => mailbox.wake_waiters(),
        }
    }

    /// A global condition changed (a death flag, the world poison flag)
    /// that any waiter might be blocked on.
    pub(crate) fn notify_all(&self) {
        if let Waiter::Events = self {
            Sched::notify_all();
        }
    }

    /// Snapshot "nothing has changed yet" ahead of a probe.
    #[inline]
    pub(crate) fn ticket(&self, rank: Rank, mailbox: &Mailbox) -> u64 {
        match self {
            Waiter::Events => Sched::pre_wait(rank),
            Waiter::Threads => mailbox.deliveries(),
        }
    }

    /// When a wait that starts now and may last `budget` of wall time
    /// gives up. Only the thread oracle has such a bound: the event
    /// scheduler proves stalls instead, and reads no clock.
    pub(crate) fn deadline(&self, budget: Option<Duration>) -> Option<Instant> {
        match self {
            Waiter::Events => None,
            Waiter::Threads => budget.map(|b| Instant::now() + b),
        }
    }

    /// Wait until `ticket` goes stale or — thread mode only — `slice`
    /// elapses, and say whether the wait ended at a stall
    /// ([`ParkOutcome::TimedOut`]). The caller re-probes on return
    /// whatever the reason. `vtime` is the rank's virtual time at the block
    /// point (the ready-heap key it is re-dispatched under in event mode).
    ///
    /// Event mode reports a stall when the scheduler released this
    /// `bounded` wait or flagged the world stalled; the thread oracle, which
    /// cannot prove one, when `deadline` has passed.
    #[allow(clippy::too_many_arguments)] // each engine's wait inputs, side by side
    pub(crate) fn wait(
        &self,
        rank: Rank,
        mailbox: &Mailbox,
        ticket: u64,
        vtime: VirtualTime,
        slice: Duration,
        bounded: bool,
        deadline: Option<Instant>,
    ) -> ParkOutcome {
        match self {
            Waiter::Events => match Sched::park(rank, ticket, vtime, bounded) {
                ParkOutcome::Granted if Sched::stalled() => ParkOutcome::TimedOut,
                outcome => outcome,
            },
            Waiter::Threads => {
                let slice = deadline.map_or(slice, |d| {
                    slice.min(d.saturating_duration_since(Instant::now()))
                });
                mailbox.wait_delivery(ticket, slice);
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    ParkOutcome::TimedOut
                } else {
                    ParkOutcome::Granted
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_queue_orders_by_vtime_then_rank() {
        let mut q = ReadyQueue::new();
        q.push(2.0, 0);
        q.push(1.0, 7);
        q.push(1.0, 3);
        q.push(0.5, 9);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), Some(3), "equal vtimes resolve by rank");
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ready_queue_key_is_monotone() {
        let times = [0.0, 1e-12, 1e-6, 0.5, 1.0, 1.0 + 1e-9, 1e9];
        for w in times.windows(2) {
            assert!(
                ReadyQueue::key(w[0]) < ReadyQueue::key(w[1]),
                "bit keys must order like the values: {} vs {}",
                w[0],
                w[1]
            );
        }
    }

    /// The engine itself, on real switched stacks.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod engine {
        use super::*;
        use std::sync::Mutex;

        const STACK: usize = 64 * 1024;

        /// Run a whole `ranks`-task world on this thread and return the
        /// scheduler, its state back from the run, and each rank's result.
        fn run_alone<T>(ranks: usize, body: impl Fn(Rank) -> T) -> (Sched, Vec<T>) {
            let mut sched = Sched::new(ranks, STACK);
            let results = sched.run(&body);
            (sched, results)
        }

        #[test]
        fn untimed_parks_with_nothing_runnable_are_a_stall_not_a_hang() {
            // Every live task parks on an event that will never come: the last
            // one to park must flag the stall and ready them all.
            let (sched, outcomes) = run_alone(3, |rank| {
                let epoch = Sched::pre_wait(rank);
                let outcome = Sched::park(rank, epoch, rank as f64, false);
                (outcome, Sched::stalled())
            });
            assert_eq!(outcomes, [(ParkOutcome::Granted, true); 3]);
            assert!(sched.inner.stalled);
        }

        #[test]
        fn bounded_park_is_released_when_nothing_else_can_run() {
            let (sched, outcomes) = run_alone(1, |rank| {
                let epoch = Sched::pre_wait(rank);
                Sched::park(rank, epoch, 0.0, true)
            });
            assert_eq!(outcomes, [ParkOutcome::TimedOut]);
            assert!(
                !sched.inner.stalled,
                "releasing a bounded waiter is not a stalled world"
            );
        }

        #[test]
        fn bounded_park_is_released_before_the_world_is_stalled() {
            // Rank 0 parks unbounded for good, rank 1 bounded: the first
            // stall releases rank 1; once it exits, rank 0 is stalled.
            let (_, outcomes) = run_alone(2, |rank| {
                let epoch = Sched::pre_wait(rank);
                let outcome = Sched::park(rank, epoch, 0.0, rank == 1);
                (outcome, Sched::stalled())
            });
            assert_eq!(
                outcomes,
                [(ParkOutcome::Granted, true), (ParkOutcome::TimedOut, false)]
            );
        }

        #[test]
        fn one_bounded_waiter_is_released_per_stall_in_vtime_then_rank_order() {
            // Ranks 0..3 park bounded; rank 2 earliest in virtual time, then
            // ranks 0 and 1 tied. Each stall releases exactly one of them.
            let order = Mutex::new(Vec::new());
            let (sched, outcomes) = run_alone(3, |rank| {
                let epoch = Sched::pre_wait(rank);
                let outcome = Sched::park(rank, epoch, [1.0, 1.0, 0.5][rank], true);
                order.lock().unwrap().push(rank);
                outcome
            });
            assert_eq!(outcomes, [ParkOutcome::TimedOut; 3]);
            assert_eq!(*order.lock().unwrap(), [2, 0, 1]);
            assert!(!sched.inner.stalled);
        }

        #[test]
        fn raced_wake_keeps_the_task_running_without_a_switch() {
            let order = Mutex::new(Vec::new());
            run_alone(2, |rank| {
                if rank == 0 {
                    let epoch = Sched::pre_wait(0);
                    Sched::notify(0); // wake lands between re-check and park
                    assert_eq!(Sched::park(0, epoch, 1.0, false), ParkOutcome::Granted);
                }
                order.lock().unwrap().push(rank);
            });
            // Had rank 0 switched away, ready rank 1 would have run first.
            assert_eq!(*order.lock().unwrap(), [0, 1]);
        }

        #[test]
        fn notify_moves_a_waiter_through_ready_back_to_running() {
            let order = Mutex::new(Vec::new());
            let state = |rank: Rank| with_engine(|g| g.tasks[rank].state);
            let (sched, outcomes) = run_alone(2, |rank| {
                let log = |what| order.lock().unwrap().push((rank, what));
                if rank == 0 {
                    let epoch = Sched::pre_wait(0);
                    log("parks");
                    let outcome = Sched::park(0, epoch, 5.0, false);
                    log("resumed");
                    Some(outcome)
                } else {
                    assert_eq!(state(0), TaskState::Waiting);
                    Sched::notify(0); // message delivery
                    assert_eq!(state(0), TaskState::Ready);
                    log("notified");
                    None
                }
            });
            assert_eq!(outcomes, [Some(ParkOutcome::Granted), None]);
            assert_eq!(
                *order.lock().unwrap(),
                [(0, "parks"), (1, "notified"), (0, "resumed")]
            );
            assert!(!sched.inner.stalled);
            let g = &sched.inner;
            assert!(g.tasks.iter().all(|t| t.state == TaskState::Done));
            assert_eq!((g.active, g.live), (0, 0));
        }

        #[test]
        fn ready_tasks_resume_in_vtime_then_rank_order() {
            // Ranks 1..=4 park at chosen virtual times; rank 0 readies them
            // all at once. The loop must resume them by (vtime, rank).
            let order = Mutex::new(Vec::new());
            run_alone(5, |rank| {
                if rank == 0 {
                    // Dispatched first (rank order at vtime 0): park bounded
                    // so the others run up to their own parks and the stall
                    // releases it, then wake them.
                    let epoch = Sched::pre_wait(0);
                    Sched::park(0, epoch, 0.0, true);
                    Sched::notify_all();
                } else {
                    let vtime = [0.0, 2.0, 1.0, 2.0, 1.0][rank];
                    let epoch = Sched::pre_wait(rank);
                    Sched::park(rank, epoch, vtime, false);
                    order.lock().unwrap().push(rank);
                }
            });
            assert_eq!(*order.lock().unwrap(), [2, 4, 1, 3]);
        }

        #[test]
        fn a_nested_run_hands_the_outer_engine_back() {
            // Rank 1 of the outer world runs a whole world of its own while
            // rank 0 is parked; the outer engine must see rank 0 parked
            // again afterwards and the inner world's state must stay its own.
            let (outer, inner) = run_alone(2, |rank| {
                if rank == 0 {
                    let epoch = Sched::pre_wait(0);
                    Sched::park(0, epoch, 0.0, false);
                    None
                } else {
                    let (inner, results) = run_alone(3, |r| {
                        let epoch = Sched::pre_wait(r);
                        Sched::park(r, epoch, 0.0, r == 2);
                        r * 10
                    });
                    assert_eq!(with_engine(|g| g.tasks[0].state), TaskState::Waiting);
                    Sched::notify(0);
                    Some((results, inner.inner.stalled))
                }
            });
            assert_eq!(inner, [None, Some((vec![0, 10, 20], true))]);
            assert!(!outer.inner.stalled);
            assert_eq!((outer.inner.active, outer.inner.live), (0, 0));
            assert!(ENGINE.with_borrow(Option::is_none), "the thread is clean");
        }

        #[test]
        fn a_run_that_unwinds_leaves_the_thread_clean() {
            let failed = std::panic::catch_unwind(|| {
                run_alone(2, |rank| {
                    let epoch = Sched::pre_wait(rank);
                    Sched::park(rank, epoch, 0.0, true);
                    assert_ne!(rank, 1, "rank 1 fails");
                })
            });
            assert!(failed.is_err());
            assert!(ENGINE.with_borrow(Option::is_none), "the thread is clean");
            let (sched, results) = run_alone(2, |rank| rank);
            assert_eq!(results, [0, 1]);
            assert_eq!((sched.inner.active, sched.inner.live), (0, 0));
        }
    }
}
