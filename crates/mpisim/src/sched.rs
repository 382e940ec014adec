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
//!   its stack pointer and the worker's loop continues on the worker's
//!   stack. No OS thread belongs to a rank, and a blocked rank costs a
//!   register swap, not a futex hand-off.
//! * **Bounded worker pool, home workers.** `workers` OS threads run
//!   [`Sched::run_worker`]. Rank `r` is only ever resumed by worker
//!   `r % workers` — its *home* — so nothing on a rank's stack ever
//!   changes OS thread (`stack`'s rule 1). `workers = 1` yields fully
//!   sequential, deterministic dispatch; results are invariant under the
//!   pool size by construction (see the determinism notes below).
//! * **Virtual-clock ready heaps.** Each worker dispatches its runnable
//!   tasks in ascending order of their virtual timestamp at the moment
//!   they became runnable, ties broken by rank ([`ReadyQueue`]), one heap
//!   per worker under the one scheduler lock. The order is a heuristic
//!   (run the event that is earliest in simulated time first), *not* a
//!   correctness requirement: every simulation-visible quantity — virtual
//!   clocks, traces, journals, fault coins, survivor sets — is already
//!   scheduler-invariant (arrival-stamped messages, deferred clock
//!   accounting, eager sends with death flags published before
//!   unwinding), which is what makes thread-vs-event byte-identity
//!   testable at all.
//! * **Event wakeups, not polls.** Message delivery readies exactly the
//!   destination task; crash-death and world-poison flags ready every
//!   parked task. A per-rank wake *epoch* closes the classic check-then-
//!   park race: a waiter records the epoch, re-checks its mailbox, and
//!   parks only if no wake arrived in between. A worker sleeps only when
//!   its heap is empty — until a wake from another worker, or the
//!   earliest real-time deadline (`recv_timeout`, the armed hang
//!   backstop) among the tasks parked on it.
//! * **Stall detection.** If no task is running, none is ready, and no
//!   parked task holds a real-time deadline, the world can never make
//!   progress again. The scheduler flags the stall and readies everyone;
//!   each waiter panics with a diagnostic instead of hanging CI. (The
//!   thread scheduler would spin on its poll loops forever.)
//!
//! The pre-refactor model is preserved behind
//! [`SchedMode::Threads`](crate::SchedMode) as the differential-testing
//! oracle. The two engines share every block point and differ only in how
//! a blocked rank waits (`Waiter`, at the bottom of this module):
//! `tests/sched_differential.rs` runs both schedulers over the
//! same seed × workload × fault grid and asserts byte-identical
//! journals, traces, stats, and survivor sets.

mod stack;

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::mailbox::Mailbox;
use crate::proc::Rank;
use crate::time::VirtualTime;
use stack::{Fiber, Stack};

/// Which execution engine a [`crate::World`] runs its ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Cooperative event-driven scheduler (the default): rank tasks
    /// multiplexed over a bounded worker pool, parked without polling,
    /// dispatched in virtual-clock order. Scales to tens of thousands of
    /// ranks.
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
    /// Runnable, queued in its home worker's ready heap.
    Ready,
    /// Executing rank code on its home worker.
    Running,
    /// Suspended at a block point; readied by `notify` or its deadline.
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
    /// The real-time deadline expired first; the task should run its
    /// timeout handling.
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
    /// Real-time deadline of a `Waiting` task (hang backstop,
    /// `recv_timeout`); its home worker readies it when it expires.
    deadline: Option<Instant>,
    /// Why the task was last readied; what its `park` returns.
    outcome: ParkOutcome,
    /// The rank's stack, mapped by [`Sched::new`] so that running out of
    /// mappings fails before any rank runs; taken by its home worker.
    stack: Option<Stack>,
}

struct Inner {
    tasks: Vec<Task>,
    /// Runnable tasks, one heap per worker (index = home worker).
    ready: Vec<ReadyQueue>,
    /// Workers blocked on their `idle` condvar. A sleeping worker's heap
    /// is empty: whoever pushes to it wakes it.
    asleep: Vec<bool>,
    /// Per worker: homed tasks not yet `Done`. The worker returns at zero.
    homed_live: Vec<usize>,
    /// Tasks `Running` right now (at most one per worker).
    active: usize,
    /// `Waiting` tasks holding a deadline. They wake by themselves, so
    /// their existence vetoes stall detection.
    timed: usize,
    /// Set when the scheduler proves no task can ever run again.
    stalled: bool,
}

/// The cooperative scheduler shared by all ranks of one world.
pub(crate) struct Sched {
    /// Number of rank tasks.
    ranks: usize,
    /// Worker-pool size; rank `r` is homed on worker `r % workers`.
    workers: usize,
    inner: Mutex<Inner>,
    /// One condvar per worker, guarding [`Sched::inner`]: where a worker
    /// with nothing ready sleeps.
    idle: Vec<Condvar>,
}

impl Sched {
    /// Scheduler for `ranks` tasks over at most `workers` workers, each
    /// task on a stack of `stack_bytes`. All tasks start ready at virtual
    /// time zero.
    ///
    /// Panics if a stack cannot be mapped — before anything runs.
    pub(crate) fn new(ranks: usize, workers: usize, stack_bytes: usize) -> Self {
        assert!(workers >= 1, "worker pool needs at least one worker");
        let workers = workers.min(ranks.max(1));
        let mut ready: Vec<ReadyQueue> = (0..workers).map(|_| ReadyQueue::new()).collect();
        let mut homed_live = vec![0; workers];
        let tasks = (0..ranks)
            .map(|rank| {
                ready[rank % workers].push(0.0, rank);
                homed_live[rank % workers] += 1;
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
                    deadline: None,
                    outcome: ParkOutcome::Granted,
                    stack: Some(stack),
                }
            })
            .collect();
        Sched {
            ranks,
            workers,
            inner: Mutex::new(Inner {
                tasks,
                ready,
                asleep: vec![false; workers],
                homed_live,
                active: 0,
                timed: 0,
                stalled: false,
            }),
            idle: (0..workers).map(|_| Condvar::new()).collect(),
        }
    }

    /// How many workers must each call [`Sched::run_worker`] once.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The ranks homed on worker `w`, ascending.
    pub(crate) fn homed(&self, w: usize) -> impl Iterator<Item = Rank> {
        (w..self.ranks).step_by(self.workers)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Move a `Waiting` task to its home worker's heap, waking that worker
    /// if it sleeps. `outcome` is what the task's `park` will return.
    fn make_ready(&self, g: &mut Inner, rank: Rank, outcome: ParkOutcome) {
        let task = &mut g.tasks[rank];
        debug_assert_eq!(task.state, TaskState::Waiting);
        task.state = TaskState::Ready;
        task.outcome = outcome;
        if task.deadline.take().is_some() {
            g.timed -= 1;
        }
        let home = rank % self.workers;
        g.ready[home].push(task.parked_vtime, rank);
        if std::mem::take(&mut g.asleep[home]) {
            self.idle[home].notify_one();
        }
    }

    /// After a task stopped running: if nothing runs, nothing is ready,
    /// and no parked task can wake itself, the world is deadlocked. Flag
    /// it and ready everyone so they can fail loudly instead of hanging.
    fn check_stall(&self, g: &mut Inner) {
        if g.stalled
            || g.active != 0
            || g.timed != 0
            || g.ready.iter().any(|q| !q.is_empty())
            || g.homed_live.iter().all(|&live| live == 0)
        {
            return;
        }
        g.stalled = true;
        self.ready_all(g);
    }

    /// Bump every epoch and ready every parked task.
    fn ready_all(&self, g: &mut Inner) {
        for rank in 0..g.tasks.len() {
            g.tasks[rank].epoch += 1;
            if g.tasks[rank].state == TaskState::Waiting {
                self.make_ready(g, rank, ParkOutcome::Granted);
            }
        }
    }

    /// Whether the scheduler has proven the world deadlocked.
    pub(crate) fn stalled(&self) -> bool {
        self.lock().stalled
    }

    /// Worker `w`'s whole life: run `body(rank)` for every rank homed on
    /// it, each on its own stack, switching to whichever is ready and
    /// earliest in virtual time whenever the running one parks. Returns
    /// the bodies' results in ascending rank order once all have finished.
    ///
    /// Each of the [`Sched::workers`] workers must be run exactly once,
    /// each on its own thread (a rank parked on a worker that never runs
    /// is a hang).
    pub(crate) fn run_worker<T>(&self, w: usize, body: &dyn Fn(Rank) -> T) -> Vec<T> {
        let stacks: Vec<Stack> = {
            let mut g = self.lock();
            self.homed(w)
                .map(|rank| g.tasks[rank].stack.take().expect("a worker is run once"))
                .collect()
        };
        let results: Vec<Cell<Option<T>>> = stacks.iter().map(|_| Cell::new(None)).collect();
        let mut fibers: Vec<Fiber<'_>> = stacks
            .into_iter()
            .zip(self.homed(w))
            .zip(&results)
            .map(|((stack, rank), result)| {
                Fiber::new(stack, move || {
                    result.set(Some(body(rank)));
                    self.exit(rank);
                })
            })
            .collect();
        while let Some(rank) = self.next_ready(w) {
            fibers[rank / self.workers].resume();
        }
        drop(fibers);
        results
            .into_iter()
            .map(|r| r.into_inner().expect("every homed rank ran to its end"))
            .collect()
    }

    /// Block until a task homed on worker `w` is ready and mark it
    /// running; `None` once every such task is done.
    fn next_ready(&self, w: usize) -> Option<Rank> {
        let mut g = self.lock();
        loop {
            if let Some(rank) = g.ready[w].pop() {
                debug_assert_eq!(g.tasks[rank].state, TaskState::Ready);
                g.tasks[rank].state = TaskState::Running;
                g.active += 1;
                return Some(rank);
            }
            if g.homed_live[w] == 0 {
                return None;
            }
            // Nothing to run here: ready the parked tasks whose deadline
            // has passed, else sleep until the earliest one or a wake.
            let mut earliest: Option<Duration> = None;
            if g.timed > 0 {
                let now = Instant::now();
                for rank in self.homed(w) {
                    match g.tasks[rank].deadline {
                        Some(d) if d <= now => self.make_ready(&mut g, rank, ParkOutcome::TimedOut),
                        Some(d) => earliest = Some(earliest.map_or(d - now, |e| e.min(d - now))),
                        None => {}
                    }
                }
                if !g.ready[w].is_empty() {
                    continue;
                }
            }
            g.asleep[w] = true;
            g = match earliest {
                Some(timeout) => {
                    let (g, _) = self.idle[w]
                        .wait_timeout(g, timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    g
                }
                None => self.idle[w].wait(g).unwrap_or_else(|e| e.into_inner()),
            };
            g.asleep[w] = false;
        }
    }

    /// Snapshot the rank's wake epoch *before* re-checking the wait
    /// condition. Passing the snapshot to [`Sched::park`] makes the
    /// check-then-park sequence race-free: any wake in between bumps the
    /// epoch and the park returns immediately.
    pub(crate) fn pre_wait(&self, rank: Rank) -> u64 {
        self.lock().tasks[rank].epoch
    }

    /// Park the running task at a block point: switch to its worker's
    /// loop, and continue here once a wake event readies the task and the
    /// worker picks it again (or `deadline` passes with nothing else to
    /// run on the worker — [`ParkOutcome::TimedOut`]).
    ///
    /// `vtime` is the task's virtual timestamp at the block point; it
    /// becomes the ready-heap key when the task is woken. Must be called
    /// from the rank's own stack, i.e. from inside `run_worker`'s `body`.
    pub(crate) fn park(
        &self,
        rank: Rank,
        epoch: u64,
        vtime: VirtualTime,
        deadline: Option<Instant>,
    ) -> ParkOutcome {
        {
            let mut g = self.lock();
            let task = &mut g.tasks[rank];
            if task.epoch != epoch {
                // A wake raced the re-check; keep running and re-check.
                return ParkOutcome::Granted;
            }
            debug_assert_eq!(task.state, TaskState::Running);
            task.state = TaskState::Waiting;
            task.parked_vtime = vtime;
            task.deadline = deadline;
            if deadline.is_some() {
                g.timed += 1;
            }
            g.active -= 1;
            self.check_stall(&mut g);
            // The guard ends here: the worker's loop takes this lock next,
            // on this thread (`stack`'s rule 2).
        }
        // Another worker may ready this task before the switch below; only
        // this one — busy right here — can resume it, so it cannot start
        // running twice.
        stack::suspend();
        self.lock().tasks[rank].outcome
    }

    /// Wake `rank`: bump its epoch and, if it is parked, move it to its
    /// home worker's ready heap. Called after every message delivery to
    /// the rank's mailbox.
    pub(crate) fn notify(&self, rank: Rank) {
        let mut g = self.lock();
        g.tasks[rank].epoch += 1;
        if g.tasks[rank].state == TaskState::Waiting {
            self.make_ready(&mut g, rank, ParkOutcome::Granted);
        }
    }

    /// Wake every parked task — death flags and world poison are global
    /// conditions any waiter might be blocked on.
    pub(crate) fn notify_all(&self) {
        self.ready_all(&mut self.lock());
    }

    /// The task's program returned or unwound.
    fn exit(&self, rank: Rank) {
        let mut g = self.lock();
        debug_assert_eq!(g.tasks[rank].state, TaskState::Running);
        g.tasks[rank].state = TaskState::Done;
        g.homed_live[rank % self.workers] -= 1;
        g.active -= 1;
        self.check_stall(&mut g);
    }
}

/// The one mode-dependent step of a blocked rank: *wait for something to
/// change*. `Proc::block_on` owns everything else about blocking (probe
/// order, poison/stall/hang checks, the recheck after a peer's death), so
/// the two engines differ only in the arms below and the thread oracle
/// stays an independent waiting mechanism to diff the scheduler against.
///
/// Both arms close the probe-then-wait race the same way: the waiter
/// takes a [`Waiter::ticket`] *before* probing and hands it back to
/// [`Waiter::wait`], which returns at once if the ticket went stale — the
/// scheduler's per-rank wake epoch in event mode, the mailbox's delivery
/// counter in thread mode.
pub(crate) enum Waiter {
    /// [`SchedMode::Events`]: park on the scheduler until woken.
    Events(Arc<Sched>),
    /// [`SchedMode::Threads`]: every rank free-runs on its own OS thread;
    /// a blocked rank sleeps on its mailbox condvar one poll slice at a
    /// time. Nothing signals a death or poison flag here — the slice
    /// bounds how stale they get.
    Threads,
}

impl Waiter {
    /// The engine for `mode` over `ranks` tasks (`workers` workers and
    /// `stack_bytes` per rank in event mode; thread mode has no pool and
    /// sizes its threads' stacks itself). Where `stack` has no switch
    /// routine — anywhere but x86-64 Linux — event mode runs on the thread
    /// engine too.
    pub(crate) fn new(mode: SchedMode, ranks: usize, workers: usize, stack_bytes: usize) -> Self {
        match mode {
            SchedMode::Events if stack::SUPPORTED => {
                Waiter::Events(Arc::new(Sched::new(ranks, workers, stack_bytes)))
            }
            _ => Waiter::Threads,
        }
    }

    /// A message was delivered to `rank`'s mailbox `mailbox`.
    #[inline]
    pub(crate) fn notify(&self, rank: Rank, mailbox: &Mailbox) {
        match self {
            Waiter::Events(s) => s.notify(rank),
            Waiter::Threads => mailbox.wake_waiters(),
        }
    }

    /// A global condition changed (a death flag, the world poison flag)
    /// that any waiter might be blocked on.
    pub(crate) fn notify_all(&self) {
        if let Waiter::Events(s) = self {
            s.notify_all();
        }
    }

    /// Whether the world is provably deadlocked. Only the event scheduler
    /// can prove it; the thread oracle polls forever.
    pub(crate) fn stalled(&self) -> bool {
        matches!(self, Waiter::Events(s) if s.stalled())
    }

    /// Snapshot "nothing has changed yet" ahead of a probe.
    #[inline]
    pub(crate) fn ticket(&self, rank: Rank, mailbox: &Mailbox) -> u64 {
        match self {
            Waiter::Events(s) => s.pre_wait(rank),
            Waiter::Threads => mailbox.deliveries(),
        }
    }

    /// Wait until `ticket` goes stale, `deadline` passes, or — thread mode
    /// only — `slice` elapses. The caller re-probes on return whatever the
    /// reason. `vtime` is the rank's virtual time at the block point (the
    /// ready-heap key it is re-dispatched under in event mode).
    pub(crate) fn wait(
        &self,
        rank: Rank,
        mailbox: &Mailbox,
        ticket: u64,
        vtime: VirtualTime,
        slice: Duration,
        deadline: Option<Instant>,
    ) {
        match self {
            // A timed park never stalls the world: the scheduler counts
            // the task as self-waking.
            Waiter::Events(s) => {
                s.park(rank, ticket, vtime, deadline);
            }
            Waiter::Threads => {
                let slice = match deadline {
                    Some(d) => slice.min(d.saturating_duration_since(Instant::now())),
                    None => slice,
                };
                mailbox.wait_delivery(ticket, slice);
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

        const STACK: usize = 64 * 1024;

        /// Run a whole `ranks`-task world on this thread (`workers = 1`) and
        /// return each rank's result.
        fn run_alone<T>(ranks: usize, body: impl Fn(&Sched, Rank) -> T) -> (Sched, Vec<T>) {
            let sched = Sched::new(ranks, 1, STACK);
            let results = sched.run_worker(0, &|rank| body(&sched, rank));
            (sched, results)
        }

        #[test]
        fn ranks_start_ready_on_their_home_workers() {
            let sched = Sched::new(8, 3, STACK);
            let mut g = sched.lock();
            let homed: Vec<Vec<Rank>> = (0..3)
                .map(|w| std::iter::from_fn(|| g.ready[w].pop()).collect())
                .collect();
            assert_eq!(homed, [vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
            assert_eq!(g.homed_live, [3, 3, 2]);
            assert_eq!(
                Sched::new(2, 8, STACK).workers(),
                2,
                "no worker without a rank"
            );
        }

        #[test]
        fn untimed_parks_with_nothing_runnable_are_a_stall_not_a_hang() {
            // Every live task parks on an event that will never come: the last
            // one to park must flag the stall and ready them all.
            let (sched, outcomes) = run_alone(3, |sched, rank| {
                let epoch = sched.pre_wait(rank);
                let outcome = sched.park(rank, epoch, rank as f64, None);
                (outcome, sched.stalled())
            });
            assert_eq!(outcomes, [(ParkOutcome::Granted, true); 3]);
            assert!(sched.stalled());
        }

        #[test]
        fn timed_park_expires_with_one_worker_and_nothing_else_runnable() {
            let started = Instant::now();
            let (sched, outcomes) = run_alone(1, |sched, rank| {
                let epoch = sched.pre_wait(rank);
                let deadline = Instant::now() + Duration::from_millis(5);
                sched.park(rank, epoch, 0.0, Some(deadline))
            });
            assert_eq!(outcomes, [ParkOutcome::TimedOut]);
            assert!(started.elapsed() >= Duration::from_millis(5));
            assert!(
                !sched.stalled(),
                "a timed waiter is self-waking, not a stall"
            );
            assert_eq!(sched.lock().timed, 0, "timed counter restored");
        }

        #[test]
        fn timed_park_vetoes_the_stall_until_it_expires() {
            // Rank 0 parks untimed for good, rank 1 for 5 ms: no stall while
            // rank 1's deadline is pending; once it exits, rank 0 is stalled.
            let (_, outcomes) = run_alone(2, |sched, rank| {
                let epoch = sched.pre_wait(rank);
                let deadline = (rank == 1).then(|| Instant::now() + Duration::from_millis(5));
                let outcome = sched.park(rank, epoch, 0.0, deadline);
                (outcome, sched.stalled())
            });
            assert_eq!(
                outcomes,
                [(ParkOutcome::Granted, true), (ParkOutcome::TimedOut, false)]
            );
        }

        #[test]
        fn raced_wake_keeps_the_task_running_without_a_switch() {
            let order = Mutex::new(Vec::new());
            run_alone(2, |sched, rank| {
                if rank == 0 {
                    let epoch = sched.pre_wait(0);
                    sched.notify(0); // wake lands between re-check and park
                    assert_eq!(sched.park(0, epoch, 1.0, None), ParkOutcome::Granted);
                }
                order.lock().unwrap().push(rank);
            });
            // Had rank 0 switched away, ready rank 1 would have run first.
            assert_eq!(*order.lock().unwrap(), [0, 1]);
        }

        #[test]
        fn notify_moves_a_waiter_through_ready_back_to_running() {
            let order = Mutex::new(Vec::new());
            let (sched, outcomes) = run_alone(2, |sched, rank| {
                let log = |what| order.lock().unwrap().push((rank, what));
                if rank == 0 {
                    let epoch = sched.pre_wait(0);
                    log("parks");
                    let outcome = sched.park(0, epoch, 5.0, None);
                    log("resumed");
                    Some(outcome)
                } else {
                    assert_eq!(sched.lock().tasks[0].state, TaskState::Waiting);
                    sched.notify(0); // message delivery
                    assert_eq!(sched.lock().tasks[0].state, TaskState::Ready);
                    log("notified");
                    None
                }
            });
            assert_eq!(outcomes, [Some(ParkOutcome::Granted), None]);
            assert_eq!(
                *order.lock().unwrap(),
                [(0, "parks"), (1, "notified"), (0, "resumed")]
            );
            assert!(!sched.stalled());
            let g = sched.lock();
            assert!(g.tasks.iter().all(|t| t.state == TaskState::Done));
            assert_eq!((g.active, g.timed, &g.homed_live[..]), (0, 0, &[0][..]));
        }

        #[test]
        fn ready_tasks_resume_in_vtime_then_rank_order() {
            // Ranks 1..=4 park at chosen virtual times; rank 0 readies them
            // all at once. One worker must resume them by (vtime, rank).
            let order = Mutex::new(Vec::new());
            run_alone(5, |sched, rank| {
                if rank == 0 {
                    // Dispatched first (rank order at vtime 0): park once so
                    // the others run up to their own parks, then wake them.
                    let epoch = sched.pre_wait(0);
                    sched.park(0, epoch, 0.0, Some(Instant::now()));
                    sched.notify_all();
                } else {
                    let vtime = [0.0, 2.0, 1.0, 2.0, 1.0][rank];
                    let epoch = sched.pre_wait(rank);
                    sched.park(rank, epoch, vtime, None);
                    order.lock().unwrap().push(rank);
                }
            });
            assert_eq!(*order.lock().unwrap(), [2, 4, 1, 3]);
        }

        #[test]
        fn a_cross_worker_notify_wakes_a_sleeping_worker() {
            // Two workers, two ranks: rank 1 parks untimed (its worker then
            // sleeps, heap empty); rank 0, on the other worker, waits until it
            // is parked and notifies it.
            let sched = Sched::new(2, 2, STACK);
            let body = |rank: Rank| {
                if rank == 1 {
                    let epoch = sched.pre_wait(1);
                    sched.park(1, epoch, 0.0, None)
                } else {
                    while !sched.lock().asleep[1] {
                        std::thread::yield_now();
                    }
                    sched.notify(1);
                    ParkOutcome::Granted
                }
            };
            let results: Vec<Vec<ParkOutcome>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|w| {
                        let (sched, body) = (&sched, &body);
                        s.spawn(move || sched.run_worker(w, body))
                    })
                    .collect();
                workers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(results, [[ParkOutcome::Granted], [ParkOutcome::Granted]]);
            assert!(!sched.stalled(), "rank 0 was running: no stall");
        }
    }
}
