//! World setup and execution: build the per-rank tasks, run the rank
//! program on the configured scheduler, and report.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{FaultPlan, FaultStats, InjectedCrash};
use crate::mailbox::Mailbox;
use crate::proc::{Proc, Rank, Shared};
use crate::sched::{SchedMode, Waiter};
use crate::time::{CostModel, VirtualTime};

/// Configuration of a simulated MPI world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Communication cost model for virtual time.
    pub cost: CostModel,
    /// Stack size of one rank program.
    ///
    /// Under the event scheduler ([`SchedMode::Events`]) every rank runs
    /// on its own mapping of this size above a guard page — address space
    /// that is backed only where the rank touches it, so even P=16384
    /// worlds fit comfortably. A rank that outgrows it dies on the guard
    /// page (the process gets `SIGSEGV`). Under [`SchedMode::Threads`] it
    /// is the rank thread's stack size.
    pub stack_bytes: usize,
    /// Optional deterministic fault plan. `None` (the default) keeps every
    /// fault hook on its zero-cost path — fault-free runs are bit-identical
    /// to a build without the fault layer.
    pub faults: Option<FaultPlan>,
    /// Arm the flight recorder: every rank buffers typed [`obs`] events and
    /// the report carries the gathered [`obs::RunJournal`]. Off by default;
    /// disabled recording costs one `None` check per emission site, and the
    /// recorder is passive (no messages, no clock movement), so arming it
    /// changes no simulated behavior.
    pub record: bool,
    /// Which scheduler runs the ranks. [`SchedMode::Events`] (the
    /// default) multiplexes rank tasks on the thread that calls
    /// [`World::run`], with event wakeups; [`SchedMode::Threads`] is the
    /// pre-refactor free-running oracle kept for differential testing.
    /// Every simulation-visible output is byte-identical between the two
    /// (`tests/sched_differential.rs`).
    pub sched: SchedMode,
}

impl WorldConfig {
    /// Default configuration for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        WorldConfig {
            ranks,
            cost: CostModel::default(),
            stack_bytes: 256 * 1024,
            faults: None,
            record: false,
            sched: SchedMode::default(),
        }
    }

    /// Override the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Run the event scheduler on one thread — which it always does.
    /// Kept only because the benchmark harness still calls it with `1`.
    ///
    /// Panics for any other `n`: there is no worker pool to size.
    pub fn with_workers(self, n: usize) -> Self {
        assert_eq!(n, 1, "the event scheduler runs every rank on one thread");
        self
    }

    /// Run this world on the pre-refactor free-running thread scheduler
    /// (the differential-testing oracle; see [`SchedMode::Threads`]).
    pub fn with_thread_scheduler(mut self) -> Self {
        self.sched = SchedMode::Threads;
        self
    }

    /// Arm a fault plan. Run such a world with [`World::run_faulty`] so an
    /// injected crash shrinks the world instead of failing the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arm the flight recorder (see [`WorldConfig::record`]).
    pub fn with_recorder(mut self) -> Self {
        self.record = true;
        self
    }
}

/// Result of running a world to completion.
#[derive(Debug, Clone)]
pub struct WorldReport<R = ()> {
    /// Number of ranks that ran.
    pub ranks: usize,
    /// Final virtual time of each rank.
    pub rank_vtimes: Vec<VirtualTime>,
    /// Maximum final virtual time across ranks — the simulated
    /// "application execution time".
    pub max_vtime: VirtualTime,
    /// Real wall-clock duration of the run, from the first rank's start
    /// to the last one's end.
    pub wall: Duration,
    /// Per-rank return values of the rank program, in rank order.
    pub results: Vec<R>,
    /// Per-rank fault counters (all zeros when no plan was armed).
    pub fault_stats: Vec<FaultStats>,
    /// The gathered flight-recorder journal, present iff
    /// [`WorldConfig::record`] was set.
    pub journal: Option<obs::RunJournal>,
}

/// Result of a fault-tolerant run ([`World::run_faulty`]): injected
/// crashes shrink the result set instead of failing the world.
#[derive(Debug, Clone)]
pub struct FaultyWorldReport<R = ()> {
    /// Number of ranks that started.
    pub ranks: usize,
    /// Final virtual time of each rank (a crashed rank's clock stops at
    /// its death).
    pub rank_vtimes: Vec<VirtualTime>,
    /// Maximum final virtual time across ranks.
    pub max_vtime: VirtualTime,
    /// Real wall-clock duration of the run.
    pub wall: Duration,
    /// Per-rank return values; `None` for ranks killed by the plan.
    pub results: Vec<Option<R>>,
    /// Ranks killed by the plan's crash fault, ascending.
    pub crashed: Vec<Rank>,
    /// Per-rank fault counters.
    pub fault_stats: Vec<FaultStats>,
    /// The gathered flight-recorder journal, present iff
    /// [`WorldConfig::record`] was set. A crashed rank's log ends at its
    /// `crash` event.
    pub journal: Option<obs::RunJournal>,
}

/// Error from a world run: at least one rank panicked.
#[derive(Debug)]
pub struct WorldError {
    /// Ranks that panicked, with the panic payloads rendered to strings.
    pub failures: Vec<(usize, String)>,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) panicked:", self.failures.len())?;
        for (rank, msg) in &self.failures {
            write!(f, " [rank {rank}: {msg}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldError {}

/// A simulated MPI world: P rank tasks on the configured scheduler.
pub struct World {
    config: WorldConfig,
}

impl World {
    /// Create a world with the given configuration.
    ///
    /// Panics if `ranks == 0`.
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.ranks >= 1, "world needs at least one rank");
        World { config }
    }

    /// Run `program` on every rank and return once all have finished.
    ///
    /// Under [`SchedMode::Events`] every rank runs on the calling thread,
    /// each on its own stack, and no thread is spawned; the thread oracle
    /// spawns one thread per rank and joins them all. The program receives
    /// the rank's [`Proc`] handle; its return values are collected in rank
    /// order. If any rank panics — including a plan-injected crash — the
    /// world is poisoned (blocked receives abort), every rank still runs
    /// to its end, and an error listing the failures is returned. Worlds
    /// that should *survive* injected crashes go through
    /// [`World::run_faulty`] instead.
    pub fn run<R, F>(self, program: F) -> Result<WorldReport<R>, WorldError>
    where
        R: Send + 'static,
        F: Fn(&mut Proc) -> R + Send + Sync + 'static,
    {
        let (exits, vtimes, fstats, journal, wall) = self.run_inner(false, program);
        let p = exits.len();
        let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
        let mut failures = Vec::new();
        for (rank, exit) in exits.into_iter().enumerate() {
            match exit {
                RankExit::Ok(r) => results[rank] = Some(r),
                RankExit::Crashed(c) => failures.push((rank, c.to_string())),
                RankExit::Panicked(msg) => failures.push((rank, msg)),
            }
        }
        if !failures.is_empty() {
            return Err(WorldError { failures });
        }
        let max_vtime = vtimes.iter().cloned().fold(0.0, f64::max);
        Ok(WorldReport {
            ranks: p,
            rank_vtimes: vtimes,
            max_vtime,
            wall,
            results: results
                .into_iter()
                .map(|r| r.expect("no failure but missing result"))
                .collect(),
            fault_stats: fstats,
            journal,
        })
    }

    /// Run `program` tolerating plan-injected crashes: a killed rank
    /// yields `None` in `results` and an entry in `crashed`, while the
    /// surviving ranks keep running (the world is *not* poisoned for an
    /// injected crash). Genuine panics still poison and fail the run.
    pub fn run_faulty<R, F>(self, program: F) -> Result<FaultyWorldReport<R>, WorldError>
    where
        R: Send + 'static,
        F: Fn(&mut Proc) -> R + Send + Sync + 'static,
    {
        let (exits, vtimes, fstats, journal, wall) = self.run_inner(true, program);
        let p = exits.len();
        let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
        let mut crashed = Vec::new();
        let mut failures = Vec::new();
        for (rank, exit) in exits.into_iter().enumerate() {
            match exit {
                RankExit::Ok(r) => results[rank] = Some(r),
                RankExit::Crashed(_) => crashed.push(rank),
                RankExit::Panicked(msg) => failures.push((rank, msg)),
            }
        }
        if !failures.is_empty() {
            return Err(WorldError { failures });
        }
        let max_vtime = vtimes.iter().cloned().fold(0.0, f64::max);
        Ok(FaultyWorldReport {
            ranks: p,
            rank_vtimes: vtimes,
            max_vtime,
            wall,
            results,
            crashed,
            fault_stats: fstats,
            journal,
        })
    }

    /// Run all ranks to their end. `tolerant` controls whether a
    /// plan-injected crash poisons the world (it never does for tolerant
    /// runs — survivors are expected to shrink and continue).
    #[allow(clippy::type_complexity)]
    fn run_inner<R, F>(
        self,
        tolerant: bool,
        program: F,
    ) -> (
        Vec<RankExit<R>>,
        Vec<VirtualTime>,
        Vec<FaultStats>,
        Option<obs::RunJournal>,
        Duration,
    )
    where
        R: Send + 'static,
        F: Fn(&mut Proc) -> R + Send + Sync + 'static,
    {
        let p = self.config.ranks;
        let record = self.config.record;
        let armed = self.config.faults.is_some();
        let stack_bytes = self.config.stack_bytes;
        let waiter = Waiter::new(self.config.sched, p, stack_bytes);
        let shared = Arc::new(Shared {
            mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
            cost: self.config.cost,
            size: p,
            poisoned: AtomicBool::new(false),
            faults: self.config.faults,
            dead: (0..p).map(|_| AtomicBool::new(false)).collect(),
            waiter,
        });
        let started = Instant::now();

        // One rank's whole life, on whatever stack its engine gives it.
        // `catch_unwind` sits here, at the rank's entry, on both engines:
        // crashes, timeouts and genuine panics all end as a `RankExit`.
        let rank_main = |rank: Rank| -> RankEnd<R> {
            let recorder = if record {
                obs::Recorder::enabled(rank)
            } else {
                obs::Recorder::disabled()
            };
            let mut proc = Proc::new(rank, Arc::clone(&shared), recorder);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| program(&mut proc)));
            // Read clock, fault tallies, and the flight log after the
            // unwind: all three stay meaningful for a crashed rank (its log
            // ends at the crash event).
            let vtime = proc.now();
            let fstats = proc.fault_stats();
            let obs_log = proc.take_obs_log();
            let exit = match outcome {
                Ok(r) => RankExit::Ok(r),
                Err(payload) => match payload.downcast::<InjectedCrash>() {
                    Ok(crash) if tolerant => RankExit::Crashed(*crash),
                    Ok(crash) => {
                        shared.poisoned.store(true, Ordering::SeqCst);
                        shared.waiter.notify_all();
                        RankExit::Crashed(*crash)
                    }
                    Err(payload) => {
                        shared.poisoned.store(true, Ordering::SeqCst);
                        shared.waiter.notify_all();
                        RankExit::Panicked(panic_message(payload))
                    }
                },
            };
            (exit, vtime, fstats, obs_log)
        };

        let ends: Vec<RankEnd<R>> = match &shared.waiter {
            // Every rank on this thread, each on its own stack.
            Waiter::Events(sched) => sched.run(&rank_main),
            // The oracle: one free-running thread per rank.
            Waiter::Threads => std::thread::scope(|scope| {
                let threads: Vec<_> = (0..p)
                    .map(|rank| {
                        let rank_main = &rank_main;
                        std::thread::Builder::new()
                            .name(format!("mpisim-rank-{rank}"))
                            .stack_size(stack_bytes)
                            .spawn_scoped(scope, move || rank_main(rank))
                            .expect("failed to spawn rank thread")
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|thread| {
                        // The thread died outside `catch_unwind` (e.g. a
                        // panic while panicking); report what we can.
                        thread.join().unwrap_or_else(|payload| {
                            let exit = RankExit::Panicked(panic_message(payload));
                            (exit, 0.0, FaultStats::default(), None)
                        })
                    })
                    .collect()
            }),
        };

        let mut exits = Vec::with_capacity(p);
        let mut vtimes = Vec::with_capacity(p);
        let mut fstats = Vec::with_capacity(p);
        let mut obs_logs = Vec::new();
        for (exit, vtime, fs, log) in ends {
            exits.push(exit);
            vtimes.push(vtime);
            fstats.push(fs);
            obs_logs.extend(log);
        }
        let journal = record.then(|| obs::RunJournal::gather(p, armed, obs_logs));
        (exits, vtimes, fstats, journal, started.elapsed())
    }
}

/// What one rank hands back when it ends: how, its final virtual time, its
/// fault tallies and its flight log.
type RankEnd<R> = (RankExit<R>, VirtualTime, FaultStats, Option<obs::RankLog>);

/// How one rank's program ended.
enum RankExit<R> {
    /// Normal completion.
    Ok(R),
    /// Killed by the fault plan's crash fault.
    Crashed(InjectedCrash),
    /// A genuine panic (bug or poison abort).
    Panicked(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        c.to_string()
    } else if let Some(e) = payload.downcast_ref::<crate::reliable::ProtocolError>() {
        e.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::proc::{SrcSel, TagSel};
    use crate::Comm;

    #[test]
    #[should_panic(expected = "every rank on one thread")]
    fn with_workers_accepts_only_one() {
        let _ = WorldConfig::new(2).with_workers(1).with_workers(2);
    }

    #[test]
    fn tool_compute_charges_the_summed_work_on_the_tool_clock_only() {
        let work = [
            crate::Work::Codec { bytes: 300 },
            crate::Work::AlignWorstCase { n: 7, m: 11 },
        ];
        let report = World::new(WorldConfig::new(1))
            .run(move |proc| (proc.tool_compute(&work), proc.tool_time(), proc.now()))
            .unwrap();
        let (charged, tool, app) = report.results[0];
        assert_eq!(charged, work[0].seconds() + work[1].seconds());
        assert_eq!(tool, charged, "one advance by exactly the charge");
        assert_eq!(app, 0.0, "tool work never moves the application clock");
    }

    #[test]
    fn single_rank_world() {
        let report = World::new(WorldConfig::new(1))
            .run(|proc| proc.rank())
            .unwrap();
        assert_eq!(report.results, vec![0]);
    }

    #[test]
    fn results_in_rank_order() {
        let report = World::new(WorldConfig::new(8))
            .run(|proc| proc.rank() * 10)
            .unwrap();
        assert_eq!(report.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its rank to the right neighbor and receives from
        // the left one.
        let report = World::new(WorldConfig::new(5))
            .run(|proc| {
                let p = proc.size();
                let me = proc.rank();
                let right = (me + 1) % p;
                let left = (me + p - 1) % p;
                proc.send_u64(right, 1, Comm::WORLD, me as u64);
                let (src, val) = proc.recv_u64(SrcSel::Rank(left), TagSel::Tag(1), Comm::WORLD);
                assert_eq!(src, left);
                val
            })
            .unwrap();
        assert_eq!(report.results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn barrier_all_sizes() {
        for p in [1, 2, 3, 4, 5, 7, 8, 16, 33] {
            World::new(WorldConfig::new(p))
                .run(|proc| {
                    for _ in 0..3 {
                        proc.barrier(Comm::WORLD);
                    }
                })
                .unwrap_or_else(|e| panic!("barrier failed for p={p}: {e}"));
        }
    }

    #[test]
    fn reduce_sum_all_sizes_and_roots() {
        for p in [1usize, 2, 3, 5, 8, 13, 16] {
            for root in [0, p / 2, p - 1] {
                let expect: u64 = (0..p as u64).sum();
                World::new(WorldConfig::new(p))
                    .run(move |proc| {
                        let out =
                            proc.reduce_u64(proc.rank() as u64, ReduceOp::Sum, root, Comm::WORLD);
                        if proc.rank() == root {
                            assert_eq!(out, Some(expect), "p={p} root={root}");
                        } else {
                            assert_eq!(out, None);
                        }
                    })
                    .unwrap();
            }
        }
    }

    #[test]
    fn reduce_max_min() {
        World::new(WorldConfig::new(9))
            .run(|proc| {
                let v = proc.rank() as u64 * 7 % 5; // some non-monotone values
                let mx = proc.allreduce_u64(v, ReduceOp::Max, Comm::WORLD);
                let mn = proc.allreduce_u64(v, ReduceOp::Min, Comm::WORLD);
                let all: Vec<u64> = (0..9u64).map(|r| r * 7 % 5).collect();
                assert_eq!(mx, *all.iter().max().unwrap());
                assert_eq!(mn, *all.iter().min().unwrap());
            })
            .unwrap();
    }

    #[test]
    fn bcast_all_sizes_and_roots() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, p - 1] {
                World::new(WorldConfig::new(p))
                    .run(move |proc| {
                        let payload = if proc.rank() == root {
                            vec![0xab; 37]
                        } else {
                            vec![]
                        };
                        let out = proc.bcast(&payload, root, Comm::WORLD);
                        assert_eq!(out, vec![0xab; 37], "p={p} root={root}");
                    })
                    .unwrap();
            }
        }
    }

    #[test]
    fn gather_collects_all() {
        for p in [1usize, 2, 3, 6, 11] {
            World::new(WorldConfig::new(p))
                .run(move |proc| {
                    let mine = vec![proc.rank() as u8; proc.rank() + 1];
                    let out = proc.gather(&mine, 0, Comm::WORLD);
                    if proc.rank() == 0 {
                        let v = out.expect("root gets data");
                        for (r, data) in v.iter().enumerate() {
                            assert_eq!(data, &vec![r as u8; r + 1], "p={p}");
                        }
                    } else {
                        assert!(out.is_none());
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn allreduce_sum_convenience() {
        let report = World::new(WorldConfig::new(16))
            .run(|proc| proc.allreduce_sum(1))
            .unwrap();
        assert!(report.results.iter().all(|&r| r == 16));
    }

    #[test]
    fn virtual_time_advances_with_compute() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                proc.compute(1.0);
                proc.barrier(Comm::WORLD);
                proc.now()
            })
            .unwrap();
        assert!(report.max_vtime >= 1.0);
        assert!(report.results.iter().all(|&t| t >= 1.0));
    }

    #[test]
    fn recv_synchronizes_clocks() {
        // Rank 0 computes for 5 virtual seconds then sends; rank 1 receives
        // immediately. Rank 1's clock must advance past 5.0.
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                if proc.rank() == 0 {
                    proc.compute(5.0);
                    proc.send(1, 0, Comm::WORLD, &[1]);
                } else {
                    proc.recv(SrcSel::Rank(0), TagSel::Tag(0), Comm::WORLD);
                }
                proc.now()
            })
            .unwrap();
        assert!(
            report.results[1] > 5.0,
            "receiver clock must sync to sender"
        );
    }

    #[test]
    fn panic_in_one_rank_reported_not_deadlocked() {
        let err = World::new(WorldConfig::new(3))
            .run(|proc| {
                if proc.rank() == 1 {
                    panic!("injected failure");
                }
                // Ranks 0 and 2 block forever waiting for rank 1; the
                // poison mechanism must unblock them.
                proc.recv(SrcSel::Rank(1), TagSel::Tag(9), Comm::WORLD);
            })
            .unwrap_err();
        assert!(err
            .failures
            .iter()
            .any(|(r, m)| *r == 1 && m.contains("injected")));
        // The blocked ranks fail with the poison message rather than hanging.
        assert_eq!(err.failures.len(), 3);
    }

    #[test]
    fn stats_count_messages() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                if proc.rank() == 0 {
                    proc.send(1, 0, Comm::WORLD, &[0; 100]);
                } else {
                    proc.recv(SrcSel::Rank(0), TagSel::Tag(0), Comm::WORLD);
                }
                proc.stats()
            })
            .unwrap();
        assert_eq!(report.results[0].msgs_sent, 1);
        assert_eq!(report.results[0].bytes_sent, 100);
        assert_eq!(report.results[1].msgs_recvd, 1);
        assert_eq!(report.results[1].bytes_recvd, 100);
    }

    #[test]
    fn sendrecv_head_on_exchange() {
        // Classic stencil exchange: both partners sendrecv each other.
        World::new(WorldConfig::new(2))
            .run(|proc| {
                let peer = 1 - proc.rank();
                let info = proc.sendrecv(
                    peer,
                    7,
                    proc.rank() + 1,
                    SrcSel::Rank(peer),
                    TagSel::Tag(7),
                    Comm::WORLD,
                );
                assert_eq!((info.src, info.payload.len()), (peer, peer + 1));
            })
            .unwrap();
    }

    #[test]
    fn injected_crash_shrinks_run_faulty() {
        // Each rank self-sends 10 messages on the tool plane; rank 2 is
        // scheduled to die partway through.
        let plan = FaultPlan::new(1).crash_rank(2, 5);
        let report = World::new(WorldConfig::new(4).with_faults(plan))
            .run_faulty(|proc| {
                let me = proc.rank();
                for i in 0..10u32 {
                    proc.send(me, i, Comm::TOOL, &[i as u8]);
                    proc.recv(SrcSel::Rank(me), TagSel::Tag(i), Comm::TOOL);
                }
                me
            })
            .unwrap();
        assert_eq!(report.crashed, vec![2]);
        assert!(report.results[2].is_none());
        assert!(report.fault_stats[2].crashed);
        for r in [0, 1, 3] {
            assert_eq!(report.results[r], Some(r));
            assert!(!report.fault_stats[r].crashed);
        }
    }

    #[test]
    fn injected_crash_fails_plain_run() {
        // `run` (intolerant) treats a scheduled crash like any panic.
        let plan = FaultPlan::new(1).crash_rank(1, 0);
        let err = World::new(WorldConfig::new(2).with_faults(plan))
            .run(|proc| {
                proc.send(proc.rank(), 0, Comm::TOOL, &[]);
            })
            .unwrap_err();
        assert!(err
            .failures
            .iter()
            .any(|(r, m)| *r == 1 && m.contains("injected crash")));
    }

    #[test]
    fn death_detection_prefers_delivered_messages() {
        // Rank 1 sends once (op 0) and dies attempting its second send
        // (op 1). Rank 0 must always receive the first message and always
        // observe death for the second — message-vs-death is decided by
        // the dead rank's program position, not scheduling.
        for _ in 0..20 {
            let plan = FaultPlan::new(0).crash_rank(1, 1);
            let report = World::new(WorldConfig::new(2).with_faults(plan))
                .run_faulty(|proc| {
                    if proc.rank() == 1 {
                        proc.send(0, 5, Comm::TOOL, b"first");
                        proc.send(0, 6, Comm::TOOL, b"second");
                        (false, false)
                    } else {
                        let first = proc.recv_or_dead(1, 5, Comm::TOOL).is_some();
                        let second = proc.recv_or_dead(1, 6, Comm::TOOL).is_some();
                        (first, second)
                    }
                })
                .unwrap();
            assert_eq!(report.results[0], Some((true, false)));
            assert_eq!(report.crashed, vec![1]);
        }
    }

    /// What [`length_sends_are_byte_sends_to_the_model`] compares of one
    /// rank: its stats, every received length, and the bytes of every
    /// tool-plane message it received.
    type Observed = (crate::proc::ProcStats, Vec<usize>, Vec<Vec<u8>>);

    /// One program over every length entry point, run with zero-filled
    /// byte bodies (`lengths == false`) or with lengths only.
    fn zeros_or_lengths(lengths: bool, faults: Option<FaultPlan>) -> FaultyWorldReport<Observed> {
        let mut config = WorldConfig::new(5);
        if let Some(plan) = faults {
            config = config.with_faults(plan);
        }
        World::new(config)
            .run_faulty(move |proc| {
                let (me, p) = (proc.rank(), proc.size());
                let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
                let mut lens = Vec::new();
                let mut tool = Vec::new();
                for round in 0..4u32 {
                    proc.compute(1e-5 * (me + 1) as f64);
                    let len = 1000 * (me + 1) + 77 * round as usize;
                    if lengths {
                        proc.send_len(next, round, Comm::WORLD, len);
                    } else {
                        proc.send(next, round, Comm::WORLD, &vec![0; len]);
                    }
                    let info = proc.recv(SrcSel::Rank(prev), TagSel::Tag(round), Comm::WORLD);
                    lens.push(info.payload.len());
                    // `sendrecv` is the length send then the receive.
                    let info = if lengths {
                        proc.sendrecv(
                            prev,
                            9,
                            len / 2,
                            SrcSel::Rank(next),
                            TagSel::Tag(9),
                            Comm::WORLD,
                        )
                    } else {
                        proc.send(prev, 9, Comm::WORLD, &vec![0; len / 2]);
                        proc.recv(SrcSel::Rank(next), TagSel::Tag(9), Comm::WORLD)
                    };
                    lens.push(info.payload.len());
                    // Faultable tool-plane traffic: corrupt and delay coins.
                    if lengths {
                        proc.send_len(next, 5, Comm::TOOL, 64);
                    } else {
                        proc.send(next, 5, Comm::TOOL, &[0; 64]);
                    }
                    let info = proc.recv(SrcSel::Rank(prev), TagSel::Tag(5), Comm::TOOL);
                    tool.push(info.payload.into_vec());
                }
                if lengths {
                    proc.bcast_len(4096, 1, Comm::WORLD);
                    proc.gather_len(300 + me, 2, Comm::WORLD);
                } else {
                    proc.bcast(&vec![0; 4096], 1, Comm::WORLD);
                    proc.gather(&vec![0; 300 + me], 2, Comm::WORLD);
                }
                proc.barrier(Comm::WORLD);
                (proc.stats(), lens, tool)
            })
            .unwrap()
    }

    #[test]
    fn length_sends_are_byte_sends_to_the_model() {
        let armed = FaultPlan::new(7).corrupt_per_mille(500).delay(300, 1e-3);
        for faults in [None, Some(armed)] {
            let bytes = zeros_or_lengths(false, faults.clone());
            let lens = zeros_or_lengths(true, faults.clone());
            let bits = |v: &[VirtualTime]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(lens.max_vtime.to_bits(), bytes.max_vtime.to_bits());
            assert_eq!(bits(&lens.rank_vtimes), bits(&bytes.rank_vtimes));
            assert_eq!(lens.results, bytes.results, "stats, lengths, tool bytes");
            assert_eq!(lens.fault_stats, bytes.fault_stats);
            if faults.is_some() {
                let corrupted: u64 = lens.fault_stats.iter().map(|f| f.corruptions).sum();
                assert!(corrupted > 0, "the armed plan flipped no byte");
            }
        }
    }

    #[test]
    fn tool_plane_corrupt_flips_one_byte_of_a_byte_payload() {
        let plan = FaultPlan::new(3).corrupt_per_mille(1000);
        let sent: Vec<u8> = (0..64).collect();
        let expect = sent.clone();
        let report = World::new(WorldConfig::new(2).with_faults(plan))
            .run_faulty(move |proc| {
                if proc.rank() == 0 {
                    proc.send(1, 3, Comm::TOOL, &sent);
                    None
                } else {
                    Some(
                        proc.recv(SrcSel::Rank(0), TagSel::Tag(3), Comm::TOOL)
                            .payload,
                    )
                }
            })
            .unwrap();
        let got = report.results[1]
            .clone()
            .flatten()
            .expect("rank 1 received");
        assert!(matches!(got, crate::Payload::Bytes(_)));
        let got = got.into_vec();
        assert_eq!(got.len(), expect.len());
        let flipped = got.iter().zip(&expect).filter(|(a, b)| a != b).count();
        assert_eq!(flipped, 1, "exactly one byte flipped");
        assert_eq!(report.fault_stats[0].corruptions, 1);
    }

    #[test]
    fn reliable_transfer_survives_lossy_link() {
        let plan = FaultPlan::new(0xBEEF)
            .drop_per_mille(300)
            .corrupt_per_mille(300)
            .duplicate_per_mille(200)
            .delay(100, 0.1);
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let report = World::new(WorldConfig::new(2).with_faults(plan))
            .run_faulty(move |proc| {
                if proc.rank() == 0 {
                    for _ in 0..20 {
                        let got = proc
                            .reliable_recv(
                                1,
                                7,
                                Comm::TOOL,
                                crate::reliable::RetryPolicy::Unlimited,
                            )
                            .unwrap();
                        assert_eq!(got, expect);
                    }
                } else {
                    for _ in 0..20 {
                        proc.reliable_send(0, 7, Comm::TOOL, &payload).unwrap();
                    }
                }
            })
            .unwrap();
        let s = report.fault_stats[1];
        assert!(
            s.drops + s.corruptions + s.duplicates > 0,
            "a 30%/30%/20% plan must actually injure 20 transfers: {s:?}"
        );
        assert!(
            s.drops == 0 || s.retransmits > 0,
            "every observed drop must be retransmitted"
        );
    }

    #[test]
    fn reliable_recv_degrades_after_retry_budget() {
        // Every frame corrupt: the receiver re-requests once, then gives
        // up with a typed error; neither side panics or hangs.
        let plan = FaultPlan::new(42).corrupt_per_mille(1000);
        let report = World::new(WorldConfig::new(2).with_faults(plan))
            .run_faulty(|proc| {
                if proc.rank() == 0 {
                    proc.reliable_recv(1, 9, Comm::TOOL, crate::reliable::RetryPolicy::Bounded(1))
                        .is_err()
                } else {
                    proc.reliable_send(0, 9, Comm::TOOL, b"doomed payload")
                        .is_err()
                }
            })
            .unwrap();
        assert_eq!(report.results, vec![Some(true), Some(true)]);
        assert_eq!(report.fault_stats[0].nacks_sent, 1);
    }

    #[test]
    fn resilient_allreduce_excludes_dead_rank() {
        let plan = FaultPlan::new(3).crash_rank(2, 0);
        let report = World::new(WorldConfig::new(4).with_faults(plan))
            .run_faulty(|proc| {
                proc.resilient_allreduce_u64((proc.rank() + 1) as u64, ReduceOp::Sum, Comm::TOOL)
            })
            .unwrap();
        for r in [0, 1, 3] {
            let (sum, alive) = report.results[r].clone().unwrap();
            assert_eq!(sum, 1 + 2 + 4, "rank 2's contribution must be absent");
            assert_eq!(alive, vec![0, 1, 3]);
        }
        assert_eq!(report.crashed, vec![2]);
    }

    #[test]
    fn unarmed_world_reports_zero_fault_stats() {
        let report = World::new(WorldConfig::new(3))
            .run(|proc| proc.allreduce_sum(1))
            .unwrap();
        assert!(report
            .fault_stats
            .iter()
            .all(|s| *s == FaultStats::default()));
    }

    #[test]
    fn unrecorded_world_has_no_journal() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| proc.allreduce_sum(1))
            .unwrap();
        assert!(report.journal.is_none(), "recorder off => zero output");
    }

    #[test]
    fn recorder_gathers_a_journal_with_crash_and_fault_events() {
        let plan = FaultPlan::new(1).crash_rank(2, 5).corrupt_per_mille(1000);
        let report = World::new(WorldConfig::new(4).with_faults(plan).with_recorder())
            .run_faulty(|proc| {
                let me = proc.rank();
                for i in 0..10u32 {
                    proc.send(me, i, Comm::TOOL, &[i as u8]);
                    proc.recv(SrcSel::Rank(me), TagSel::Tag(i), Comm::TOOL);
                }
                me
            })
            .unwrap();
        let j = report.journal.expect("recorder armed");
        assert!(j.armed);
        assert_eq!(j.ranks, 4);
        assert_eq!(j.logs.len(), 4);
        // Exactly the planned crash, attributed to the right rank and op,
        // survives the unwind into the gathered journal.
        let crashes: Vec<(usize, u64)> = j
            .events()
            .filter_map(|(rank, e)| match e.kind {
                obs::EventKind::Crash { op } => Some((rank, op)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(2, 5)]);
        // The 100% corruption plan fires on the (faultable) self-sends.
        assert!(j.count("fault") > 0, "corruption events recorded");
    }

    #[test]
    fn recorder_does_not_perturb_virtual_times() {
        let run_once = |record: bool| {
            let cfg = if record {
                WorldConfig::new(3).with_recorder()
            } else {
                WorldConfig::new(3)
            };
            World::new(cfg)
                .run(|proc| {
                    proc.compute(0.5);
                    proc.allreduce_sum(proc.rank() as u64)
                })
                .unwrap()
        };
        let bare = run_once(false);
        let recorded = run_once(true);
        assert_eq!(bare.rank_vtimes, recorded.rank_vtimes);
        assert_eq!(bare.results, recorded.results);
    }

    #[test]
    fn moderately_large_world() {
        // Smoke-test the scheduler at a P beyond toy sizes.
        let report = World::new(WorldConfig::new(128))
            .run(|proc| proc.allreduce_sum(proc.rank() as u64))
            .unwrap();
        let expect: u64 = (0..128).sum();
        assert!(report.results.iter().all(|&r| r == expect));
    }
}
