//! What only the switched-stack engine has to prove: that a rank really is
//! a stack and not a thread, that a world hands the process back
//! unchanged, that every way a rank can die — injected crash, armed
//! timeout at a stall, genuine panic, stack overflow — looks from outside
//! exactly as it did when a rank was an OS thread, and that a bounded wait
//! ends at a proven stall, never on wall time.
//!
//! x86-64 Linux only: elsewhere `SchedMode::Events` runs on the thread
//! engine and there is no switched stack to test.
//!
//! Two checks need a process to themselves (thread and mapping counts move
//! while sibling tests run; a stack overflow kills the process), so each
//! re-runs this test binary filtered to one `*_child` test with `CHILD_ENV`
//! set. Without it the `*_child` tests pass without doing anything.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::collections::HashSet;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output};
use std::thread::ThreadId;

use chameleon_repro::mpisim::collectives::ReduceOp;
use chameleon_repro::mpisim::{Comm, FaultPlan, SrcSel, TagSel, World, WorldConfig};

const CHILD_ENV: &str = "SCHED_STACKS_CHILD";

fn is_child() -> bool {
    std::env::var_os(CHILD_ENV).is_some()
}

/// Re-run this binary with only `test` selected and the child switch on.
fn run_child(test: &str) -> Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args([test, "--exact", "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn child test process")
}

// ---------------------------------------------------------------------------
// A rank is a stack, not a thread
// ---------------------------------------------------------------------------

/// Every rank's OS thread id at five points with a block between each.
fn thread_ids_at_block_points(config: WorldConfig) -> Vec<Vec<ThreadId>> {
    World::new(config)
        .run(|proc| {
            let id = || std::thread::current().id();
            let (me, p) = (proc.rank(), proc.size());
            let mut seen = vec![id()];
            proc.barrier(Comm::WORLD);
            seen.push(id());
            proc.allreduce_u64(me as u64, ReduceOp::Sum, Comm::WORLD);
            seen.push(id());
            proc.send_u64((me + 1) % p, 3, Comm::WORLD, me as u64);
            proc.recv_u64(SrcSel::Rank((me + p - 1) % p), TagSel::Tag(3), Comm::WORLD);
            seen.push(id());
            proc.barrier(Comm::WORLD);
            seen.push(id());
            seen
        })
        .unwrap()
        .results
}

#[test]
fn event_mode_has_no_thread_per_rank() {
    let p = 64;
    let caller = std::thread::current().id();
    let seen = thread_ids_at_block_points(WorldConfig::new(p));
    for (rank, ids) in seen.iter().enumerate() {
        assert!(
            ids.iter().all(|id| *id == caller),
            "rank {rank} ran off the thread that called run: {ids:?} vs {caller:?}"
        );
    }
    // The oracle still spends a thread per rank (so the count above is
    // a property of the engine, not of the probe).
    let seen = thread_ids_at_block_points(WorldConfig::new(p).with_thread_scheduler());
    let distinct = seen.iter().flatten().collect::<HashSet<_>>().len();
    assert_eq!(distinct, p);
}

/// Rank stacks of at least `stack_bytes` in `/proc/self/maps`: a 4 KiB
/// `---p` guard page directly below an `rw-p` region of that size or
/// more (the kernel may merge a stack with a writable neighbour above
/// it, e.g. a malloc arena, so the region can be longer than the stack).
fn stack_mappings(stack_bytes: usize) -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let regions: Vec<(usize, usize, &str)> = maps
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let (lo, hi) = fields.next().unwrap().split_once('-').unwrap();
            let addr = |s| usize::from_str_radix(s, 16).unwrap();
            (addr(lo), addr(hi), fields.next().unwrap())
        })
        .collect();
    regions
        .windows(2)
        .filter(|w| {
            let ((glo, ghi, gperm), (slo, shi, sperm)) = (w[0], w[1]);
            let guard = gperm == "---p" && ghi - glo == 4096;
            guard && slo == ghi && sperm == "rw-p" && shi - slo >= stack_bytes
        })
        .count()
}

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// [`os_threads`], once it reads `expect` or after a second of trying: a
/// joined thread lingers in `/proc` until the kernel has reaped it.
fn os_threads_settled(expect: usize) -> usize {
    for _ in 0..200 {
        if os_threads() == expect {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    os_threads()
}

#[test]
fn run_hands_back_an_unchanged_process_child() {
    if !is_child() {
        return;
    }
    // Larger than any thread stack in the process (2 MiB each, also above
    // a guard page), so only rank stacks are counted. Address space only:
    // a rank touches a few pages of it.
    let stack_bytes = 4 << 20;
    let p = 64;
    let before = (os_threads(), stack_mappings(stack_bytes));
    assert_eq!(before.1, 0, "no rank stack before the world runs");
    let mut config = WorldConfig::new(p);
    config.stack_bytes = stack_bytes;
    let during = World::new(config)
        .run(move |proc| {
            proc.barrier(Comm::WORLD);
            let seen = (os_threads(), stack_mappings(stack_bytes));
            proc.barrier(Comm::WORLD);
            seen
        })
        .unwrap()
        .results;
    for seen in during {
        assert_eq!(
            seen,
            (before.0, p),
            "a running world is no new thread and one stack per rank"
        );
    }
    assert_eq!(
        (os_threads_settled(before.0), stack_mappings(stack_bytes)),
        before,
        "run() left a thread or a mapping behind"
    );
}

#[test]
fn run_hands_back_an_unchanged_process() {
    let out = run_child("run_hands_back_an_unchanged_process_child");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// Dying on a switched stack
// ---------------------------------------------------------------------------

#[test]
fn non_tolerant_crash_poisons_and_every_parked_rank_unwinds() {
    // Everyone waits on rank 3, which dies at its second operation.
    let p = 8;
    let plan = FaultPlan::new(7).crash_rank(3, 1);
    let err = World::new(WorldConfig::new(p).with_faults(plan))
        .run(|proc| {
            if proc.rank() == 3 {
                proc.recv_u64(SrcSel::Rank(0), TagSel::Tag(2), Comm::WORLD); // op 0
                proc.send_u64(3, 1, Comm::TOOL, 1); // op 1: the crash
                unreachable!("rank 3 is killed by the plan");
            }
            if proc.rank() == 0 {
                proc.send_u64(3, 2, Comm::WORLD, 0);
            }
            proc.recv_u64(SrcSel::Rank(3), TagSel::Tag(9), Comm::WORLD);
        })
        .unwrap_err();
    let mut failures = err.failures;
    failures.sort();
    assert_eq!(failures.len(), p, "{failures:?}");
    for (rank, msg) in failures {
        if rank == 3 {
            assert_eq!(msg, "injected crash: rank 3 at op 1");
        } else {
            assert_eq!(
                msg,
                format!("world poisoned: another rank panicked while rank {rank} was receiving")
            );
        }
    }
}

#[test]
fn tolerant_crash_leaves_a_hole_and_parked_survivors_finish() {
    let p = 8;
    let plan = FaultPlan::new(7).crash_rank(5, 0);
    let report = World::new(WorldConfig::new(p).with_faults(plan))
        .run_faulty(|proc| {
            let me = proc.rank();
            if me == 5 {
                proc.send_u64(0, 1, Comm::TOOL, 1); // op 0: dies here
                unreachable!("rank 5 is killed by the plan");
            }
            // Parks (nothing was sent), then wakes on the death flag.
            let heard = proc.recv_or_dead(5, 1, Comm::TOOL).is_some();
            let (sum, alive) = proc.resilient_allreduce_u64(1, ReduceOp::Sum, Comm::TOOL);
            (heard, sum, alive.len())
        })
        .unwrap();
    assert_eq!(report.crashed, vec![5]);
    for (rank, result) in report.results.iter().enumerate() {
        let expect = (rank != 5).then_some((false, 7, 7));
        assert_eq!(*result, expect, "rank {rank}");
    }
}

#[test]
fn a_genuine_panic_and_a_hang_timeout_keep_their_messages() {
    // Rank 2 panics after it has been switched out and back in.
    let err = World::new(WorldConfig::new(4))
        .run(|proc| {
            proc.barrier(Comm::WORLD);
            if proc.rank() == 2 {
                panic!("ledger mismatch: {} != {}", 41, 42);
            }
            proc.barrier(Comm::WORLD);
        })
        .unwrap_err();
    assert!(
        err.failures
            .contains(&(2, "ledger mismatch: 41 != 42".to_string())),
        "{:?}",
        err.failures
    );

    // In an armed world a wait that ends at a proven stall surfaces as the
    // typed timeout.
    let plan = FaultPlan::new(1);
    let err = World::new(WorldConfig::new(2).with_faults(plan))
        .run_faulty(|proc| {
            if proc.rank() == 0 {
                proc.recv_u64(SrcSel::Rank(1), TagSel::Tag(4), Comm::WORLD);
            }
        })
        .unwrap_err();
    assert_eq!(
        err.failures,
        [(
            0,
            "rank 0 timed out stuck in recv src=1 tag=4: no rank can run".to_string()
        )]
    );
}

#[test]
fn bounded_recv_survives_wall_time_spent_elsewhere() {
    // Rank 0's bounded receive is woken by a non-matching message after
    // rank 2 has spent 300 ms of wall time; its sender, rank 1, can still
    // run, so the wait goes on and the message arrives.
    let got = World::new(WorldConfig::new(3))
        .run(|proc| match proc.rank() {
            0 => proc
                .recv_or_stall(SrcSel::Rank(1), TagSel::Tag(5), Comm::WORLD)
                .is_some(),
            1 => {
                proc.recv_u64(SrcSel::Rank(2), TagSel::Tag(8), Comm::WORLD);
                proc.send_u64(0, 5, Comm::WORLD, 1);
                true
            }
            _ => {
                std::thread::sleep(std::time::Duration::from_millis(300));
                proc.send_u64(0, 9, Comm::WORLD, 0);
                proc.send_u64(1, 8, Comm::WORLD, 0);
                true
            }
        })
        .unwrap()
        .results;
    assert_eq!(got, [true, true, true]);
}

#[test]
fn a_stall_releases_one_bounded_waiter_in_vtime_then_rank_order() {
    // Both ranks wait for a message nobody has sent. The stall releases
    // rank 0 alone (equal virtual times, lower rank); what it sends then
    // answers rank 1, whose wait goes on.
    let got = World::new(WorldConfig::new(2))
        .run(|proc| {
            let me = proc.rank();
            let got = proc.recv_or_stall(SrcSel::Rank(1 - me), TagSel::Tag(7), Comm::WORLD);
            if me == 0 {
                proc.send_u64(1, 7, Comm::WORLD, 42);
            }
            got.map(|info| info.payload)
        })
        .unwrap()
        .results;
    assert_eq!(got, [None, Some(42u64.to_le_bytes().to_vec())]);
}

#[test]
fn every_rank_parked_for_good_is_a_deadlock_panic_not_a_hang() {
    let err = World::new(WorldConfig::new(3))
        .run(|proc| {
            let next = (proc.rank() + 1) % proc.size();
            proc.recv_u64(SrcSel::Rank(next), TagSel::Tag(0), Comm::WORLD);
        })
        .unwrap_err();
    // The first rank resumed after the stall names it; its unwind poisons
    // the world for the other two.
    assert_eq!(err.failures.len(), 3);
    let named = |(rank, msg): &(usize, String)| {
        msg.starts_with(&format!("deadlock detected: rank {rank} is blocked"))
    };
    assert!(err.failures.iter().any(named), "{:?}", err.failures);
    for failure in &err.failures {
        assert!(
            named(failure) || failure.1.starts_with("world poisoned"),
            "{failure:?}"
        );
    }
}

/// Recurse until the stack runs out, touching every frame. Each frame
/// lends its array to the next, so no optimizer can fold this into a loop.
#[inline(never)]
fn recurse_forever(depth: u64, parent: &[u64; 32]) -> u64 {
    let frame = std::hint::black_box([depth ^ parent[0]; 32]);
    if depth == u64::MAX {
        return 0;
    }
    std::hint::black_box(recurse_forever(depth + 1, &frame)) ^ frame[1]
}

#[test]
fn overflowing_rank_child() {
    if !is_child() {
        return;
    }
    let mut config = WorldConfig::new(4);
    config.stack_bytes = 128 * 1024;
    let report = World::new(config).run(|proc| {
        proc.barrier(Comm::WORLD);
        if proc.rank() == 2 {
            return recurse_forever(0, &[0; 32]);
        }
        proc.barrier(Comm::WORLD);
        0
    });
    // Reaching this line means rank 2 ran past the end of its stack and
    // nothing stopped it.
    println!("OVERFLOW-SURVIVED {}", report.is_ok());
}

#[test]
fn a_rank_that_outgrows_its_stack_dies_on_the_guard_page() {
    let out = run_child("overflowing_rank_child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("OVERFLOW-SURVIVED"),
        "the world returned: {stdout}"
    );
    assert!(
        out.status.signal().is_some(),
        "expected death by signal, got {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
