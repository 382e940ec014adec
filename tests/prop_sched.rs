//! Property suite for the event-driven scheduler (xrand-seeded).
//!
//! The scheduler's determinism contract has three legs, each checked
//! here over randomized inputs rather than hand-picked cases:
//!
//! - **engine invariance** — every simulation-visible output (journal
//!   bytes, virtual times, Chameleon stats) is a pure function of the
//!   world's seed and workload, the same on the one-thread event engine
//!   as on the thread-per-rank oracle;
//! - **deterministic tie-break** — when several rank tasks become ready
//!   at the same virtual timestamp, the ready queue dispatches them in
//!   rank order regardless of the order they were *inserted*, so wake
//!   races cannot leak into op ordering;
//! - **no starvation** — under randomized communication patterns (shared
//!   permutation shifts, collectives, rank-skewed compute jitter) every
//!   rank reaches its final state: the world's run() returns a result
//!   for all P ranks and all virtual clocks advanced.
//!
//! One more row pins the thread oracle's side of the wait seam: a
//! delivery that lands between a block's probe and its wait must end the
//! wait at once instead of costing a poll slice.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_repro::mpisim::mailbox::{Envelope, Mailbox};
use chameleon_repro::mpisim::sched::ReadyQueue;
use chameleon_repro::mpisim::{Comm, SrcSel, TagSel, World, WorldConfig};
use chameleon_repro::workloads::driver::{run, Mode, Overrides};
use chameleon_repro::workloads::registry::workload;
use chameleon_repro::workloads::Class;
use xrand::Xoshiro256;

// ---------------------------------------------------------------------------
// Engine invariance
// ---------------------------------------------------------------------------

/// Three seeded cases, each run on the one-thread event engine and on the
/// thread-per-rank oracle (the name predates the engine's single thread).
#[test]
fn results_invariant_under_worker_pool_size() {
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_5c4e_d001);
    let names = ["BT", "LU", "SP", "CG"];
    for case in 0..3 {
        let name = names[rng.usize_below(names.len())];
        let p = [4usize, 8][rng.usize_below(2)];
        let lossy = rng.gen_bool(0.5);
        let run_with = |thread_sched: bool| {
            let mut o = Overrides {
                journal: true,
                thread_sched,
                ..Default::default()
            };
            if lossy {
                o.faults = Some(
                    chameleon_repro::mpisim::FaultPlan::new(0xfa_0000 + case)
                        .corrupt_per_mille(100)
                        .duplicate_per_mille(30),
                );
            }
            run(workload(name, 25), Class::A, p, Mode::Chameleon, o)
        };
        let (events, threads) = (run_with(false), run_with(true));
        let label = format!("{name} p={p} lossy={lossy}");
        assert_eq!(
            events.journal.as_ref().unwrap().to_jsonl(),
            threads.journal.as_ref().unwrap().to_jsonl(),
            "{label}: journal bytes must not depend on the engine"
        );
        assert_eq!(
            events.app_vtime, threads.app_vtime,
            "{label}: app vtime must be bit-identical"
        );
        assert_eq!(
            events.cham_stats, threads.cham_stats,
            "{label}: Chameleon stats must agree"
        );
        assert_eq!(
            events.fault_stats, threads.fault_stats,
            "{label}: fault counters must agree"
        );
    }
}

// ---------------------------------------------------------------------------
// Ready-queue tie-break
// ---------------------------------------------------------------------------

#[test]
fn equal_timestamp_ties_resolve_by_rank_for_any_insertion_order() {
    let mut rng = Xoshiro256::seed_from_u64(0x71eb_4ea4);
    for _ in 0..64 {
        // Draw vtimes from a tiny pool so ties are the common case, not
        // the corner case.
        let pool: Vec<f64> = (0..1 + rng.usize_below(4))
            .map(|_| rng.f64_unit() * 10.0)
            .collect();
        let n = 2 + rng.usize_below(30);
        let mut entries: Vec<(f64, usize)> = (0..n)
            .map(|rank| (pool[rng.usize_below(pool.len())], rank))
            .collect();

        // The canonical dispatch order: ascending vtime, ties by rank.
        let mut expect = entries.clone();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let expect: Vec<usize> = expect.into_iter().map(|(_, r)| r).collect();

        // Any insertion permutation must pop the same sequence.
        for _ in 0..4 {
            rng.shuffle(&mut entries);
            let mut q = ReadyQueue::new();
            for &(vt, rank) in &entries {
                q.push(vt, rank);
            }
            let mut got = Vec::with_capacity(n);
            while let Some(rank) = q.pop() {
                got.push(rank);
            }
            assert_eq!(
                got, expect,
                "pop order must be (vtime, rank), not insertion"
            );
        }
    }
}

// Sequential virtual-time dispatch is the event engine's; where
// `SchedMode::Events` falls back to free-running threads there is no
// dispatch order to observe.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn world_level_equal_timestamps_dispatch_in_rank_order() {
    // At world start every rank is Ready at virtual time 0.0 — the one
    // moment the ready queue is guaranteed to hold P equal-vtime entries.
    // The event engine runs one rank at a time, so the dispatch order is
    // fully observable: each rank runs to its next block in queue order,
    // so rank 0 — receiving with SrcSel::Any — sees the senders in exactly
    // the order the scheduler dispatched them, which must be ascending
    // rank, every run. (A barrier would NOT set this up: barriers are
    // message trees, so ranks exit them at rank-dependent vtimes.)
    let p = 12;
    let observe = || -> Vec<usize> {
        let report = World::new(WorldConfig::new(p))
            .run(move |proc| {
                let me = proc.rank();
                if me == 0 {
                    let mut order = Vec::with_capacity(p - 1);
                    for _ in 1..proc.size() {
                        let (src, _) = proc.recv_u64(SrcSel::Any, TagSel::Tag(7), Comm::WORLD);
                        order.push(src);
                    }
                    order
                } else {
                    proc.send_u64(0, 7, Comm::WORLD, me as u64);
                    Vec::new()
                }
            })
            .unwrap();
        report.results[0].clone()
    };
    let expect: Vec<usize> = (1..p).collect();
    for trial in 0..3 {
        assert_eq!(
            observe(),
            expect,
            "trial {trial}: equal-vtime ready entries must dispatch in ascending rank order"
        );
    }
}

// ---------------------------------------------------------------------------
// No starvation
// ---------------------------------------------------------------------------

#[test]
fn every_rank_reaches_final_state_under_random_patterns() {
    let mut rng = Xoshiro256::seed_from_u64(0xdead_beef_cafe);
    for _ in 0..4 {
        let p = 6 + rng.usize_below(10);
        let rounds = 3 + rng.usize_below(5);
        let world_seed = rng.next_u64();

        let report = World::new(WorldConfig::new(p))
            .run(move |proc| {
                let p = proc.size();
                let me = proc.rank();
                // Shared schedule: every rank derives the same per-round
                // plan from the world seed; per-rank jitter makes the
                // *timing* (and thus the wake pattern) diverge wildly.
                let mut shared = Xoshiro256::seed_from_u64(world_seed);
                let mut local =
                    Xoshiro256::seed_from_u64(world_seed ^ (me as u64).wrapping_mul(0x9e37_79b9));
                let mut acc = me as u64;
                for round in 0..rounds {
                    proc.compute(1e-7 * (1.0 + 9.0 * local.f64_unit()));
                    match shared.usize_below(3) {
                        0 => {
                            // Random permutation shift: send along a shared
                            // random permutation, receive from its inverse.
                            let mut perm: Vec<usize> = (0..p).collect();
                            shared.shuffle(&mut perm);
                            let mut inv = vec![0usize; p];
                            for (i, &t) in perm.iter().enumerate() {
                                inv[t] = i;
                            }
                            let tag = round as u32;
                            proc.send_u64(perm[me], tag, Comm::WORLD, acc);
                            let (_, v) =
                                proc.recv_u64(SrcSel::Rank(inv[me]), TagSel::Tag(tag), Comm::WORLD);
                            acc = acc.wrapping_add(v);
                        }
                        1 => {
                            proc.barrier(Comm::WORLD);
                        }
                        _ => {
                            acc = proc.allreduce_sum(acc % 1024);
                        }
                    }
                }
                proc.allreduce_sum(acc % 4096)
            })
            .unwrap();

        // Every rank produced a result and agreed on the final reduction:
        // nobody starved, nobody lost a wakeup.
        assert_eq!(report.ranks, p);
        assert_eq!(report.results.len(), p);
        let first = report.results[0];
        assert!(
            report.results.iter().all(|&r| r == first),
            "p={p}: final allreduce disagrees"
        );
        assert!(
            report.rank_vtimes.iter().all(|&t| t > 0.0),
            "p={p}: a rank's virtual clock never advanced"
        );
    }
}

// ---------------------------------------------------------------------------
// Thread-oracle wait seam
// ---------------------------------------------------------------------------

#[test]
fn delivery_between_probe_and_wait_is_never_slept_through() {
    // A thread-mode block is: read the delivery counter, probe, wait on
    // the counter. Force the one interleaving that could lose a wakeup —
    // the senders deposit after the probe missed and are joined before
    // the wait starts, so their condvar signal is long gone — under 1, 2
    // and 8 concurrent senders. Only the counter can end the wait early;
    // the slice is a stand-in long enough that sleeping through it is
    // unmistakable on any host.
    let slice = Duration::from_secs(5);
    let wanted = |e: &Envelope| e.matches(SrcSel::Any, TagSel::Tag(7), Comm::WORLD);
    for senders in [1usize, 2, 8] {
        let mb = Arc::new(Mailbox::new());
        let seen = mb.deliveries();
        assert!(mb.take(wanted).is_none(), "probe must miss: nothing sent");
        let threads: Vec<_> = (0..senders)
            .map(|src| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    mb.deliver(Envelope {
                        src,
                        tag: 7,
                        comm: Comm::WORLD,
                        payload: vec![src as u8].into(),
                        arrival: 0.0,
                    })
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let started = Instant::now();
        mb.wait_delivery(seen, slice);
        assert!(
            started.elapsed() < slice / 10,
            "senders={senders}: the wait slept through a delivery it had a ticket for"
        );
        for _ in 0..senders {
            assert!(mb.take(wanted).is_some(), "senders={senders}: message lost");
        }
    }
}
