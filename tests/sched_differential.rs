//! Thread-vs-event scheduler differential suite.
//!
//! The event scheduler (the default) runs every rank task on one thread
//! with event wakeups; the pre-refactor free-running thread scheduler
//! survives behind `WorldConfig::with_thread_scheduler`
//! (`Overrides::thread_sched` at the driver level) exactly so it can act
//! as the oracle here: every simulation-visible output — gathered
//! journals (byte-for-byte), trace digests, Chameleon stats, fault
//! counters, survivor sets — must be identical between the two engines
//! over the same seed × workload × fault-plan grid.
//!
//! This is the correctness story of the scheduler refactor: the
//! simulation's determinism was already scheduler-independent by design
//! (eager sends, arrival-stamped envelopes, deferred clock accounting,
//! death flags published before unwinding, canonical journal gather), so
//! any divergence caught here is a scheduler bug, not an expected drift.

use chameleon_repro::chameleon::ChameleonConfig;
use chameleon_repro::mpisim::FaultPlan;
use chameleon_repro::obs::wire::fnv64;
use chameleon_repro::scalatrace::format as trace_format;
use chameleon_repro::workloads::chaos::{
    chaos_plan, marker_entry_ops, root_crash_plan, run_chaos_result_on,
};
use chameleon_repro::workloads::degraded::{degraded_detector, straggler_plan};
use chameleon_repro::workloads::driver::{run, Mode, Overrides, RunReport};
use chameleon_repro::workloads::registry::workload;
use chameleon_repro::workloads::Class;

/// Assert every simulation-visible output of two runs of one
/// configuration agrees: virtual time, survivor set, fault counters,
/// per-rank Chameleon stats, trace digest, journal bytes.
fn assert_same_outputs(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(
        a.app_vtime, b.app_vtime,
        "{label}: app vtime must be bit-identical"
    );
    assert_eq!(a.crashed, b.crashed, "{label}: survivor sets must agree");
    assert_eq!(
        a.fault_stats, b.fault_stats,
        "{label}: fault counters must agree"
    );
    assert_eq!(
        a.cham_stats, b.cham_stats,
        "{label}: per-rank Chameleon stats must agree"
    );
    match (&a.global_trace, &b.global_trace) {
        (Some(a), Some(b)) => {
            let da = fnv64(trace_format::to_text(a).as_bytes());
            let db = fnv64(trace_format::to_text(b).as_bytes());
            assert_eq!(da, db, "{label}: trace digests must agree");
        }
        (None, None) => {}
        _ => panic!("{label}: one run produced a trace, the other did not"),
    }
    match (&a.journal, &b.journal) {
        (Some(a), Some(b)) => {
            assert_eq!(
                a.to_jsonl(),
                b.to_jsonl(),
                "{label}: journals must be byte-identical"
            );
        }
        (None, None) => {}
        _ => panic!("{label}: one run gathered a journal, the other did not"),
    }
}

/// Run one driver-level configuration on both schedulers and assert
/// every simulation-visible output agrees.
fn assert_driver_parity(name: &str, p: usize, mode: Mode, overrides: Overrides, label: &str) {
    let on = |thread_sched: bool| {
        let mut o = overrides.clone();
        o.thread_sched = thread_sched;
        run(workload(name, 25), Class::A, p, mode.clone(), o)
    };
    assert_same_outputs(&on(false), &on(true), label);
}

#[test]
fn bt_fault_free_and_armed_parity() {
    for seed_journal in [false, true] {
        assert_driver_parity(
            "BT",
            8,
            Mode::Chameleon,
            Overrides {
                journal: seed_journal,
                ..Default::default()
            },
            &format!("BT p=8 journal={seed_journal}"),
        );
    }
}

#[test]
fn lu_lossy_link_parity() {
    // A crash-free lossy plan: corruption and duplication exercise the
    // reliable layer's retransmit loop on both engines.
    for seed in [3u64, 11] {
        assert_driver_parity(
            "LU",
            8,
            Mode::Chameleon,
            Overrides {
                journal: true,
                faults: Some(
                    FaultPlan::new(seed)
                        .corrupt_per_mille(150)
                        .duplicate_per_mille(40),
                ),
                retry_budget: Some(3),
                ..Default::default()
            },
            &format!("LU p=8 lossy seed={seed}"),
        );
    }
}

#[test]
fn degraded_straggler_with_detector_parity() {
    // DRING with a straggler plan and the anomaly detector armed: the
    // closed-loop health plane (OBS-plane gathers, mitigation ladder)
    // must behave identically under both schedulers.
    let seed = 5u64;
    let p = 8;
    assert_driver_parity(
        "DRING",
        p,
        Mode::Chameleon,
        Overrides {
            journal: true,
            faults: Some(straggler_plan(seed, p)),
            detector: Some(degraded_detector()),
            ..Default::default()
        },
        &format!("DRING p={p} straggler seed={seed}"),
    );
}

/// Run one chaos configuration on both schedulers and compare outcomes.
fn assert_chaos_parity(
    p: usize,
    steps: usize,
    plan: chameleon_repro::mpisim::FaultPlan,
    label: &str,
) {
    let on = |thread_sched: bool| {
        run_chaos_result_on(
            p,
            steps,
            plan.clone(),
            true,
            ChameleonConfig::with_k(p),
            thread_sched,
        )
        .unwrap_or_else(|e| panic!("{label}: chaos run failed: {e}"))
    };
    let events = on(false);
    let threads = on(true);
    assert_eq!(events.crashed, threads.crashed, "{label}: survivor sets");
    assert_eq!(
        events.fault_stats, threads.fault_stats,
        "{label}: fault counters"
    );
    assert_eq!(events.stats, threads.stats, "{label}: per-rank stats");
    assert_eq!(
        fnv64(trace_format::to_text(&events.online_trace).as_bytes()),
        fnv64(trace_format::to_text(&threads.online_trace).as_bytes()),
        "{label}: online trace digests"
    );
    let (ja, jb) = (
        events.journal.expect("recorded"),
        threads.journal.expect("recorded"),
    );
    assert_eq!(
        fnv64(ja.to_jsonl().as_bytes()),
        fnv64(jb.to_jsonl().as_bytes()),
        "{label}: journal digests"
    );
    assert_eq!(
        ja.to_jsonl(),
        jb.to_jsonl(),
        "{label}: journals byte-identical"
    );
}

#[test]
fn chaos_crash_grid_parity() {
    // Mid-run non-root crash + lossy link across several seeds: the
    // shrink-and-continue stack (death detection, re-election, degraded
    // slices) must agree between engines.
    for seed in [1u64, 7, 19] {
        assert_chaos_parity(4, 40, chaos_plan(seed, 4), &format!("chaos seed={seed}"));
    }
}

#[test]
fn rootcrash_deputy_promotion_parity() {
    // Rank 0 dies on a marker boundary; the deputy promotion path (OBS
    // replica install, lock-step promotion counting) must agree.
    let seed = 3u64;
    let p = 4;
    let steps = 24;
    let ops = marker_entry_ops(p, steps, root_crash_plan(seed, 0));
    let mid = ops[steps / 2];
    assert_chaos_parity(
        p,
        steps,
        root_crash_plan(seed, mid),
        &format!("rootcrash seed={seed} at_op={mid}"),
    );
}

#[test]
fn bt_and_lossy_lu_at_16_ranks_match_the_thread_oracle() {
    // The tier-1 row at a size above the grid above: fault-free BT and LU
    // over a lossy link, 16 ranks, journals on. The randomized grid lives
    // in tests/prop_sched.rs.
    let lossy = FaultPlan::new(3)
        .corrupt_per_mille(150)
        .duplicate_per_mille(40);
    for (name, faults) in [("BT", None), ("LU", Some(lossy))] {
        let on = |thread_sched: bool| {
            let overrides = Overrides {
                journal: true,
                faults: faults.clone(),
                retry_budget: faults.as_ref().map(|_| 3),
                thread_sched,
                ..Default::default()
            };
            run(workload(name, 25), Class::A, 16, Mode::Chameleon, overrides)
        };
        let events = on(false);
        assert!(events.journal.is_some() && events.global_trace.is_some());
        assert_same_outputs(&events, &on(true), &format!("{name} thread oracle"));
    }
}
