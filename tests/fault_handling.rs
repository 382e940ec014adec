//! Failure injection across the stack: rank panics, malformed trace
//! files, and lossy clustered replays must surface as errors or counted
//! degradation — never hangs or silent corruption.

use std::sync::Arc;

use chameleon_repro::chameleon::{Chameleon, ChameleonConfig};
use chameleon_repro::mpisim::{Comm, CostModel, FaultPlan, World, WorldConfig};
use chameleon_repro::scalareplay::replay;
use chameleon_repro::scalatrace::{format, TracedProc};
use chameleon_repro::workloads::driver::{run, Mode, Overrides, ScaledWorkload};
use chameleon_repro::workloads::registry::workload;
use chameleon_repro::workloads::{bt::Bt, Class};

#[test]
fn rank_panic_mid_clustering_does_not_hang() {
    // One rank dies between the marker barrier and the vote; the poison
    // mechanism must unblock the others.
    let err = World::new(WorldConfig::for_tests(4))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(2));
            tp.barrier("step");
            if tp.rank() == 2 {
                panic!("injected: rank 2 dies before the marker");
            }
            cham.marker(&mut tp);
            cham.finalize(&mut tp);
        })
        .unwrap_err();
    assert!(err
        .failures
        .iter()
        .any(|(r, msg)| *r == 2 && msg.contains("injected")));
    // The other ranks fail via poisoning rather than deadlocking.
    assert!(err.failures.len() >= 2);
}

#[test]
fn rank_panic_mid_reduction_does_not_hang() {
    // A leaf dies before shipping its subtree trace. Its parent is
    // blocked in the canonical-order child receive, the root is blocked on
    // the parent — both must abort via the poison flag instead of waiting
    // on a message that will never come.
    use chameleon_repro::scalatrace::reduction::radix_tree_merge;
    use chameleon_repro::scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp};
    use chameleon_repro::sigkit::StackSig;

    let err = World::new(WorldConfig::for_tests(5))
        .run(|proc| {
            let me = proc.rank();
            let participants: Vec<usize> = (0..proc.size()).collect();
            let mut mine = CompressedTrace::new();
            mine.append(EventRecord::new(
                MpiOp::send(Endpoint::Relative(1), 0, 8, Comm::WORLD),
                StackSig(1),
                me,
                1e-6,
            ));
            if me == 4 {
                panic!("injected: leaf dies before shipping its trace");
            }
            // Radix 2 over 5 positions: rank 1's children are 3 and 4,
            // the root's children are 1 and 2.
            radix_tree_merge(proc, 2, &participants, &mine).merged
        })
        .unwrap_err();
    assert!(err
        .failures
        .iter()
        .any(|(r, msg)| *r == 4 && msg.contains("injected")));
    assert!(
        err.failures
            .iter()
            .any(|(r, msg)| *r == 1 && msg.contains("poisoned")),
        "the dead leaf's parent must abort via poisoning, got {:?}",
        err.failures
    );
    assert!(
        err.failures.len() >= 3,
        "the stall must propagate up the tree, got {:?}",
        err.failures
    );
}

#[test]
fn armed_plan_without_faults_matches_unarmed() {
    // The marker protocol is written once over the reliable transport. An
    // armed plan that injects nothing must carry exactly the protocol of
    // an unarmed run: same online trace, same app time, same state
    // sequence, nothing degraded.
    for (name, p) in [
        ("BT", 16),
        ("LU", 16),
        ("POP", 16),
        ("S3D", 16),
        ("EMF", 17),
    ] {
        let go = |faults: Option<FaultPlan>| {
            let ov = Overrides {
                faults,
                ..Overrides::default()
            };
            run(workload(name, 25), Class::A, p, Mode::Chameleon, ov)
        };
        let (plain, armed) = (go(None), go(Some(FaultPlan::new(3))));
        let text = |r: &chameleon_repro::workloads::driver::RunReport| {
            format::to_text(r.global_trace.as_ref().expect("online trace"))
        };
        assert_eq!(text(&plain), text(&armed), "{name}/{p}: online trace");
        assert_eq!(
            plain.app_vtime.to_bits(),
            armed.app_vtime.to_bits(),
            "{name}/{p}: app vtime"
        );
        assert_eq!(plain.cham_stats.len(), armed.cham_stats.len());
        for (r, (a, b)) in plain.cham_stats.iter().zip(&armed.cham_stats).enumerate() {
            assert_eq!(a.states, b.states, "{name}/{p}: rank {r} states");
            assert_eq!(b.degraded_slices, 0, "{name}/{p}: rank {r} degraded");
        }
    }
}

#[test]
fn malformed_trace_files_are_rejected_not_crashed() {
    let rep = run(
        Arc::new(ScaledWorkload::new(Bt, 25)),
        Class::A,
        4,
        Mode::Chameleon,
        Overrides::default(),
    );
    let text = format::to_text(&rep.global_trace.expect("trace"));

    // Flip random-ish structural bytes and require Err, not panic.
    let corruptions: Vec<String> = vec![
        text.replace("SCALATRACE v1", "SCALATRACE v9"),
        text.replace("E send", "E teleport"),
        text.replacen("L ", "L -", 1),
        {
            let mut t = text.clone();
            t.truncate(t.len() / 2);
            // Cut mid-line: keep only full lines to test structural (not
            // lexical) truncation too.
            t
        },
        text.replace("count=", "count=NaN-"),
    ];
    for (i, bad) in corruptions.iter().enumerate() {
        if bad == &text {
            continue; // corruption pattern did not apply
        }
        assert!(
            format::from_text(bad).is_err(),
            "corruption {i} was accepted"
        );
    }
}

#[test]
fn malformed_wire_payloads_error_never_panic() {
    // Table-driven corpus over every wire decoder in the protocol:
    // truncations must return Err, and *any* single byte flip must either
    // decode (the flip landed in a don't-care position) or return Err —
    // never panic. This is the contract the bounded-retry layer builds on.
    use chameleon_repro::clusterkit::{ClusterMap, LeadSelection};
    use chameleon_repro::scalatrace::reduction::decode_wire_trace;
    use chameleon_repro::scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp};
    use chameleon_repro::sigkit::{CallPathSig, SignatureTriple, StackSig};

    let triple = |cp, src, dest| SignatureTriple {
        call_path: CallPathSig(cp),
        src,
        dest,
    };
    let mut map = ClusterMap::from_rank(0, &triple(1, 10, 20));
    map.merge(ClusterMap::from_rank(1, &triple(1, 30, 40)));
    map.merge(ClusterMap::from_rank(2, &triple(2, 50, 60)));
    let sel = LeadSelection {
        leads: map.leads(),
        effective_k: 2,
        map: map.clone(),
    };
    let mut small = CompressedTrace::new();
    small.append(EventRecord::new(
        MpiOp::send(Endpoint::Relative(1), 7, 64, Comm::WORLD),
        StackSig(1),
        0,
        1e-6,
    ));
    small.append(EventRecord::new(
        MpiOp::recv(Endpoint::Relative(-1), 7, 64, Comm::WORLD),
        StackSig(2),
        0,
        2e-6,
    ));
    let trace_text = format::to_text(&small);

    type Decoder = fn(&[u8]) -> bool;
    let decoders: [(&str, Vec<u8>, Decoder); 3] = [
        ("cluster map", map.encode(), |b| {
            ClusterMap::decode(b).is_ok()
        }),
        ("lead selection", sel.encode(), |b| {
            LeadSelection::decode(b).is_ok()
        }),
        ("wire trace", trace_text.into_bytes(), |b| {
            decode_wire_trace(b).is_ok()
        }),
    ];

    for (what, wire, decode_ok) in &decoders {
        assert!(decode_ok(wire), "{what}: pristine payload must decode");
        // Truncation at every length must be an error (or, for the text
        // format, at worst a shorter-but-valid parse — never a panic).
        for cut in 0..wire.len() {
            let truncated = &wire[..cut];
            let outcome = std::panic::catch_unwind(|| decode_ok(truncated));
            assert!(outcome.is_ok(), "{what}: truncation at {cut} panicked");
        }
        // Binary decoders must reject all strict prefixes outright.
        if *what != "wire trace" {
            for cut in 0..wire.len() {
                assert!(
                    !decode_ok(&wire[..cut]),
                    "{what}: truncation at {cut} decoded"
                );
            }
        }
        // Every single-byte flip: Err or clean decode, never a panic.
        for pos in 0..wire.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = wire.clone();
                bad[pos] ^= flip;
                let outcome = std::panic::catch_unwind(|| decode_ok(&bad));
                assert!(
                    outcome.is_ok(),
                    "{what}: byte flip {flip:#04x} at {pos} panicked"
                );
            }
        }
    }
}

#[test]
fn under_provisioned_k_grows_and_replays_cleanly() {
    // K=1 with three behavior groups: dynamic K growth ("Chameleon does
    // not miss any MPI event by selecting at least one representative
    // from each callpath cluster") must still give each group a lead, so
    // the replay covers everyone without endpoint drops.
    let rep = run(
        Arc::new(ScaledWorkload::new(Bt, 25)),
        Class::A,
        8,
        Mode::Chameleon,
        Overrides {
            k: Some(1),
            ..Default::default()
        },
    );
    assert!(
        rep.cham_stats[0].leads >= 3,
        "K must grow to the Call-Path count, got {}",
        rep.cham_stats[0].leads
    );
    let trace = rep.global_trace.expect("trace");
    let replayed = replay(&trace, 8, CostModel::default()).expect("replay completes");
    assert!(replayed.events_executed > 0);
    assert_eq!(
        replayed.dropped_events, 0,
        "per-Call-Path leads keep boundary endpoints in range"
    );
}

#[test]
fn replay_of_truly_overclustered_trace_degrades_gracefully() {
    // Hand-build the pathological case dynamic K prevents: an interior
    // rank's ±1 exchange attributed to *all* ranks. Boundary transposition
    // must drop (counted), not hang.
    use chameleon_repro::scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp, RankSet};
    use chameleon_repro::sigkit::StackSig;
    let mut t = CompressedTrace::new();
    let mut send = EventRecord::new(
        MpiOp::send(Endpoint::Relative(1), 3, 32, Comm::WORLD),
        StackSig(1),
        0,
        0.0,
    );
    send.set_ranks(RankSet::from_ranks(0..6));
    let mut recv = EventRecord::new(
        MpiOp::recv(Endpoint::Relative(-1), 3, 32, Comm::WORLD),
        StackSig(2),
        0,
        0.0,
    );
    recv.set_ranks(RankSet::from_ranks(0..6));
    t.append(send);
    t.append(recv);
    let replayed = replay(&t, 6, CostModel::default()).expect("replay completes");
    assert_eq!(replayed.dropped_events, 2, "one send and one recv drop");
}

#[test]
fn empty_world_single_rank_full_pipeline() {
    // Degenerate but legal: P=1 end to end.
    let rep = run(
        Arc::new(ScaledWorkload::new(Bt, 25)),
        Class::A,
        1,
        Mode::Chameleon,
        Overrides::default(),
    );
    let trace = rep.global_trace.expect("trace");
    let replayed = replay(&trace, 1, CostModel::default()).expect("replay");
    assert!(replayed.events_executed > 0);
}

#[test]
fn marker_after_finalize_is_rejected() {
    let err = World::new(WorldConfig::for_tests(2))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(1));
            cham.finalize(&mut tp);
            cham.marker(&mut tp); // must panic
        })
        .unwrap_err();
    assert!(err
        .failures
        .iter()
        .any(|(_, msg)| msg.contains("marker after finalize")));
}

#[test]
fn tool_traffic_never_leaks_into_traces() {
    // The clustering protocol moves maps and traces over Comm::TOOL and
    // the marker barrier over Comm::MARKER; none of that may appear as
    // events in the online trace.
    let rep = run(
        Arc::new(ScaledWorkload::new(Bt, 25)),
        Class::A,
        8,
        Mode::Chameleon,
        Overrides::default(),
    );
    let trace = rep.global_trace.expect("trace");
    trace.visit_events(&mut |e| {
        assert_ne!(e.op.comm, Comm::TOOL, "tool message recorded in trace");
        assert_ne!(e.op.comm, Comm::MARKER, "marker recorded in trace");
    });
}
