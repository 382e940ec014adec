//! End-to-end integration: workload → Chameleon → trace file → replay,
//! across crate boundaries, for every benchmark skeleton.

use std::sync::Arc;

use chameleon_repro::mpisim::{Comm, CostModel, SrcSel, TagSel, World, WorldConfig};
use chameleon_repro::scalareplay::{accuracy, replay};
use chameleon_repro::scalatrace::{format, RankSet};
use chameleon_repro::workloads::driver::{run, Mode, Overrides, ScaledWorkload};
use chameleon_repro::workloads::{
    bt::Bt, cg::Cg, emf::Emf, lu::Lu, pop::Pop, sp::Sp, sweep3d::Sweep3d, Class, Workload,
};

fn scaled<W: Workload + 'static>(w: W) -> Arc<dyn Workload> {
    Arc::new(ScaledWorkload::new(w, 25))
}

fn all_workloads() -> Vec<Arc<dyn Workload>> {
    vec![
        scaled(Bt),
        scaled(Sp),
        scaled(Lu::strong()),
        scaled(Lu::weak()),
        scaled(Pop),
        scaled(Sweep3d::strong()),
        scaled(Cg),
        Arc::new(Emf),
    ]
}

#[test]
fn large_world_4096_rank_spmd_ring() {
    // Thread-per-rank capped worlds at a few hundred ranks: P free-running
    // threads all polling their mailboxes thrash the host scheduler. The
    // event scheduler parks blocked rank tasks without polling and runs
    // one of them at a time, so a 4096-rank world is just 4096
    // parked continuations — bounded memory, bounded runnable set. This
    // smoke test pins that capability (nextest enforces the wall-clock
    // bound; see .config/nextest.toml).
    const P: usize = 4096;
    const ROUNDS: u64 = 3;
    let report = World::new(WorldConfig::new(P))
        .run(|proc| {
            let p = proc.size();
            let me = proc.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            // SPMD ring: token accumulates every rank it passes through.
            let mut acc = 0u64;
            for round in 0..ROUNDS {
                proc.compute(1e-6);
                proc.send_u64(right, round as u32, Comm::WORLD, acc + me as u64);
                let (_, v) =
                    proc.recv_u64(SrcSel::Rank(left), TagSel::Tag(round as u32), Comm::WORLD);
                acc = v;
            }
            proc.allreduce_sum(acc % 1024)
        })
        .unwrap();
    assert_eq!(report.ranks, P);
    // Every rank's final allreduce agrees, so all 4096 tasks reached their
    // final state (no starvation, no lost wakeups at scale).
    let first = report.results[0];
    assert!(report.results.iter().all(|&r| r == first));
    // Virtual time advanced through all ring rounds on every rank.
    assert!(report.rank_vtimes.iter().all(|&t| t > 0.0));
}

#[test]
fn every_workload_produces_a_complete_online_trace() {
    for w in all_workloads() {
        let name = w.name();
        let p = if name == "EMF" { 9 } else { 16 };
        let rep = run(w, Class::A, p, Mode::Chameleon, Overrides::default());
        let trace = rep
            .global_trace
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no online trace"));
        assert!(trace.dynamic_size() > 0, "{name}: empty trace");
        // Every rank appears in the trace via cluster ranklists.
        let mut covered = RankSet::empty();
        trace.visit_events(&mut |e| covered = covered.union(&e.ranks));
        assert_eq!(covered.len(), p, "{name}: ranks missing from trace");
    }
}

#[test]
fn online_traces_roundtrip_through_the_file_format() {
    for w in all_workloads() {
        let name = w.name();
        let p = if name == "EMF" { 5 } else { 9 };
        let rep = run(w, Class::A, p, Mode::Chameleon, Overrides::default());
        let trace = rep.global_trace.expect("trace");
        let text = format::to_text(&trace);
        let back =
            format::from_text(&text).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        assert_eq!(back, trace, "{name}: file format round-trip");
    }
}

#[test]
fn clustered_replay_accuracy_meets_paper_band() {
    // The paper reports 87-98% accuracy across benchmarks. Require >= 80%
    // for the scaled-down configurations (smaller intervals are noisier).
    for w in [scaled(Bt), scaled(Sp), scaled(Lu::strong()), scaled(Pop)] {
        let name = w.name();
        let p = 16;
        let st = run(
            Arc::clone(&w),
            Class::A,
            p,
            Mode::ScalaTrace,
            Overrides::default(),
        );
        let ch = run(w, Class::A, p, Mode::Chameleon, Overrides::default());
        let t = replay(&st.global_trace.expect("st trace"), p, CostModel::default())
            .expect("st replay");
        let t_prime = replay(&ch.global_trace.expect("ch trace"), p, CostModel::default())
            .expect("ch replay");
        let acc = accuracy(t.replay_vtime, t_prime.replay_vtime);
        assert!(
            acc >= 0.80,
            "{name}: clustered replay accuracy {acc:.3} below band \
             (t={}, t'={})",
            t.replay_vtime,
            t_prime.replay_vtime
        );
    }
}

#[test]
fn chameleon_never_misses_call_path_groups() {
    // "Chameleon does not miss any MPI event by selecting at least one
    // representative from each callpath cluster."
    let cases: Vec<(Arc<dyn Workload>, usize, u64)> = vec![
        (scaled(Bt), 16, 3),
        (scaled(Lu::strong()), 16, 9),
        (scaled(Sweep3d::strong()), 16, 9),
        (scaled(Pop), 16, 3),
        (Arc::new(Emf), 9, 2),
    ];
    for (w, p, expected_groups) in cases {
        let name = w.name();
        let rep = run(w, Class::A, p, Mode::Chameleon, Overrides::default());
        let s = &rep.cham_stats[0];
        assert_eq!(
            s.call_paths, expected_groups,
            "{name}: observed Call-Path groups"
        );
        assert!(
            s.leads >= expected_groups,
            "{name}: at least one lead per group"
        );
    }
}

#[test]
fn table2_state_shapes_hold_for_all_benchmarks() {
    // (name, p, C, L, AT) — the scaled runs preserve the paper's state
    // tallies exactly (Table II).
    // LU couples timestep count to the input class (Figure 11), so the
    // Table II shape is asserted at class D — the paper's configuration.
    type Case = (Arc<dyn Workload>, Class, usize, u64, u64, u64);
    let cases: Vec<Case> = vec![
        (scaled(Bt), Class::A, 8, 1, 8, 1),
        (scaled(Lu::strong()), Class::D, 8, 1, 11, 3),
        (scaled(Sp), Class::A, 8, 1, 21, 3),
        (scaled(Pop), Class::A, 8, 1, 16, 3),
        (scaled(Sweep3d::strong()), Class::A, 8, 1, 7, 2),
        (scaled(Lu::weak()), Class::A, 8, 1, 8, 1),
        (Arc::new(Emf), Class::A, 9, 1, 6, 2),
    ];
    for (w, class, p, c, l, at) in cases {
        let name = w.name();
        let rep = run(w, class, p, Mode::Chameleon, Overrides::default());
        let s = &rep.cham_stats[0].states;
        assert_eq!((s.c, s.l, s.at), (c, l, at), "{name}: Table II shape");
    }
}

#[test]
fn non_leads_hold_zero_trace_bytes_in_lead_state() {
    let rep = run(
        scaled(Bt),
        Class::A,
        16,
        Mode::Chameleon,
        Overrides::default(),
    );
    let dark = rep
        .cham_stats
        .iter()
        .filter(|s| s.mem.get("L").1 == 0)
        .count();
    // K=3 leads; everyone else dark.
    assert!(dark >= 16 - 3 - 1, "expected most ranks dark, got {dark}");
}

#[test]
fn clustered_trace_is_a_compact_summary_of_the_full_merge() {
    // The clustered trace keeps one representative per behavior group, so
    // it is never larger than the full ScalaTrace merge (which also holds
    // the per-rank parameter variants the clusters absorb), yet it still
    // replays every rank's role via the cluster ranklists.
    let p = 16;
    let st = run(
        scaled(Lu::strong()),
        Class::A,
        p,
        Mode::ScalaTrace,
        Overrides::default(),
    );
    let ch = run(
        scaled(Lu::strong()),
        Class::A,
        p,
        Mode::Chameleon,
        Overrides::default(),
    );
    let st_trace = st.global_trace.expect("st");
    let ch_trace = ch.global_trace.expect("ch");
    assert!(ch_trace.dynamic_size() > 0);
    assert!(
        ch_trace.dynamic_size() <= st_trace.dynamic_size(),
        "clustered {} vs full {}",
        ch_trace.dynamic_size(),
        st_trace.dynamic_size()
    );
    assert!(
        ch_trace.compressed_size() <= st_trace.compressed_size(),
        "clustered trace must not be larger than the full merge"
    );
    let mut covered = RankSet::empty();
    ch_trace.visit_events(&mut |e| covered = covered.union(&e.ranks));
    assert_eq!(covered.len(), p);
}
