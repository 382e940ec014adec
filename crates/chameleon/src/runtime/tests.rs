use super::*;
use mpisim::{World, WorldConfig};
use scalatrace::RankSet;

/// A tiny SPMD timestep: ring exchange + allreduce under a fixed
/// frame, so every rank has the same Call-Path.
fn timestep(tp: &mut TracedProc) {
    let me = tp.rank();
    let p = tp.size();
    tp.frame("timestep", |tp| {
        tp.send("halo_send", (me + 1) % p, 1, 16);
        tp.recv("halo_recv", (me + p - 1) % p, 1, 16);
        tp.allreduce_sum("residual", 1);
    });
}

/// A structurally different timestep (new call sites => new Call-Path).
/// Each `variant` uses a distinct frame so consecutive epilogue markers
/// see *different* Call-Paths (the paper's trailing-AT markers).
fn epilogue_step(tp: &mut TracedProc, variant: usize) {
    const FRAMES: [&str; 4] = ["epilogue_0", "epilogue_1", "epilogue_2", "epilogue_3"];
    tp.frame(FRAMES[variant % FRAMES.len()], |tp| {
        tp.allreduce_sum("norm_check", 2);
    });
}

fn run_app(
    p: usize,
    k: usize,
    steps: usize,
    epilogue: usize,
) -> (Vec<ChameleonStats>, CompressedTrace) {
    let report = World::new(WorldConfig::new(p))
        .run(move |proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(k));
            for _ in 0..steps {
                timestep(&mut tp);
                cham.marker(&mut tp);
            }
            for e in 0..epilogue {
                epilogue_step(&mut tp, e);
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp)
        })
        .unwrap();
    let online = report.results[0]
        .online_trace
        .clone()
        .expect("rank 0 holds the online trace");
    let stats = report.results.iter().map(|r| r.stats.clone()).collect();
    (stats, online)
}

#[test]
fn stable_run_state_sequence() {
    // 10 markers of identical behavior: AT(first), C, then 8 L.
    let (stats, _) = run_app(4, 3, 10, 0);
    for s in &stats {
        assert_eq!(s.states.at, 1, "only the first marker counts AT");
        assert_eq!(s.states.c, 1, "exactly one clustering");
        assert_eq!(s.states.l, 8);
        assert_eq!(s.states.f, 1);
        assert_eq!(s.marker_calls, 10);
    }
}

#[test]
fn epilogue_produces_trailing_at() {
    // 8 stable + 2 epilogue markers: AT, C, 6 L, flush-AT, AT.
    let (stats, _) = run_app(4, 3, 8, 2);
    let s = &stats[0];
    assert_eq!(s.states.c, 1);
    assert_eq!(s.states.l, 6);
    assert_eq!(s.states.at, 3, "first + 2 phase-change markers");
}

#[test]
fn online_trace_covers_all_events() {
    let steps = 6;
    let (_, online) = run_app(4, 3, steps, 0);
    // Each timestep: send + recv + allreduce on every rank; plus the
    // finalize event. The online trace must represent all of them
    // (per dynamic instance, by one lead on behalf of its cluster).
    assert!(online.dynamic_size() >= (steps * 3) as u64);
    // Every rank must appear in the trace's ranklists.
    let mut covered = RankSet::empty();
    online.visit_events(&mut |e| covered = covered.union(&e.ranks));
    assert_eq!(
        covered.len(),
        4,
        "all ranks represented via cluster ranklists"
    );
}

#[test]
fn online_trace_compact_for_spmd() {
    // 20 identical timesteps across 8 ranks must compress to a small
    // constant-ish number of nodes.
    let (_, online) = run_app(8, 3, 20, 0);
    assert!(
        online.compressed_size() < 40,
        "online trace blew up: {} nodes",
        online.compressed_size()
    );
}

#[test]
fn non_leads_allocate_nothing_in_lead_state() {
    let (stats, _) = run_app(8, 2, 12, 0);
    // At least one rank is a non-lead; its L-state memory rows must be
    // all zero. Leads have nonzero L rows.
    let mut lead_like = 0;
    let mut dark = 0;
    for s in &stats {
        let (calls, bytes) = s.mem.get("L");
        assert!(calls > 0);
        if bytes == 0 {
            dark += 1;
        } else {
            lead_like += 1;
        }
    }
    assert!(dark > 0, "some rank must trace nothing during L");
    assert!(lead_like > 0, "leads keep tracing during L");
    assert!(
        lead_like <= 2 + 1,
        "at most K leads (+dynamic growth slack)"
    );
}

#[test]
fn call_frequency_limits_transition_graph_runs() {
    let report = World::new(WorldConfig::new(2))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(2).with_frequency(5));
            for _ in 0..20 {
                timestep(&mut tp);
                cham.marker(&mut tp);
            }
            let stats = cham.stats().clone();
            cham.finalize(&mut tp);
            stats
        })
        .unwrap();
    for s in &report.results {
        assert_eq!(s.marker_invocations, 20);
        assert_eq!(s.marker_calls, 4, "only every 5th marker processed");
    }
}

#[test]
fn divergent_p2p_groups_two_callpaths() {
    // Masters (rank 0) vs workers: different Call-Paths via p2p only.
    let report = World::new(WorldConfig::new(6))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(2));
            let me = tp.rank();
            let p = tp.size();
            for _ in 0..6 {
                if me == 0 {
                    tp.frame("master", |tp| {
                        for w in 1..p {
                            tp.send("task_out", w, 7, 8);
                        }
                        for _ in 1..p {
                            tp.recv_any("result_in", 8, 8);
                        }
                    });
                } else {
                    tp.frame("worker", |tp| {
                        tp.recv("task_in", 0, 7, 8);
                        tp.compute(1e-6);
                        tp.send_absolute("result_out", 0, 8, 8);
                    });
                }
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp)
        })
        .unwrap();
    let online = report.results[0].online_trace.as_ref().unwrap();
    let mut covered = RankSet::empty();
    online.visit_events(&mut |e| covered = covered.union(&e.ranks));
    assert_eq!(covered.len(), 6, "master and worker clusters both traced");
    // Worker events exist (recv from master) and master events exist.
    let mut has_any_recv = false;
    online.visit_events(&mut |e| {
        if e.op.src == Some(scalatrace::Endpoint::Any) {
            has_any_recv = true;
        }
    });
    assert!(
        has_any_recv,
        "master's wildcard receive must be in the trace"
    );
}

#[test]
fn reclustering_counted_per_phase_change() {
    // Alternate two patterns every 4 markers: each stable block causes
    // one clustering; transitions cause flushes.
    let report = World::new(WorldConfig::new(4))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(2));
            for block in 0..4 {
                for _ in 0..4 {
                    if block % 2 == 0 {
                        timestep(&mut tp);
                    } else {
                        epilogue_step(&mut tp, block);
                    }
                    cham.marker(&mut tp);
                }
            }
            cham.finalize(&mut tp)
        })
        .unwrap();
    let s = &report.results[0].stats;
    // Blocks: 4 stable blocks, each re-clusters once after its first
    // repeat vote; first marker of each later block is a flush/AT.
    assert!(s.reclusterings >= 3, "got {}", s.reclusterings);
    assert_eq!(s.states.c, s.reclusterings);
}

/// A timestep with real modeled compute, so the health plane's "slow"
/// signal has something to measure.
fn compute_timestep(tp: &mut TracedProc) {
    let me = tp.rank();
    let p = tp.size();
    tp.frame("compute_step", |tp| {
        tp.compute(1e-4);
        tp.send("halo_send", (me + 1) % p, 1, 16);
        tp.recv("halo_recv", (me + p - 1) % p, 1, 16);
        tp.allreduce_sum("residual", 1);
    });
}

fn run_detected(
    p: usize,
    steps: usize,
    plan: Option<mpisim::FaultPlan>,
) -> mpisim::WorldReport<FinalizeOutcome> {
    let mut cfg = WorldConfig::new(p).with_recorder();
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    World::new(cfg)
        .run(move |proc| {
            let mut tp = TracedProc::new(proc);
            // K=1: one cluster, so the whole world is the scoring
            // cohort — a robust median needs a healthy majority.
            let mut cham = Chameleon::new(
                ChameleonConfig::with_k(1).with_detector(obs::DetectorConfig::default()),
            );
            for _ in 0..steps {
                compute_timestep(&mut tp);
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp)
        })
        .unwrap()
}

#[test]
fn health_plane_flags_and_quarantines_straggler() {
    let plan = mpisim::FaultPlan::new(0xA5).straggle_rank(3, 4.0);
    let report = run_detected(4, 10, Some(plan));
    let flags: Vec<u64> = report
        .results
        .iter()
        .map(|r| r.stats.anomaly_flags)
        .collect();
    assert!(flags[0] >= 3, "straggler flagged repeatedly: {flags:?}");
    assert!(
        flags.iter().all(|&f| f == flags[0]),
        "flag tallies agree across ranks (lock-step): {flags:?}"
    );
    for r in &report.results {
        assert_eq!(r.stats.quarantines, 1, "sustained straggler quarantined");
    }
    let j = report.journal.expect("recorder armed");
    let rows = obs::query::anomalies(&j);
    assert!(!rows.is_empty());
    assert!(
        rows.iter()
            .all(|a| a.rank == 3 && a.kind == obs::AnomalyKind::Slow),
        "only the straggler flags, always slow: {rows:?}"
    );
    assert!(rows.iter().all(|a| a.score > 4.0), "scores above threshold");
}

#[test]
fn fault_free_detector_stays_silent() {
    let report = run_detected(4, 10, None);
    for r in &report.results {
        assert_eq!(r.stats.anomaly_flags, 0, "no flags on a healthy run");
        assert_eq!(r.stats.quarantines, 0);
        assert_eq!(r.stats.lead_demotions, 0);
        // The run behaves exactly like a detector-off run.
        assert_eq!(r.stats.states.at, 1);
        assert_eq!(r.stats.states.c, 1);
    }
    let j = report.journal.expect("recorder armed");
    assert!(obs::query::anomalies(&j).is_empty());
}

#[test]
fn single_rank_world_works() {
    let (stats, online) = run_app(1, 3, 5, 0);
    assert_eq!(stats.len(), 1);
    assert!(online.dynamic_size() > 0);
}

#[test]
fn double_finalize_is_an_error() {
    let err = World::new(WorldConfig::new(1))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(1));
            cham.finalize(&mut tp);
            cham.finalize(&mut tp);
        })
        .unwrap_err();
    assert!(err.failures[0].1.contains("finalize called twice"));
}
