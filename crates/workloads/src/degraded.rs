//! Degraded-mode scenario workloads: ground-truth targets for the
//! streaming anomaly detector.
//!
//! Three injectable degradations (see FAULTS.md "Degradation model") each
//! get a workload shaped so the detector's per-cluster robust statistics
//! have a healthy majority to score against:
//!
//! * **straggler ring** — [`DegradedRing`] under [`straggler_plan`]: rank
//!   `p - 1` computes 4x slower than its cohort, which flags `slow` at
//!   nearly every marker.
//! * **ramping lossy link** — [`DegradedRing`] or [`DegradedGrid`] under
//!   [`ramp_plan`]: rank 1's outgoing tool-plane frames degrade
//!   progressively, so its reliable-heartbeat retransmit counter climbs
//!   while its peers' stay at zero, flagging `flaky` once the ramp bites.
//! * **imbalanced grid** — [`DegradedGrid`] under [`imbalance_plan`]: the
//!   heavy corner of the row-major decomposition (ranks `p - ceil(p/4)..p`)
//!   runs 2.5x compute, flagging `slow` on every heavy rank.
//!
//! Both workloads alternate their frame labels every [`PHASE_LEN`] steps
//! (the chaos-harness idiom), so the Call-Path changes periodically and
//! Chameleon re-clusters through the armed protocol while degraded.
//!
//! ## The tool-plane heartbeat
//!
//! Application traffic rides `Comm::WORLD` and is never faulted — the
//! lossy link models a degrading *tool* network — so a workload that only
//! exchanges halos generates no retransmit signal at all. Each step both
//! workloads therefore run [`HEARTBEAT_FRAMES`] reliable stop-and-wait
//! round-trips per rank around the ring on a dedicated tool-plane tag:
//! a steady, faultable send stream whose per-marker retransmit deltas are
//! the `flaky` signal. Unarmed, the heartbeat degenerates to raw sends
//! (the reliable layer's fault-free fast path), so fault-free runs stay
//! byte-identical. The even/odd send-receive phasing below requires an
//! even world size.

use mpisim::{Comm, FaultPlan, RetryPolicy, Tag};
use obs::DetectorConfig;
use scalatrace::TracedProc;

use crate::grid::Grid2D;
use crate::{Class, RunSpec, Workload};

/// Steps per behavioral phase: the frame label alternates every block so
/// the Call-Path changes and Chameleon re-clusters mid-degradation.
pub const PHASE_LEN: usize = 10;

/// Main timesteps of both degraded workloads (no trailing phases).
pub const DEGRADED_STEPS: usize = 60;

/// Tool-plane tag of the reliable heartbeat. Distinct from the runtime's
/// CKPT/HEALTH/FLAG tags; the reliable layer keeps per-`(peer, tag)`
/// sequence numbers, so the stream cannot collide with runtime traffic.
pub const HEARTBEAT_TAG: Tag = 7;

/// Reliable heartbeat round-trips per rank per step. Sized so a ramped
/// link's per-marker retransmit delta clears the detector threshold well
/// before the ramp nears the 1000‰ cap.
pub const HEARTBEAT_FRAMES: usize = 8;

/// Virtual compute seconds per step. Large enough that the compute
/// signal's relative floor (`rel_floor * median`) dominates the absolute
/// floor, keeping `slow` scores scale-free.
const COMPUTE_DT: f64 = 2e-4;

/// One ring of reliable tool-plane round-trips: each rank sends
/// [`HEARTBEAT_FRAMES`] frames to its ring successor and receives as many
/// from its predecessor. Stop-and-wait sends block until acknowledged, so
/// the ring is phased — even ranks send first, odd ranks receive first —
/// which pairs every transfer with a ready receiver (hence the even-`p`
/// requirement).
fn heartbeat(tp: &mut TracedProc) {
    let p = tp.size();
    if p < 2 {
        return;
    }
    debug_assert!(p.is_multiple_of(2), "heartbeat phasing needs an even ring");
    let me = tp.rank();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let proc = tp.inner();
    let payload = *b"degraded-heartbt";
    for _ in 0..HEARTBEAT_FRAMES {
        if me.is_multiple_of(2) {
            proc.reliable_send(next, HEARTBEAT_TAG, Comm::TOOL, &payload)
                .expect("degraded plans neither crash nor corrupt");
            proc.reliable_recv(prev, HEARTBEAT_TAG, Comm::TOOL, RetryPolicy::Bounded(2))
                .expect("degraded plans neither crash nor corrupt");
        } else {
            proc.reliable_recv(prev, HEARTBEAT_TAG, Comm::TOOL, RetryPolicy::Bounded(2))
                .expect("degraded plans neither crash nor corrupt");
            proc.reliable_send(next, HEARTBEAT_TAG, Comm::TOOL, &payload)
                .expect("degraded plans neither crash nor corrupt");
        }
    }
}

/// A ring exchange with two behavioral cohorts: even ranks and odd ranks
/// wrap their communication in different frames, so clustering (K = 2)
/// splits the world into two healthy-majority cohorts and the detector
/// scores each rank against its own half.
#[derive(Debug, Clone, Copy)]
pub struct DegradedRing;

impl Workload for DegradedRing {
    fn name(&self) -> &'static str {
        "DRING"
    }

    fn spec(&self, _class: Class, p: usize) -> RunSpec {
        assert!(
            p >= 4 && p.is_multiple_of(2),
            "DRING needs an even world of at least 4 ranks, got {p}"
        );
        RunSpec {
            main_steps: DEGRADED_STEPS,
            phase_steps: vec![],
            call_frequency: 1,
            k: 2,
        }
    }

    fn step(&self, tp: &mut TracedProc, _class: Class, step: usize) {
        let p = tp.size();
        let me = tp.rank();
        let frame: &'static str = match ((step / PHASE_LEN) % 2, me % 2) {
            (0, 0) => "dring_a_even",
            (0, _) => "dring_a_odd",
            (1, 0) => "dring_b_even",
            _ => "dring_b_odd",
        };
        tp.frame(frame, |tp| {
            tp.compute(COMPUTE_DT);
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            tp.send("dring_halo_send", next, 21, 64);
            let _ = tp.recv("dring_halo_recv", prev, 21, 64);
        });
        heartbeat(tp);
    }
}

/// A uniform 2-D torus halo exchange: every rank has exactly four
/// (wrapped) neighbors, so the whole world shares one Call-Path and
/// clusters into a single cohort (K = 1) — the shape that exposes the
/// imbalance plan's heavy corner to a world-wide robust median.
#[derive(Debug, Clone, Copy)]
pub struct DegradedGrid;

impl Workload for DegradedGrid {
    fn name(&self) -> &'static str {
        "DGRID"
    }

    fn spec(&self, _class: Class, p: usize) -> RunSpec {
        assert!(
            p >= 4 && p.is_multiple_of(2),
            "DGRID needs an even world of at least 4 ranks, got {p}"
        );
        RunSpec {
            main_steps: DEGRADED_STEPS,
            phase_steps: vec![],
            call_frequency: 1,
            k: 1,
        }
    }

    fn step(&self, tp: &mut TracedProc, _class: Class, step: usize) {
        let p = tp.size();
        let me = tp.rank();
        let g = Grid2D::new(p);
        let (row, col) = g.coords(me);
        let north = g.rank_at((row + g.rows() - 1) % g.rows(), col);
        let south = g.rank_at((row + 1) % g.rows(), col);
        let west = g.rank_at(row, (col + g.cols() - 1) % g.cols());
        let east = g.rank_at(row, (col + 1) % g.cols());
        let frame: &'static str = if (step / PHASE_LEN).is_multiple_of(2) {
            "dgrid_a"
        } else {
            "dgrid_b"
        };
        tp.frame(frame, |tp| {
            tp.compute(COMPUTE_DT);
            // Eager sends first, then matched receives: distinct tags per
            // direction keep the wrapped 2-row case (north == south)
            // unambiguous.
            tp.send("dgrid_halo_n", north, 24, 64);
            tp.send("dgrid_halo_s", south, 25, 64);
            tp.send("dgrid_halo_w", west, 26, 64);
            tp.send("dgrid_halo_e", east, 27, 64);
            let _ = tp.recv("dgrid_halo_recv_s", south, 24, 64);
            let _ = tp.recv("dgrid_halo_recv_n", north, 25, 64);
            let _ = tp.recv("dgrid_halo_recv_e", east, 26, 64);
            let _ = tp.recv("dgrid_halo_recv_w", west, 27, 64);
        });
        heartbeat(tp);
    }
}

/// Straggler scenario: rank `p - 1` computes 4x slower. In DRING that
/// rank sits in the odd cohort with a healthy majority; in DGRID the
/// whole world is its cohort.
pub fn straggler_plan(seed: u64, p: usize) -> FaultPlan {
    assert!(p >= 2);
    FaultPlan::new(seed).straggle_rank(p - 1, 4.0)
}

/// Topology-skewed imbalance: the heavy corner (the top `ceil(p/4)`
/// ranks) runs 2.5x compute.
pub fn imbalance_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).imbalance(1.5)
}

/// Progressively-ramping lossy link on rank 1's outgoing tool-plane
/// sends: from nonce 120 the drop rate climbs 30‰ every 30 nonces
/// (1‰ per nonce), with delay climbing at half that slope. The run
/// consumes well under 1000 send nonces on the target even with
/// retransmissions, so the effective drop rate stays far from the 1000‰
/// cap (at which a retransmit loop could never terminate).
pub fn ramp_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .ramp_link(1, 120, 30, 30, 15)
        .delay(0, 2e-4)
}

/// Detector tuning for the degraded scenarios: the default thresholds
/// with a tighter retransmit floor — heartbeat retransmit deltas are
/// small integers per marker, and every healthy peer's delta is exactly
/// zero, so a floor of one frame still cannot flag a healthy rank.
pub fn degraded_detector() -> DetectorConfig {
    DetectorConfig {
        retry_floor: 1,
        ..DetectorConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::driver::{run, Mode, Overrides};
    use crate::registry;

    fn run_armed(
        name: &str,
        p: usize,
        plan: FaultPlan,
        detector: Option<DetectorConfig>,
    ) -> crate::driver::RunReport {
        run(
            registry::workload(name, 1),
            Class::A,
            p,
            Mode::Chameleon,
            Overrides {
                journal: true,
                faults: Some(plan),
                detector,
                ..Default::default()
            },
        )
    }

    fn flagged_ranks(report: &crate::driver::RunReport) -> Vec<usize> {
        let journal = report.journal.as_ref().expect("journal armed");
        let mut ranks: Vec<usize> = obs::query::anomalies(journal)
            .iter()
            .map(|row| row.rank as usize)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    #[test]
    fn specs_are_sane_and_unscaled() {
        for name in ["DRING", "DGRID"] {
            let w = registry::workload(name, 10);
            assert_eq!(&w.name(), &name);
            let spec = w.spec(Class::A, 6);
            assert_eq!(spec.total_steps(), DEGRADED_STEPS, "scale must not bite");
            assert_eq!(spec.call_frequency, 1);
        }
        assert_eq!(registry::workload("DRING", 1).spec(Class::A, 6).k, 2);
        assert_eq!(registry::workload("DGRID", 1).spec(Class::A, 6).k, 1);
    }

    #[test]
    #[should_panic(expected = "even world")]
    fn odd_world_rejected() {
        DegradedRing.spec(Class::A, 5);
    }

    #[test]
    fn ramp_plan_stays_far_from_the_cap() {
        // The retransmit loop can only terminate while the effective drop
        // rate is below 1000‰. A degraded run consumes well under 800
        // target nonces (8 heartbeat frames x 60 steps plus runtime folds
        // and retransmissions); leave the cap beyond twice that.
        let plan = ramp_plan(1);
        let (drop, _) = plan.effective_rates(1, 800);
        assert!(
            drop < 700,
            "drop at nonce 800 is {drop}, too close to the cap"
        );
        assert_eq!(plan.effective_rates(1, 119), (0, 0), "quiet before onset");
        // Non-target senders never ramp.
        assert_eq!(plan.effective_rates(0, 800), (0, 0));
    }

    #[test]
    fn plans_report_ground_truth() {
        assert_eq!(straggler_plan(3, 6).degraded_ranks(6), vec![5]);
        assert_eq!(imbalance_plan(3).degraded_ranks(6), vec![4, 5]);
        assert_eq!(ramp_plan(3).degraded_ranks(6), vec![1]);
    }

    #[test]
    fn fault_free_runs_complete_without_anomalies() {
        for name in ["DRING", "DGRID"] {
            let report = run_armed(name, 6, FaultPlan::new(5), Some(degraded_detector()));
            assert!(report.crashed.is_empty());
            assert!(report.global_trace.is_some());
            assert_eq!(
                flagged_ranks(&report),
                Vec::<usize>::new(),
                "{name}: no degradation, no anomalies"
            );
            for s in &report.fault_stats {
                assert_eq!(s.retransmits, 0, "{name}: nothing to retransmit");
            }
        }
    }

    #[test]
    fn straggler_is_flagged_in_the_ring() {
        let report = run_armed("DRING", 6, straggler_plan(1, 6), Some(degraded_detector()));
        assert_eq!(flagged_ranks(&report), vec![5]);
    }

    #[test]
    fn heavy_corner_is_flagged_in_the_grid() {
        let report = run_armed("DGRID", 6, imbalance_plan(1), Some(degraded_detector()));
        assert_eq!(flagged_ranks(&report), vec![4, 5]);
    }

    #[test]
    fn ramp_target_is_flagged_flaky() {
        let report = run_armed("DRING", 6, ramp_plan(1), Some(degraded_detector()));
        assert_eq!(flagged_ranks(&report), vec![1]);
        let journal = report.journal.as_ref().unwrap();
        assert!(
            obs::query::anomalies(journal)
                .iter()
                .all(|row| row.kind == obs::AnomalyKind::Flaky),
            "a lossy link is a flaky signal, not a slow one"
        );
        // The target's own retransmit counter carried the signal.
        assert!(report.fault_stats[1].retransmits > 0);
    }

    #[test]
    fn detector_off_ignores_degradation() {
        let report = run_armed("DRING", 6, straggler_plan(1, 6), None);
        assert_eq!(flagged_ranks(&report), Vec::<usize>::new());
        let s = &report.cham_stats[0];
        assert_eq!(s.anomaly_flags, 0);
        assert_eq!(s.quarantines, 0);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let a = run_armed("DGRID", 6, imbalance_plan(2), Some(degraded_detector()));
        let b = run_armed("DGRID", 6, imbalance_plan(2), Some(degraded_detector()));
        assert_eq!(
            a.journal.unwrap().to_jsonl(),
            b.journal.unwrap().to_jsonl(),
            "same plan, same bytes"
        );
        assert_eq!(a.fault_stats, b.fault_stats);
    }

    #[test]
    fn mitigation_reduces_ramp_retransmits() {
        // Closing the loop must pay: demoting the flaky rank from lead
        // duty removes its reliable ship traffic, so the armed-detector
        // run retransmits strictly less than the detection-off run.
        let on = run_armed("DRING", 6, ramp_plan(1), Some(degraded_detector()));
        let off = run_armed("DRING", 6, ramp_plan(1), None);
        let sum = |r: &crate::driver::RunReport| -> u64 {
            r.fault_stats.iter().map(|s| s.retransmits).sum()
        };
        assert!(
            sum(&on) < sum(&off),
            "mitigation must reduce retransmits: on={} off={}",
            sum(&on),
            sum(&off)
        );
    }

    #[test]
    fn chameleon_stats_count_mitigation_actions() {
        let report = run_armed("DRING", 6, straggler_plan(1, 6), Some(degraded_detector()));
        let s = &report.cham_stats[0];
        assert!(
            s.anomaly_flags > 0,
            "the straggler flags at nearly every marker"
        );
        assert!(
            s.quarantines > 0,
            "a sustained straggler must be walled into a singleton"
        );
        let _ = Arc::new(DegradedRing); // workloads are object-safe
    }
}
