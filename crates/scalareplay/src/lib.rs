//! # scalareplay — replay engine for compressed traces
//!
//! The reproduction of ScalaReplay (Wu & Mueller): "a replay engine
//! operating on the application traces generated by ScalaTrace. It
//! interprets the compressed application traces on-the-fly, issues MPI
//! communication calls accordingly, and simulates computational overhead
//! as sleeps." Computation is simulated by advancing the virtual clock by
//! each event's recorded mean delta time, so replay times are
//! deterministic.
//!
//! The Chameleon enhancement is clustered replay: "the trace of a single
//! node representing a cluster is also replayed by *all other nodes* in
//! the same cluster. These other nodes re-interpret the single node trace
//! and transpose any parameters relative to their task ID automatically
//! because ScalaTrace utilizes relative encodings of end-points." In this
//! engine that is not a separate mode: every rank simply walks the global
//! trace and executes the events whose ranklist contains it, resolving
//! relative endpoints against its own rank. A ScalaTrace trace (per-rank
//! ranklists) and a Chameleon trace (cluster-wide ranklists) replay
//! through the identical code path — the ranklists are what differ.
//!
//! Endpoints that transpose out of the world (a boundary rank replaying an
//! interior lead's ±c pattern) are *dropped*, consistently on both the
//! send and the receive side; the [`ReplayReport::dropped_events`] counter
//! makes this accuracy loss observable. A receive whose matching send
//! never comes is dropped at a stall, when no rank can run
//! ([`mpisim::Proc::recv_or_stall`]), so which receives drop is a function
//! of the trace, not of wall time.

use std::sync::Arc;

use mpisim::collectives::ReduceOp;
use mpisim::{Comm, CostModel, SrcSel, TagSel, World, WorldConfig};
use scalatrace::{CompressedTrace, EventRecord, OpKind};

/// Outcome of replaying a trace.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Simulated wall-clock of the replayed application (max over ranks of
    /// final virtual time) — the paper's replay time `t` / `t'`.
    pub replay_vtime: f64,
    /// Per-rank virtual completion times.
    pub rank_vtimes: Vec<f64>,
    /// Dynamic event instances executed across all ranks.
    pub events_executed: u64,
    /// Events skipped because an endpoint transposed outside the world.
    pub dropped_events: u64,
    /// Real wall-clock the replay itself took.
    pub wall: std::time::Duration,
}

/// Replay accuracy as the paper defines it: `ACC = 1 - |t - t'| / t`,
/// where `t` is the reference replay time (without clustering) and `t'`
/// the clustered replay time.
pub fn accuracy(t: f64, t_prime: f64) -> f64 {
    if t == 0.0 {
        return if t_prime == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ((t - t_prime).abs() / t)
}

/// Replay `trace` on a simulated world of `p` ranks.
///
/// Every rank walks the trace in dynamic order and executes the events
/// whose ranklists contain it. Returns an error (instead of hanging) if
/// the trace is inconsistent enough that a rank blocks forever on a
/// receive with no matching send.
pub fn replay(
    trace: &CompressedTrace,
    p: usize,
    cost: CostModel,
) -> Result<ReplayReport, mpisim::world::WorldError> {
    let trace = Arc::new(trace.clone());
    let report = World::new(WorldConfig::new(p).with_cost(cost)).run(move |proc| {
        let me = proc.rank();
        let size = proc.size();
        let mut executed = 0u64;
        let mut dropped = 0u64;
        trace.walk(&mut |e: &EventRecord| {
            if !e.ranks.contains(me) {
                return;
            }
            // Simulated computation since the previous event.
            proc.compute(e.pre_time.replay_sample());
            match replay_event(proc, e, me, size) {
                ReplayOutcome::Executed => executed += 1,
                ReplayOutcome::Dropped => dropped += 1,
            }
        });
        (executed, dropped)
    })?;

    let events_executed = report.results.iter().map(|&(e, _)| e).sum();
    let dropped_events = report.results.iter().map(|&(_, d)| d).sum();
    Ok(ReplayReport {
        replay_vtime: report.max_vtime,
        rank_vtimes: report.rank_vtimes,
        events_executed,
        dropped_events,
        wall: report.wall,
    })
}

enum ReplayOutcome {
    Executed,
    Dropped,
}

fn replay_event(proc: &mut mpisim::Proc, e: &EventRecord, me: usize, size: usize) -> ReplayOutcome {
    let tag = e.op.tag.unwrap_or(0);
    match e.op.kind {
        OpKind::Send => {
            let Some(dest) = e.op.dest.as_ref().and_then(|d| d.resolve(me, size)) else {
                return ReplayOutcome::Dropped;
            };
            proc.send(dest, tag, Comm::WORLD, &payload(e.op.count));
        }
        OpKind::Recv => {
            let src = match e.op.src {
                Some(scalatrace::Endpoint::Any) => SrcSel::Any,
                Some(ref s) => match s.resolve(me, size) {
                    Some(r) => SrcSel::Rank(r),
                    None => return ReplayOutcome::Dropped,
                },
                None => return ReplayOutcome::Dropped,
            };
            if proc
                .recv_or_stall(src, TagSel::Tag(tag), Comm::WORLD)
                .is_none()
            {
                // Matching send was dropped elsewhere (clustered-trace
                // boundary effect): count the loss instead of hanging.
                return ReplayOutcome::Dropped;
            }
        }
        OpKind::SendRecv => {
            let dest = e.op.dest.as_ref().and_then(|d| d.resolve(me, size));
            let src = e.op.src.as_ref().and_then(|s| s.resolve(me, size));
            let recv_tag = e.op.recv_tag.unwrap_or(tag);
            match (dest, src) {
                (Some(d), Some(s)) => {
                    proc.send(d, tag, Comm::WORLD, &payload(e.op.count));
                    if proc
                        .recv_or_stall(SrcSel::Rank(s), TagSel::Tag(recv_tag), Comm::WORLD)
                        .is_none()
                    {
                        return ReplayOutcome::Dropped;
                    }
                }
                (Some(d), None) => {
                    // Half-open boundary exchange: the send still goes out.
                    proc.send(d, tag, Comm::WORLD, &payload(e.op.count));
                    return ReplayOutcome::Dropped;
                }
                (None, Some(s)) => {
                    proc.recv_or_stall(SrcSel::Rank(s), TagSel::Tag(recv_tag), Comm::WORLD);
                    return ReplayOutcome::Dropped;
                }
                (None, None) => return ReplayOutcome::Dropped,
            }
        }
        OpKind::Barrier => proc.barrier(e.op.comm),
        OpKind::Reduce => {
            let root =
                e.op.dest
                    .as_ref()
                    .and_then(|d| d.resolve(me, size))
                    .unwrap_or(0);
            proc.reduce_u64(0, ReduceOp::Sum, root, e.op.comm);
        }
        OpKind::Bcast => {
            let root =
                e.op.dest
                    .as_ref()
                    .and_then(|d| d.resolve(me, size))
                    .unwrap_or(0);
            proc.bcast(&payload(e.op.count), root, e.op.comm);
        }
        OpKind::Allreduce => {
            proc.allreduce_u64(0, ReduceOp::Sum, e.op.comm);
        }
        OpKind::Gather => {
            let root =
                e.op.dest
                    .as_ref()
                    .and_then(|d| d.resolve(me, size))
                    .unwrap_or(0);
            proc.gather(&payload(e.op.count), root, e.op.comm);
        }
        OpKind::Finalize => {}
    }
    ReplayOutcome::Executed
}

fn payload(count: usize) -> Vec<u8> {
    vec![0u8; count]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon::{Chameleon, ChameleonConfig};
    use mpisim::{World as W, WorldConfig as WC};
    use scalatrace::TracedProc;

    /// Run a small SPMD app and return (app virtual time, ScalaTrace
    /// global trace, Chameleon online trace).
    fn traces_for_app(p: usize, steps: usize, k: usize) -> (f64, CompressedTrace, CompressedTrace) {
        let app = move |proc: &mut mpisim::Proc| {
            let me = proc.rank();
            let size = proc.size();
            for _ in 0..steps {
                proc.compute(1e-4);
                let peer_up = (me + 1) % size;
                let peer_down = (me + size - 1) % size;
                proc.send(peer_up, 1, Comm::WORLD, &[0u8; 64]);
                proc.recv(SrcSel::Rank(peer_down), TagSel::Tag(1), Comm::WORLD);
                proc.allreduce_sum(1);
            }
        };
        let base = W::new(WC::new(p)).run(app).unwrap();

        let st = W::new(WC::new(p))
            .run(move |proc| {
                let mut tp = TracedProc::new(proc);
                let me = tp.rank();
                let size = tp.size();
                for _ in 0..steps {
                    tp.compute(1e-4);
                    tp.frame("timestep", |tp| {
                        tp.send("up", (me + 1) % size, 1, &[0u8; 64]);
                        tp.recv("down", (me + size - 1) % size, 1, 64);
                        tp.allreduce_sum("sum", 1);
                    });
                }
                chameleon::baselines::scalatrace_finalize(&mut tp, 2)
            })
            .unwrap();

        let ch = W::new(WC::new(p))
            .run(move |proc| {
                let mut tp = TracedProc::new(proc);
                let me = tp.rank();
                let size = tp.size();
                let mut cham = Chameleon::new(ChameleonConfig::with_k(k));
                for _ in 0..steps {
                    tp.compute(1e-4);
                    tp.frame("timestep", |tp| {
                        tp.send("up", (me + 1) % size, 1, &[0u8; 64]);
                        tp.recv("down", (me + size - 1) % size, 1, 64);
                        tp.allreduce_sum("sum", 1);
                    });
                    cham.marker(&mut tp);
                }
                cham.finalize(&mut tp)
            })
            .unwrap();

        (
            base.max_vtime,
            st.results[0].global_trace.clone().unwrap(),
            ch.results[0].online_trace.clone().unwrap(),
        )
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(accuracy(10.0, 10.0), 1.0);
        assert!((accuracy(10.0, 9.0) - 0.9).abs() < 1e-12);
        assert!((accuracy(10.0, 11.0) - 0.9).abs() < 1e-12);
        assert_eq!(accuracy(0.0, 0.0), 1.0);
        assert_eq!(accuracy(0.0, 5.0), 0.0);
    }

    #[test]
    fn scalatrace_replay_resembles_app_time() {
        let (t_app, st_trace, _) = traces_for_app(4, 10, 4);
        let rep = replay(&st_trace, 4, CostModel::default()).unwrap();
        assert_eq!(rep.dropped_events, 0, "full trace must replay completely");
        let acc = accuracy(t_app, rep.replay_vtime);
        assert!(
            acc > 0.9,
            "replay time {} vs app {} (acc {acc})",
            rep.replay_vtime,
            t_app
        );
    }

    #[test]
    fn chameleon_replay_close_to_scalatrace_replay() {
        // K=4 on 4 ranks: clusters cover every distinct behavior; the
        // paper's headline accuracy result.
        let (_, st_trace, ch_trace) = traces_for_app(4, 10, 4);
        let t = replay(&st_trace, 4, CostModel::default()).unwrap();
        let t_prime = replay(&ch_trace, 4, CostModel::default()).unwrap();
        let acc = accuracy(t.replay_vtime, t_prime.replay_vtime);
        assert!(
            acc > 0.85,
            "clustered replay {} vs unclustered {} (acc {acc})",
            t_prime.replay_vtime,
            t.replay_vtime
        );
    }

    #[test]
    fn replay_executes_expected_event_count() {
        let (_, st_trace, _) = traces_for_app(3, 5, 3);
        let rep = replay(&st_trace, 3, CostModel::default()).unwrap();
        // Each rank: 5 steps x (send + recv + allreduce) + finalize; the
        // finalize event is recorded but replays as a no-op (still counted
        // as executed).
        assert_eq!(rep.events_executed, 3 * (5 * 3 + 1));
    }

    #[test]
    fn clustered_trace_replays_on_every_member() {
        // K=1 forces one lead for all ranks; every rank must still replay
        // the lead's pattern (with boundary drops).
        let (_, _, ch_trace) = traces_for_app(4, 6, 1);
        let rep = replay(&ch_trace, 4, CostModel::default()).unwrap();
        assert!(rep.events_executed > 0);
        // All four ranks advanced their clocks — everyone replayed.
        assert!(rep.rank_vtimes.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn out_of_range_endpoints_drop_consistently() {
        // Build a trace by hand: one "send +1" and one "recv -1" event,
        // each attributed to every rank. The top rank's send transposes
        // out of range and must drop; the matching recv on rank 0 must
        // drop too; nothing hangs.
        use scalatrace::{Endpoint, EventRecord, MpiOp, RankSet};
        use sigkit::StackSig;
        let mut t = CompressedTrace::new();
        let mut send = EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 5, 8, Comm::WORLD),
            StackSig(1),
            0,
            0.0,
        );
        send.set_ranks(RankSet::from_ranks(0..4));
        let mut recv = EventRecord::new(
            MpiOp::recv(Endpoint::Relative(-1), 5, 8, Comm::WORLD),
            StackSig(2),
            0,
            0.0,
        );
        recv.set_ranks(RankSet::from_ranks(0..4));
        t.append(send);
        t.append(recv);
        let rep = replay(&t, 4, CostModel::default()).unwrap();
        assert_eq!(rep.dropped_events, 2, "one send and one recv drop");
        assert_eq!(rep.events_executed, 6);
    }

    #[test]
    fn an_unmatched_receive_drops_at_a_stall_the_same_way_every_run() {
        // Rank 0 receives from rank 1, which never sends; both then meet
        // at a barrier. The receive can end only at the stall.
        use scalatrace::{Endpoint, EventRecord, MpiOp, RankSet};
        use sigkit::StackSig;
        let mut t = CompressedTrace::new();
        let mut recv = EventRecord::new(
            MpiOp::recv(Endpoint::Absolute(1), 3, 8, Comm::WORLD),
            StackSig(1),
            0,
            1e-3,
        );
        recv.set_ranks(RankSet::from_ranks(0..1));
        let mut barrier = EventRecord::new(MpiOp::barrier(Comm::WORLD), StackSig(2), 0, 2e-3);
        barrier.set_ranks(RankSet::from_ranks(0..2));
        t.append(recv);
        t.append(barrier);
        let runs: Vec<ReplayReport> = (0..3)
            .map(|_| replay(&t, 2, CostModel::default()).unwrap())
            .collect();
        for rep in &runs {
            assert_eq!(rep.dropped_events, 1, "the unmatched receive drops");
            assert_eq!(rep.replay_vtime.to_bits(), runs[0].replay_vtime.to_bits());
            assert_eq!(rep.rank_vtimes, runs[0].rank_vtimes);
        }
    }

    #[test]
    fn replay_time_scales_with_recorded_compute() {
        use scalatrace::{EventRecord, MpiOp, RankSet};
        use sigkit::StackSig;
        let mk = |dt: f64| {
            let mut t = CompressedTrace::new();
            let mut e = EventRecord::new(MpiOp::barrier(Comm::WORLD), StackSig(1), 0, dt);
            e.set_ranks(RankSet::from_ranks(0..2));
            t.append(e);
            t
        };
        let fast = replay(&mk(0.001), 2, CostModel::default()).unwrap();
        let slow = replay(&mk(1.0), 2, CostModel::default()).unwrap();
        assert!(slow.replay_vtime > fast.replay_vtime * 100.0);
    }
}
