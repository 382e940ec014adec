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
//! engine that is not a separate mode: every rank executes, in dynamic
//! order, the events of the global trace whose ranklist contains it,
//! resolving relative endpoints against its own rank. A ScalaTrace trace
//! (per-rank ranklists) and a Chameleon trace (cluster-wide ranklists)
//! replay through the identical code path — the ranklists are what differ.
//!
//! Each rank walks only its own projection of the trace (ScalaReplay's
//! per-rank view): before the world starts, one bitmask per node records
//! which ranks it holds — a loop's is the union of its body's — and a rank
//! enters no loop whose mask lacks it. A rank's cost is its own dynamic
//! events, not every rank's.
//!
//! Endpoints that transpose out of the world (a boundary rank replaying an
//! interior lead's ±c pattern) are *dropped*, consistently on both the
//! send and the receive side; the [`ReplayReport::dropped_events`] counter
//! makes this accuracy loss observable. A receive whose matching send
//! never comes is dropped at a stall, when no rank can run
//! ([`mpisim::Proc::recv_or_stall`]), so which receives drop is a function
//! of the trace, not of wall time.
//!
//! A replayed message is its recorded `count` and nothing more: the trace
//! holds no bytes, and only a message's length feeds the cost model. So
//! replay issues the length calls of the simulator
//! ([`mpisim::Proc::send_len`], `bcast_len`, `gather_len`) and allocates
//! no payload buffer for any message.

use mpisim::collectives::ReduceOp;
use mpisim::{Comm, CostModel, Rank, SrcSel, TagSel, World, WorldConfig};
use scalatrace::{CompressedTrace, EventRecord, OpKind, TraceNode};

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
/// Every rank executes, in dynamic order, the events whose ranklists
/// contain it, skipping the loops that hold none of them. Returns an
/// error (instead of hanging) if the trace is inconsistent enough that a
/// rank blocks forever on a receive with no matching send.
pub fn replay(
    trace: &CompressedTrace,
    p: usize,
    cost: CostModel,
) -> Result<ReplayReport, mpisim::world::WorldError> {
    let members = Membership::new(trace, p);
    let report = World::new(WorldConfig::new(p).with_cost(cost)).run(|proc| {
        let me = proc.rank();
        let size = proc.size();
        let mut executed = 0u64;
        let mut dropped = 0u64;
        members.walk(trace.nodes(), 0, me, &mut |e: &EventRecord| {
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

/// Which ranks below `p` each node of a trace holds: one bitmask of
/// `words` 64-bit words per node, nodes numbered in preorder. An event's
/// mask is its ranklist; a loop's is the union of its body's, so a rank
/// whose bit a loop lacks has no event anywhere inside it.
struct Membership {
    words: usize,
    /// Node `i`'s mask is `bits[i * words..(i + 1) * words]`.
    bits: Vec<u64>,
    /// Node `i`'s subtree spans the preorder numbers `i..end[i]`.
    end: Vec<usize>,
}

impl Membership {
    fn new(trace: &CompressedTrace, p: usize) -> Self {
        let mut m = Membership {
            words: p.div_ceil(64),
            bits: Vec::new(),
            end: Vec::new(),
        };
        m.add(trace.nodes(), p);
        m
    }

    fn add(&mut self, nodes: &[TraceNode], p: usize) {
        for node in nodes {
            let i = self.end.len();
            self.end.push(i + 1);
            self.bits.resize(self.bits.len() + self.words, 0);
            match node {
                TraceNode::Event(e) => {
                    for s in e.ranks.sections() {
                        // A section longer than the world names ranks past
                        // it; test the world's ranks instead of listing it.
                        if s.len() <= p {
                            s.iter().filter(|&r| r < p).for_each(|r| self.set(i, r));
                        } else {
                            (0..p)
                                .filter(|&r| s.contains(r))
                                .for_each(|r| self.set(i, r));
                        }
                    }
                }
                TraceNode::Loop { body, .. } => {
                    self.add(body, p);
                    self.end[i] = self.end.len();
                    let mut child = i + 1;
                    while child < self.end[i] {
                        for w in 0..self.words {
                            self.bits[i * self.words + w] |= self.bits[child * self.words + w];
                        }
                        child = self.end[child];
                    }
                }
            }
        }
    }

    fn set(&mut self, node: usize, rank: Rank) {
        self.bits[node * self.words + rank / 64] |= 1 << (rank % 64);
    }

    fn holds(&self, node: usize, rank: Rank) -> bool {
        self.bits[node * self.words + rank / 64] >> (rank % 64) & 1 == 1
    }

    /// Rank `me`'s events among `nodes`, whose first is preorder number
    /// `first`, in dynamic order: [`CompressedTrace::walk`] filtered to the
    /// events whose ranklist contains `me`, without entering a loop that
    /// holds none.
    fn walk(&self, nodes: &[TraceNode], first: usize, me: Rank, f: &mut impl FnMut(&EventRecord)) {
        let mut i = first;
        for node in nodes {
            if self.holds(i, me) {
                match node {
                    TraceNode::Event(e) => f(e),
                    TraceNode::Loop { iters, body } => {
                        for _ in 0..*iters {
                            self.walk(body, i + 1, me, f);
                        }
                    }
                }
            }
            i = self.end[i];
        }
    }
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
            proc.send_len(dest, tag, Comm::WORLD, e.op.count);
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
                    proc.send_len(d, tag, Comm::WORLD, e.op.count);
                    if proc
                        .recv_or_stall(SrcSel::Rank(s), TagSel::Tag(recv_tag), Comm::WORLD)
                        .is_none()
                    {
                        return ReplayOutcome::Dropped;
                    }
                }
                (Some(d), None) => {
                    // Half-open boundary exchange: the send still goes out.
                    proc.send_len(d, tag, Comm::WORLD, e.op.count);
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
            proc.bcast_len(e.op.count, root, e.op.comm);
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
            proc.gather_len(e.op.count, root, e.op.comm);
        }
        OpKind::Finalize => {}
    }
    ReplayOutcome::Executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon::{Chameleon, ChameleonConfig};
    use mpisim::{World as W, WorldConfig as WC};
    use scalatrace::{Endpoint, MpiOp, RankList, RankSet, TracedProc};
    use sigkit::StackSig;
    use xrand::Xoshiro256;

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
                proc.send_len(peer_up, 1, Comm::WORLD, 64);
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
                        tp.send("up", (me + 1) % size, 1, 64);
                        tp.recv("down", (me + size - 1) % size, 1, 64);
                        tp.allreduce_sum("sum", 1);
                    });
                }
                chameleon::baselines::scalatrace_finalize(
                    &mut tp,
                    scalatrace::reduction::DEFAULT_RADIX,
                )
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
                        tp.send("up", (me + 1) % size, 1, 64);
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

    /// The replay as it was before [`Membership`]: every rank walks every
    /// rank's events and tests its ranklist at each one. The reference the
    /// per-rank walk must equal.
    fn replay_every_rank_walk(trace: &CompressedTrace, p: usize) -> ReplayReport {
        let report = W::new(WC::new(p))
            .run(|proc| {
                let me = proc.rank();
                let size = proc.size();
                let (mut executed, mut dropped) = (0u64, 0u64);
                trace.walk(&mut |e: &EventRecord| {
                    if !e.ranks.contains(me) {
                        return;
                    }
                    proc.compute(e.pre_time.replay_sample());
                    match replay_event(proc, e, me, size) {
                        ReplayOutcome::Executed => executed += 1,
                        ReplayOutcome::Dropped => dropped += 1,
                    }
                });
                (executed, dropped)
            })
            .unwrap();
        ReplayReport {
            replay_vtime: report.max_vtime,
            rank_vtimes: report.rank_vtimes,
            events_executed: report.results.iter().map(|&(e, _)| e).sum(),
            dropped_events: report.results.iter().map(|&(_, d)| d).sum(),
            wall: report.wall,
        }
    }

    /// Replay `trace` both ways and require equal reports, field by field
    /// and clocks to the bit; returns the report.
    fn assert_replays_like_every_rank_walk(
        what: &str,
        trace: &CompressedTrace,
        p: usize,
    ) -> ReplayReport {
        let got = replay(trace, p, CostModel::default()).unwrap();
        let want = replay_every_rank_walk(trace, p);
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            got.replay_vtime.to_bits(),
            want.replay_vtime.to_bits(),
            "{what}: replay_vtime"
        );
        assert_eq!(
            bits(&got.rank_vtimes),
            bits(&want.rank_vtimes),
            "{what}: rank_vtimes"
        );
        assert_eq!(
            got.events_executed, want.events_executed,
            "{what}: events_executed"
        );
        assert_eq!(
            got.dropped_events, want.dropped_events,
            "{what}: dropped_events"
        );
        got
    }

    #[test]
    fn per_rank_walk_replays_every_registry_workload_like_the_every_rank_walk() {
        use workloads::driver::{run, Mode, Overrides};
        use workloads::{registry, Class};
        let names = [
            "BT", "SP", "LU", "LUW", "POP", "S3D", "S3DW", "CG", "EMF", "DRING", "DGRID",
        ];
        let mut dropped = 0;
        for name in names {
            for mode in [Mode::ScalaTrace, Mode::Chameleon] {
                let what = format!("{name}/{mode:?}");
                let rep = run(
                    registry::workload(name, 25),
                    Class::A,
                    16,
                    mode,
                    Overrides::default(),
                );
                let trace = rep.global_trace.expect("a traced run has a trace");
                let got = assert_replays_like_every_rank_walk(&what, &trace, 16);
                assert!(got.events_executed > 0, "{what}: replays something");
                dropped += got.dropped_events;
            }
        }
        assert!(dropped > 0, "some trace (CG's) drops events");
    }

    /// A finalize event: replays as its compute and nothing else, so any
    /// ranklist replays without a partner.
    fn compute_event(sig: u64, dt: f64, ranks: RankSet) -> TraceNode {
        let op = MpiOp {
            kind: OpKind::Finalize,
            src: None,
            dest: None,
            tag: None,
            recv_tag: None,
            count: 0,
            comm: Comm::WORLD,
        };
        event(op, sig, dt, ranks)
    }

    fn event(op: MpiOp, sig: u64, dt: f64, ranks: RankSet) -> TraceNode {
        let mut e = EventRecord::new(op, StackSig(sig), 0, dt);
        e.set_ranks(ranks);
        TraceNode::Event(e)
    }

    #[test]
    fn per_rank_walk_matches_on_wide_worlds_and_ranks_past_the_world() {
        // P = 130: three mask words. Sections run past the world (a member
        // at 140, a strided section of 1000). In the nested loop only one
        // inner event holds rank 129, and none holds the odd ranks 65..127.
        let p = 130;
        let strided = |start, n, stride| RankList::from_parts(start, vec![(n, stride)]).unwrap();
        let ring = RankSet::from_ranks(0..p);
        let nodes = vec![
            compute_event(
                1,
                1e-3,
                RankSet::from_ranks([0, 63, 64, 127, 128, 129, 140]),
            ),
            TraceNode::Loop {
                iters: 3,
                body: vec![
                    event(
                        MpiOp::send(Endpoint::Relative(1), 4, 32, Comm::WORLD),
                        2,
                        2e-4,
                        ring.clone(),
                    ),
                    event(
                        MpiOp::recv(Endpoint::Relative(-1), 4, 32, Comm::WORLD),
                        3,
                        1e-4,
                        ring.clone(),
                    ),
                    TraceNode::Loop {
                        iters: 2,
                        body: vec![
                            compute_event(4, 5e-4, RankSet::from_ranks(0..64)),
                            compute_event(5, 7e-4, RankSet::singleton(129)),
                            compute_event(
                                6,
                                3e-4,
                                RankSet::from_sections(vec![strided(0, 1000, 2)]),
                            ),
                        ],
                    },
                ],
            },
            TraceNode::Loop {
                iters: 4,
                body: vec![compute_event(
                    7,
                    1e-4,
                    RankSet::from_sections(vec![strided(200, 5, 1)]),
                )],
            },
            // A receive from a rank that never sends drops at the stall.
            event(
                MpiOp::recv(Endpoint::Absolute(5), 9, 8, Comm::WORLD),
                8,
                0.0,
                RankSet::singleton(66),
            ),
            compute_event(9, 2e-3, RankSet::from_sections(vec![strided(129, 130, -1)])),
        ];
        let trace = CompressedTrace::from_nodes(nodes);
        let got = assert_replays_like_every_rank_walk("hand-built P=130", &trace, p);
        assert_eq!(
            got.dropped_events,
            1 + 2 * 3,
            "the unmatched receive; the ring's two ends, thrice"
        );
    }

    #[test]
    fn per_rank_walk_matches_on_seeded_random_traces() {
        let mut rng = Xoshiro256::seed_from_u64(0x5EED42);
        for case in 0..24 {
            let p = [3, 64, 65, 97, 150][case % 5];
            let trace = CompressedTrace::from_nodes(random_nodes(&mut rng, p, 2));
            assert_replays_like_every_rank_walk(&format!("random case {case} P={p}"), &trace, p);
        }
    }

    /// Up to six nodes: loops (to `depth`) and events over random ranksets
    /// reaching past the world, sends and receives at ±1 or ±2, and
    /// compute-only events.
    fn random_nodes(rng: &mut Xoshiro256, p: usize, depth: usize) -> Vec<TraceNode> {
        (0..rng.range_usize(1, 7))
            .map(|_| {
                if depth > 0 && rng.gen_bool(0.3) {
                    return TraceNode::Loop {
                        iters: rng.range_u64(1, 4),
                        body: random_nodes(rng, p, depth - 1),
                    };
                }
                let ranks = match rng.below(3) {
                    0 => RankSet::singleton(rng.usize_below(p + 10)),
                    1 => RankSet::from_ranks(
                        (0..rng.range_usize(1, 8)).map(|_| rng.usize_below(p + 10)),
                    ),
                    _ => {
                        let start = rng.usize_below(p);
                        let stride = rng.range_u64(1, 4) as i64;
                        RankSet::from_sections(vec![RankList::from_parts(
                            start,
                            vec![(rng.range_usize(1, p + 20), stride)],
                        )
                        .unwrap()])
                    }
                };
                let off = rng.range_u64(1, 3) as i64;
                let dt = rng.f64_unit() * 1e-3;
                let sig = rng.next_u64();
                match rng.below(3) {
                    0 => event(
                        MpiOp::send(Endpoint::Relative(off), 1, 16, Comm::WORLD),
                        sig,
                        dt,
                        ranks,
                    ),
                    1 => event(
                        MpiOp::recv(Endpoint::Relative(-off), 1, 16, Comm::WORLD),
                        sig,
                        dt,
                        ranks,
                    ),
                    _ => compute_event(sig, dt, ranks),
                }
            })
            .collect()
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
