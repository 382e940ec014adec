//! The per-rank process handle: point-to-point messaging, virtual time,
//! and statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::{FaultPlan, FaultStats, InjectedCrash};
use crate::mailbox::{Envelope, Mailbox};
use crate::sched::{ParkOutcome, Waiter};
use crate::time::{CostModel, VirtualClock, VirtualTime, Work};
use crate::Comm;

/// MPI rank (0-based).
pub type Rank = usize;

/// Message tag.
pub type Tag = u32;

/// Source selector for receives (MPI's `MPI_ANY_SOURCE` or a concrete
/// rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match any sender.
    Any,
    /// Match a specific sender.
    Rank(Rank),
}

/// Tag selector for receives (MPI's `MPI_ANY_TAG` or a concrete tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag.
    Any,
    /// Match a specific tag.
    Tag(Tag),
}

/// Completed receive: who sent what under which tag.
#[derive(Debug, Clone)]
pub struct RecvInfo {
    /// Actual sender (resolves wildcards).
    pub src: Rank,
    /// Actual tag (resolves wildcards).
    pub tag: Tag,
    /// Message payload.
    pub payload: Vec<u8>,
}

/// Per-rank communication statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Point-to-point messages sent (including collective-internal ones).
    pub msgs_sent: usize,
    /// Payload bytes sent.
    pub bytes_sent: usize,
    /// Messages received.
    pub msgs_recvd: usize,
    /// Payload bytes received.
    pub bytes_recvd: usize,
}

/// State shared by all ranks of one [`crate::World`].
pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) cost: CostModel,
    pub(crate) size: usize,
    /// Set when any rank panics so blocked peers abort instead of hanging.
    pub(crate) poisoned: AtomicBool,
    /// The armed fault plan, if any. `None` keeps every fault hook on its
    /// zero-cost path.
    pub(crate) faults: Option<FaultPlan>,
    /// Per-rank death flags. A rank sets its own flag (SeqCst) *before*
    /// unwinding on an injected crash; because sends are eager, any
    /// message the dying rank sent is already in its peer's mailbox by the
    /// time the flag is observable — which is what makes death detection
    /// deterministic (see [`Proc::recv_or_dead`]).
    pub(crate) dead: Vec<AtomicBool>,
    /// How a blocked rank waits and how it is woken: the event scheduler
    /// or the thread oracle. The only place the two engines differ.
    pub(crate) waiter: Waiter,
}

/// Handle through which one rank's program talks to the simulated MPI.
///
/// Obtained inside the closure passed to [`crate::World::run`]; not
/// constructible directly.
pub struct Proc {
    rank: Rank,
    shared: Arc<Shared>,
    clock: VirtualClock,
    /// Per-communicator collective sequence numbers; all ranks call
    /// collectives on a communicator in the same order, so matching
    /// sequence numbers identify the same collective instance.
    coll_seq: HashMap<u32, u64>,
    stats: ProcStats,
    /// The tool's own virtual clock, disjoint from the application clock.
    /// Tool-internal messages (on [`Comm::TOOL`]/[`Comm::MARKER`]) carry
    /// tool-clock timestamps and synchronize it on receive, and modeled
    /// tool compute advances it via [`Proc::tool_compute`] — so a rank's
    /// final tool time is the *critical path* of tool work it observed
    /// (including waiting for merge partners), exactly the quantity the
    /// paper aggregates as tracing overhead. Measuring this with the wall
    /// clock instead would time the host scheduler: the event engine runs
    /// every rank on one thread, so a blocking wait there is other ranks'
    /// work.
    tool_clock: VirtualClock,
    /// Simulated operations performed (send attempts, completed receives,
    /// barrier entries — collective-internal ones included). Drives
    /// [`crate::fault::CrashFault`] scheduling.
    op_count: u64,
    /// Per-sender message nonce: ticks once per send attempt, in sender
    /// program order, and seeds the fault coin for that attempt.
    send_nonce: u64,
    /// Tally of injected faults and recovery actions on this rank.
    pub(crate) fstats: FaultStats,
    /// Reliable-layer outgoing sequence numbers per `(peer, tag)`.
    pub(crate) seq_out: HashMap<(Rank, Tag), u64>,
    /// Reliable-layer expected incoming sequence numbers per `(peer, tag)`.
    pub(crate) seq_in: HashMap<(Rank, Tag), u64>,
    /// Flight recorder (see [`crate::WorldConfig::with_recorder`]).
    /// Disabled by default: every emission site pays one `None` check and
    /// nothing else, and the recorder is purely passive — it never sends
    /// messages or touches either clock, so arming it cannot perturb
    /// virtual times or traces.
    pub(crate) recorder: obs::Recorder,
    /// The in-flight metrics plane's per-rank sketch, armed exactly when
    /// the recorder is (so all ranks agree on whether snapshot reductions
    /// happen). `None` keeps every metric hook on a one-branch zero-cost
    /// path. The sketch shares the recorder's passivity contract: its
    /// *reduction* rides a dedicated out-of-band channel ([`Comm::OBS`])
    /// that never ticks the op counter, advances a clock, spends a fault
    /// coin, or touches [`ProcStats`] — see [`Proc::reduce_metrics_delta`].
    metrics: Option<Box<obs::MetricSet>>,
    /// The armed plan's compute-interval multiplier for this rank, cached
    /// at construction (1.0 unarmed or undegraded — [`Proc::compute`] pays
    /// one multiply either way).
    compute_scale: f64,
    /// Cumulative locally-consumed compute, in quantized nanoseconds of
    /// *effective* (degradation-scaled) interval time. Unlike the app
    /// clock — which the marker barrier synchronizes across ranks, hiding
    /// a straggler's slowness behind everyone's wait — this counter is
    /// strictly local, so per-marker deltas attribute slow compute to the
    /// rank that actually burned it. The health detector's "slow" signal.
    compute_ns: u64,
}

/// Base of the reserved tag space used by collective-internal messages.
/// Application tags must stay below this.
pub const COLLECTIVE_TAG_BASE: Tag = 1 << 30;

/// Thread-oracle poll slice of an ordinary block: how long a blocked rank
/// sleeps before it re-reads the poison flag (and re-probes). Event mode
/// never polls.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Poll slice of a block that also watches a peer's death flag — shorter,
/// because in thread mode nothing signals the flag.
const DEAD_PEER_SLICE: Duration = Duration::from_millis(5);

/// Thread-oracle wall budget of a bounded wait ([`Proc::recv_or_stall`]).
/// The oracle cannot prove a stall, so it calls one after this long.
const BOUNDED_BUDGET: Duration = Duration::from_millis(250);

/// Thread-oracle wall budget of an unbounded wait in an armed world, after
/// which it raises the typed timeout in place of a proven stall.
const ARMED_BUDGET: Duration = Duration::from_secs(30);

/// Tag of the metrics plane's snapshot reduction on [`Comm::OBS`].
/// Snapshot reductions run in lockstep (every participant folds the same
/// marker in the same program order) and mailbox matching is FIFO per
/// `(src, tag, comm)`, so a single tag can never cross-match rounds.
pub(crate) const OBS_REDUCE_TAG: Tag = 0;

impl Proc {
    pub(crate) fn new(rank: Rank, shared: Arc<Shared>, recorder: obs::Recorder) -> Self {
        let metrics = recorder
            .is_enabled()
            .then(|| Box::new(obs::MetricSet::new()));
        let compute_scale = shared
            .faults
            .as_ref()
            .map_or(1.0, |p| p.compute_scale(rank, shared.size));
        Proc {
            rank,
            shared,
            clock: VirtualClock::new(),
            coll_seq: HashMap::new(),
            stats: ProcStats::default(),
            tool_clock: VirtualClock::new(),
            op_count: 0,
            send_nonce: 0,
            fstats: FaultStats::default(),
            seq_out: HashMap::new(),
            seq_in: HashMap::new(),
            recorder,
            metrics,
            compute_scale,
            compute_ns: 0,
        }
    }

    /// This process's rank in the world.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (number of ranks).
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Current virtual time of this rank.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    /// The communication cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.shared.cost
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> ProcStats {
        self.stats
    }

    /// Current tool-clock time: the modeled critical path of tool work
    /// this rank has observed (communication, waits, and registered
    /// compute). See the field docs.
    pub fn tool_time(&self) -> f64 {
        self.tool_clock.now()
    }

    /// Charge `work` to the tool clock in one advance: the seconds of each
    /// [`Work`], summed left to right. Returns the seconds charged.
    pub fn tool_compute(&mut self, work: &[Work]) -> f64 {
        let dt = work.iter().fold(0.0, |sum, w| sum + w.seconds());
        self.tool_clock.advance(dt);
        dt
    }

    /// Simulate `dt` virtual seconds of computation.
    ///
    /// A degraded rank (straggler or heavy imbalance corner, see
    /// [`FaultPlan::compute_scale`]) consumes the scaled interval; the
    /// effective time is also accumulated into the strictly-local
    /// [`Proc::consumed_compute_ns`] counter.
    #[inline]
    pub fn compute(&mut self, dt: VirtualTime) {
        let dt = dt * self.compute_scale;
        self.compute_ns += (dt * 1e9) as u64;
        self.clock.advance(dt);
    }

    /// Cumulative *locally consumed* compute, in quantized nanoseconds of
    /// effective (degradation-scaled) interval time.
    ///
    /// The app clock cannot attribute slowness: blocking receives and the
    /// marker barrier drag every rank's clock up to the straggler's, so
    /// after each marker all clocks agree. This counter only ever moves in
    /// [`Proc::compute`], so per-marker deltas identify exactly which rank
    /// burned the time — the health detector's "slow" signal.
    #[inline]
    pub fn consumed_compute_ns(&self) -> u64 {
        self.compute_ns
    }

    /// Blocking buffered send (MPI_Send with an eager protocol: completes
    /// locally, the message is queued at the receiver).
    ///
    /// Panics if `dest` is out of range or the application tag intrudes on
    /// the reserved collective tag space.
    pub fn send(&mut self, dest: Rank, tag: Tag, comm: Comm, payload: &[u8]) {
        // Raw sends never ask for the drop fault: nothing above them would
        // retransmit, so a drop would just deadlock the receiver. Only the
        // reliable layer (which retransmits) opts in.
        self.send_faulty(dest, tag, comm, payload, false);
    }

    /// The real send path, with fault injection. Returns `true` if the
    /// message was delivered, `false` if the armed plan dropped it
    /// (possible only when `allow_drop` is set — the reliable layer's
    /// retransmission loop).
    ///
    /// Faults apply only to unreliable tool-plane traffic: `Comm::TOOL`
    /// messages below the collective tag space, excluding the reliable
    /// layer's ACK channel. Collective rounds and ACKs ride a solid
    /// transport — the recovery protocol needs ground to stand on — and
    /// the application plane stays clean so faulted runs keep comparable
    /// virtual times.
    pub(crate) fn send_faulty(
        &mut self,
        dest: Rank,
        tag: Tag,
        comm: Comm,
        payload: &[u8],
        allow_drop: bool,
    ) -> bool {
        assert!(
            dest < self.shared.size,
            "send to rank {dest} in world of {}",
            self.shared.size
        );
        self.tick_op();
        let mut arrival = self.stamp_send(comm, payload.len());

        let mut body = None;
        let mut duplicate = false;
        if let Some(plan) = &self.shared.faults {
            let faultable =
                comm == Comm::TOOL && tag < COLLECTIVE_TAG_BASE && tag != crate::reliable::ACK_TAG;
            if faultable {
                let fate = plan.fate(self.rank, self.send_nonce);
                self.send_nonce += 1;
                let (vt, tt) = (self.clock.now(), self.tool_clock.now());
                let fired = |k: obs::FaultKind| obs::EventKind::Fault {
                    kind: k,
                    dest: dest as u64,
                    tag: tag as u64,
                };
                if fate.drop && allow_drop {
                    self.fstats.drops += 1;
                    self.recorder.emit(vt, tt, || fired(obs::FaultKind::Drop));
                    return false;
                }
                if fate.corrupt && !payload.is_empty() {
                    let mut bytes = payload.to_vec();
                    let idx = (fate.entropy as usize) % bytes.len();
                    // XOR with a non-zero mask so the flip is never a no-op.
                    bytes[idx] ^= 1 + ((fate.entropy >> 8) % 255) as u8;
                    self.fstats.corruptions += 1;
                    self.recorder
                        .emit(vt, tt, || fired(obs::FaultKind::Corrupt));
                    body = Some(bytes);
                }
                if fate.delay {
                    arrival += plan.delay_seconds;
                    self.fstats.delays += 1;
                    self.recorder.emit(vt, tt, || fired(obs::FaultKind::Delay));
                }
                if fate.duplicate {
                    self.fstats.duplicates += 1;
                    self.recorder
                        .emit(vt, tt, || fired(obs::FaultKind::Duplicate));
                    duplicate = true;
                }
            }
        }
        let body = body.unwrap_or_else(|| payload.to_vec());
        if duplicate {
            self.deposit(dest, tag, comm, body.clone(), arrival);
        }
        self.deposit(dest, tag, comm, body, arrival);
        true
    }

    /// Sender-side clock and stats accounting for one message; returns its
    /// modeled arrival time in the sender's clock domain.
    ///
    /// Tool-internal traffic (PMPI-wrapper side channels: clustering
    /// votes, trace shipping, marker sync) is free in *virtual* time: the
    /// virtual clock models the application alone, while tool cost is
    /// measured in real wall-clock. Without this split, instrumented and
    /// uninstrumented runs would disagree on application time.
    fn stamp_send(&mut self, comm: Comm, len: usize) -> f64 {
        let cost = self.shared.cost;
        let clock = self.clock_for(comm);
        clock.advance(cost.overhead);
        let arrival = clock.now() + cost.transfer(len);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += len;
        arrival
    }

    /// The clock a message on `comm` is stamped with and synchronizes.
    fn clock_for(&mut self, comm: Comm) -> &mut VirtualClock {
        if comm == Comm::TOOL || comm == Comm::MARKER {
            &mut self.tool_clock
        } else {
            &mut self.clock
        }
    }

    /// Put a message in `dest`'s mailbox and wake it.
    fn deposit(&self, dest: Rank, tag: Tag, comm: Comm, payload: Vec<u8>, arrival: f64) {
        let mailbox = &self.shared.mailboxes[dest];
        mailbox.deliver(Envelope {
            src: self.rank,
            tag,
            comm,
            payload,
            arrival,
        });
        self.shared.waiter.notify(dest, mailbox);
    }

    /// [`Proc::send`] without the op tick: clock movement, stats, and
    /// delivery are identical, but the operation counter does not advance,
    /// so the plan's crash fault cannot fire mid-call. Resilient-collective
    /// roots use this to make their reply fan-out crash-atomic: the root
    /// ticks once *before* the fan-out, so it either dies with no reply
    /// sent (every survivor observes the death and fails over together) or
    /// survives to send all of them — survivors can never see a
    /// half-distributed result. Only collective-internal (fault-exempt)
    /// tags ride this path, so skipping the fault coin is not a behavior
    /// change.
    pub(crate) fn send_no_tick(&mut self, dest: Rank, tag: Tag, comm: Comm, payload: &[u8]) {
        assert!(
            dest < self.shared.size,
            "send to rank {dest} in world of {}",
            self.shared.size
        );
        let arrival = self.stamp_send(comm, payload.len());
        self.deposit(dest, tag, comm, payload.to_vec(), arrival);
    }

    /// Seeded exponential backoff before a reliable-layer retransmission:
    /// advances the *tool* clock by the base delay times
    /// [`obs::wire::backoff_factor`] of the fault-plan seed and the
    /// transfer coordinates. Virtual time only — retransmission
    /// storms back off in the model without costing wall time, and the
    /// delays are a pure function of `(seed, ranks, tag, attempt)` so
    /// armed runs stay bit-reproducible.
    pub(crate) fn retransmit_backoff(&mut self, dest: Rank, tag: Tag, attempt: u32) {
        let Some(plan) = &self.shared.faults else {
            return;
        };
        const BASE_S: f64 = 2e-6;
        let coords = [self.rank as u64, dest as u64, tag as u64];
        let factor = obs::wire::backoff_factor(plan.seed, &coords, attempt);
        self.tool_clock.advance(BASE_S * factor);
    }

    /// Advance the operation counter and fire the plan's crash fault if
    /// this is the scheduled operation. A no-op (one branch) when no plan
    /// is armed.
    #[inline]
    pub(crate) fn tick_op(&mut self) {
        let Some(plan) = &self.shared.faults else {
            return;
        };
        let op = self.op_count;
        self.op_count += 1;
        if let Some(c) = plan.crash {
            if c.rank == self.rank && op == c.at_op {
                self.fstats.crashed = true;
                self.recorder
                    .emit(self.clock.now(), self.tool_clock.now(), || {
                        obs::EventKind::Crash { op }
                    });
                // Publish death BEFORE unwinding: sends are eager, so once
                // a peer observes this flag, everything this rank sent
                // before dying is already in the peer's mailbox.
                self.shared.dead[self.rank].store(true, Ordering::SeqCst);
                // Any parked peer might be blocked on this rank.
                self.shared.waiter.notify_all();
                std::panic::panic_any(InjectedCrash {
                    rank: self.rank,
                    op,
                });
            }
        }
    }

    /// Blocking matched receive. Synchronizes this rank's virtual clock
    /// with the message arrival time.
    ///
    /// If another rank panicked, this aborts (panics) instead of blocking
    /// forever.
    pub fn recv(&mut self, src: SrcSel, tag: TagSel, comm: Comm) -> RecvInfo {
        // Hang-diagnostic labels for wildcard selectors.
        let peer = match src {
            SrcSel::Rank(r) => r,
            SrcSel::Any => usize::MAX,
        };
        let tag_label = match tag {
            TagSel::Tag(t) => t,
            TagSel::Any => 0,
        };
        let env = self
            .block_on(POLL_SLICE, peer, tag_label, false, |p| {
                p.take(|e| e.matches(src, tag, comm))
            })
            .expect("an unbounded block returns only with a value");
        self.finish_recv(env, comm)
    }

    /// [`Proc::account_recv`] for a message received in program order.
    fn finish_recv(&mut self, env: Envelope, comm: Comm) -> RecvInfo {
        self.account_recv(env.arrival, env.payload.len(), comm);
        RecvInfo {
            src: env.src,
            tag: env.tag,
            payload: env.payload,
        }
    }

    /// Clock synchronization and accounting for a completed receive.
    ///
    /// A tool-plane arrival is in the tool-clock domain: waiting for a
    /// late sender (e.g. a merge partner still computing) shows up as tool
    /// time, which is exactly the semantics of a blocked PMPI-wrapper
    /// collective.
    fn account_recv(&mut self, arrival: f64, bytes: usize, comm: Comm) {
        self.tick_op();
        self.observe_recv_wait(comm, arrival);
        let overhead = self.shared.cost.overhead;
        let clock = self.clock_for(comm);
        clock.sync_to(arrival);
        clock.advance(overhead);
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += bytes;
    }

    /// Record the modeled queue wait of a receive — how far ahead of this
    /// rank's clock the message's arrival stamp sits (0 when the message
    /// was already waiting). Read-only on the clocks; quantized to ns.
    #[inline]
    fn observe_recv_wait(&mut self, comm: Comm, arrival: f64) {
        if self.metrics.is_some() {
            let now = self.clock_for(comm).now();
            self.metric_observe(
                obs::HistId::RecvWaitNs,
                obs::metrics::ns_from_seconds(arrival - now),
            );
        }
    }

    /// Bounded-wait matched receive: like [`Proc::recv`] but gives up,
    /// returning `None`, when the scheduler proves a stall — no rank can
    /// run, so no matching send can ever come. Of several such waiters one
    /// gives up per stall, earliest in `(virtual time, rank)` order, so
    /// whether a receive is dropped depends only on the program.
    ///
    /// Replay engines use this: a receive whose matching send was dropped
    /// (endpoint transposed out of the world in a clustered trace) must
    /// not hang the replay forever.
    pub fn recv_or_stall(&mut self, src: SrcSel, tag: TagSel, comm: Comm) -> Option<RecvInfo> {
        let env = self.block_on(POLL_SLICE, 0, 0, true, |p| {
            p.take(|e| e.matches(src, tag, comm))
        })?;
        // Unlike `recv`: no op tick, no wait metric, always the app clock.
        self.clock.sync_to(env.arrival);
        self.clock.advance(self.shared.cost.overhead);
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += env.payload.len();
        Some(RecvInfo {
            src: env.src,
            tag: env.tag,
            payload: env.payload,
        })
    }

    /// Combined exchange: buffered send then blocking receive. Safe against
    /// head-on exchanges (both sides send first) because sends are eager.
    pub fn sendrecv(
        &mut self,
        dest: Rank,
        send_tag: Tag,
        payload: &[u8],
        src: SrcSel,
        recv_tag: TagSel,
        comm: Comm,
    ) -> RecvInfo {
        self.send(dest, send_tag, comm, payload);
        self.recv(src, recv_tag, comm)
    }

    /// Non-blocking probe for a matching message.
    pub fn probe(&self, src: SrcSel, tag: TagSel, comm: Comm) -> Option<(Rank, Tag, usize)> {
        self.shared.mailboxes[self.rank].probe(src, tag, comm)
    }

    /// Whether a fault plan is armed on this world.
    #[inline]
    pub fn faults_armed(&self) -> bool {
        self.shared.faults.is_some()
    }

    /// Simulated operations performed so far (the counter that drives
    /// [`crate::fault::CrashFault`] scheduling). Deterministic per rank,
    /// so a probe run can read off the op index of a marker boundary and
    /// a second run can schedule a crash exactly there.
    #[inline]
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.shared.faults.as_ref()
    }

    /// This rank's fault/recovery tally so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Whether the flight recorder is armed on this rank.
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Record one flight-recorder event, stamped with both virtual clocks.
    /// `make` runs only when recording is armed — callers can build event
    /// payloads (allocate lead lists, format nothing) for free on ordinary
    /// runs.
    #[inline]
    pub fn record(&mut self, make: impl FnOnce() -> obs::EventKind) {
        self.recorder
            .emit(self.clock.now(), self.tool_clock.now(), make);
    }

    /// Events this rank's flight recorder has buffered so far (0 when
    /// disabled) — the journal high-water mark stored in checkpoints.
    #[inline]
    pub fn obs_len(&self) -> usize {
        self.recorder.len()
    }

    /// Surrender this rank's flight log (used by the world once the rank
    /// ends; the log survives an injected crash because the unwind is
    /// caught outside the rank body).
    pub fn take_obs_log(&mut self) -> Option<obs::RankLog> {
        self.recorder.take_log()
    }

    /// Whether the in-flight metrics plane is armed on this rank (it is
    /// exactly when the recorder is, a world-wide property — so every
    /// rank agrees on whether snapshot reductions run).
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Bump a metrics counter. One branch and nothing else when disabled.
    #[inline]
    pub fn metric_add(&mut self, c: obs::Counter, n: u64) {
        if let Some(m) = &mut self.metrics {
            m.add(c, n);
        }
    }

    /// Record a value into a metrics histogram. One branch when disabled.
    #[inline]
    pub fn metric_observe(&mut self, h: obs::HistId, v: u64) {
        if let Some(m) = &mut self.metrics {
            m.observe(h, v);
        }
    }

    /// Record a duration (seconds, quantized to ns) into a histogram.
    #[inline]
    pub fn metric_observe_seconds(&mut self, h: obs::HistId, dt: f64) {
        if self.metrics.is_some() {
            self.metric_observe(h, obs::metrics::ns_from_seconds(dt));
        }
    }

    /// Drain this rank's metric delta since the previous drain, resetting
    /// the sketch to the merge identity. `None` when the plane is off.
    pub fn metrics_delta(&mut self) -> Option<obs::MetricSet> {
        self.metrics
            .as_mut()
            .map(|m| std::mem::replace(m.as_mut(), obs::MetricSet::new()))
    }

    /// Encode the current (undrained) metric sketch, for checkpoint
    /// capture. Unlike [`Proc::metrics_delta`] this does not reset the
    /// sketch, so peeking never perturbs the snapshot reductions. `None`
    /// when the plane is off.
    pub fn metrics_encode(&self) -> Option<Vec<u8>> {
        self.metrics.as_ref().map(|m| m.encode_with_count(1))
    }

    /// Reduce every participant's metric delta up a binary radix tree
    /// positioned over `participants` (ascending ranks; the caller passes
    /// the agreed alive set). Returns `Some((delta, contributors))` at the
    /// tree root — `participants[0]` — and `None` on every other rank and
    /// whenever the plane is off.
    ///
    /// This rides the out-of-band observability channel ([`Comm::OBS`]):
    /// direct mailbox delivery with **no** op tick, clock movement, stats,
    /// send nonce, or fault coin. That passivity is load-bearing — the
    /// metrics plane must observe the run it measures, not perturb it:
    /// arming the recorder may not change virtual times, traces, crash
    /// schedules, or fault coins (see
    /// `world::recorder_does_not_perturb_virtual_times`).
    ///
    /// Dead peers are handled like [`Proc::recv_or_dead`], with the same
    /// determinism argument (death flag published before unwinding, sends
    /// eager, final zero-timeout recheck): a child that died before its
    /// contribution deterministically drops its subtree's delta for this
    /// snapshot, nothing more.
    pub fn reduce_metrics_delta(&mut self, participants: &[Rank]) -> Option<(obs::MetricSet, u64)> {
        self.metrics.as_ref()?;
        let me = self.rank;
        let my_pos = participants.iter().position(|&r| r == me)?;
        let mut delta = self.metrics_delta().expect("metrics plane armed");
        let mut contributors = 1u64;
        let tree = crate::RadixTree::binary(participants.len());
        for child_pos in tree.children(my_pos) {
            let child = participants[child_pos];
            if let Some(bytes) = self.obs_recv_or_dead(child, OBS_REDUCE_TAG) {
                match obs::MetricSet::decode_with_count(&bytes) {
                    Ok((set, n)) => {
                        delta.merge(&set);
                        contributors += n;
                    }
                    Err(what) => panic!(
                        "rank {me}: malformed metrics frame from rank {child}: {what} \
                         (the OBS channel is fault-exempt, so this is a bug)"
                    ),
                }
            }
        }
        match tree.parent(my_pos) {
            Some(parent_pos) => {
                let frame = delta.encode_with_count(contributors);
                self.obs_send(participants[parent_pos], OBS_REDUCE_TAG, frame);
                None
            }
            None => Some((delta, contributors)),
        }
    }

    /// Out-of-band send on [`Comm::OBS`]: direct delivery, zero
    /// simulation-visible side effects (no op tick, no clock, no stats,
    /// no fault coin). The arrival stamp is 0 — nothing on this channel
    /// ever synchronizes a clock to it.
    fn obs_send(&mut self, dest: Rank, tag: Tag, payload: Vec<u8>) {
        self.deposit(dest, tag, Comm::OBS, payload, 0.0);
    }

    /// Out-of-band receive on [`Comm::OBS`] with dead-peer detection:
    /// [`Proc::recv_or_dead`]'s block without the accounting or the event
    /// (peer death is *witnessed* by the regular planes; the metrics plane
    /// merely degrades).
    fn obs_recv_or_dead(&mut self, src: Rank, tag: Tag) -> Option<Vec<u8>> {
        self.block_on_peer(src, tag, Comm::OBS)
            .map(|env| env.payload)
    }

    /// Ship an opaque blob to `dest` over the out-of-band observability
    /// plane ([`Comm::OBS`]): direct delivery with zero simulation-visible
    /// side effects — no op tick, no clock movement, no stats, no fault
    /// coin. The checkpoint/deputy replication protocol rides this channel
    /// so that arming checkpoints cannot perturb virtual times or traces.
    /// Tags must be ≥ 1 (tag 0 is reserved for the metrics reduction).
    pub fn obs_ship(&mut self, dest: Rank, tag: Tag, payload: Vec<u8>) {
        debug_assert!(tag != OBS_REDUCE_TAG, "OBS tag 0 is the metrics plane");
        self.obs_send(dest, tag, payload);
    }

    /// Receive a blob shipped with [`Proc::obs_ship`], giving up
    /// deterministically if `src` dies first (same flag-then-recheck
    /// argument as [`Proc::recv_or_dead`]). Performs no accounting.
    pub fn obs_collect_or_dead(&mut self, src: Rank, tag: Tag) -> Option<Vec<u8>> {
        debug_assert!(tag != OBS_REDUCE_TAG, "OBS tag 0 is the metrics plane");
        self.obs_recv_or_dead(src, tag)
    }

    /// Whether `rank` has died to an injected crash.
    pub fn is_dead(&self, rank: Rank) -> bool {
        self.shared.dead[rank].load(Ordering::SeqCst)
    }

    /// Blocking receive that gives up — deterministically — if the sender
    /// dies. Returns `None` only when `src` is dead *and* no matching
    /// message is pending.
    ///
    /// Determinism argument: the dying rank publishes its death flag
    /// before unwinding, and sends are eager (delivered synchronously in
    /// the sender's thread). So by the time this rank observes the flag,
    /// every message the dead rank sent before its crash point is already
    /// in the mailbox — one final zero-timeout recheck after seeing the
    /// flag therefore decides message-vs-death purely by whether the dead
    /// rank *reached* the send before its crash op, never by scheduling.
    pub fn recv_or_dead(&mut self, src: Rank, tag: Tag, comm: Comm) -> Option<RecvInfo> {
        match self.block_on_peer(src, tag, comm) {
            Some(env) => Some(self.finish_recv(env, comm)),
            None => {
                self.fstats.peer_deaths_seen += 1;
                self.record(|| obs::EventKind::PeerDead { peer: src as u64 });
                None
            }
        }
    }

    /// Block for a message from `src`, or `None` once `src` is dead with
    /// nothing pending — the message-vs-death decision of
    /// [`Proc::recv_or_dead`], stated once for every plane that needs it.
    fn block_on_peer(&mut self, src: Rank, tag: Tag, comm: Comm) -> Option<Envelope> {
        let wanted = |e: &Envelope| e.matches(SrcSel::Rank(src), TagSel::Tag(tag), comm);
        self.block_on(DEAD_PEER_SLICE, src, tag, false, |p| {
            if let Some(env) = p.take(wanted) {
                return Some(Some(env));
            }
            // Final recheck after seeing the flag: it may have been set
            // between the scan above and now, with a message already
            // delivered (sends are eager).
            p.is_dead(src).then(|| p.take(wanted))
        })
        .expect("an unbounded block returns only with a value")
    }

    /// Non-blocking dequeue from this rank's own mailbox.
    fn take(&self, pred: impl Fn(&Envelope) -> bool) -> Option<Envelope> {
        self.shared.mailboxes[self.rank].take(pred)
    }

    /// The one blocking loop: every block point in the simulator is a
    /// `probe` run under it. Returns the probe's first `Some`, or `None`
    /// when a `bounded` wait ends at a stall (an unbounded one never
    /// returns `None`).
    ///
    /// Each turn: take a wait ticket, probe, abort if the world is
    /// poisoned, then wait — the single step that depends on the engine
    /// (see [`Waiter`]). The ticket is taken *before* the probe, so a
    /// delivery landing between probe and wait makes the wait return at
    /// once; a wake for anything else just costs one more probe. Flags no
    /// wake announces in thread mode (death, poison) are seen within one
    /// `slice`. A wait that ends at a stall is probed once more and then
    /// mapped here, the one place that does it: `None` for a bounded wait,
    /// the typed timeout in an armed world (`peer`/`tag` only label it),
    /// the deadlock panic otherwise.
    fn block_on<T>(
        &mut self,
        slice: Duration,
        peer: Rank,
        tag: Tag,
        bounded: bool,
        probe: impl Fn(&Self) -> Option<T>,
    ) -> Option<T> {
        let budget = if bounded {
            Some(BOUNDED_BUDGET)
        } else {
            self.faults_armed().then_some(ARMED_BUDGET)
        };
        let deadline = self.shared.waiter.deadline(budget);
        let mut stalled = false;
        loop {
            let shared = &self.shared;
            let ticket = shared
                .waiter
                .ticket(self.rank, &shared.mailboxes[self.rank]);
            if let Some(v) = probe(self) {
                return Some(v);
            }
            if shared.poisoned.load(Ordering::SeqCst) {
                panic!(
                    "world poisoned: another rank panicked while rank {} was receiving",
                    self.rank
                );
            }
            if stalled {
                if bounded {
                    return None;
                }
                self.check_hang(peer, tag);
                panic!(
                    "deadlock detected: rank {} is blocked with no running peers and \
                     no pending messages — the world can never make progress",
                    self.rank
                );
            }
            // Wake keyed by the later of the two clocks: the task's next
            // simulation-visible action cannot predate either one.
            let vtime = self.clock.now().max(self.tool_clock.now());
            stalled = shared.waiter.wait(
                self.rank,
                &shared.mailboxes[self.rank],
                ticket,
                vtime,
                slice,
                bounded,
                deadline,
            ) == ParkOutcome::TimedOut;
        }
    }

    /// An unbounded wait ended at a stall: in an armed world, count it,
    /// journal it and raise the typed timeout. Returns only when unarmed.
    fn check_hang(&mut self, src: Rank, tag: Tag) {
        if !self.faults_armed() {
            return;
        }
        self.fstats.timeouts += 1;
        self.record(|| obs::EventKind::Timeout {
            peer: src as u64,
            tag: tag as u64,
        });
        // A typed payload, not a bare string: the world harness surfaces it
        // via `panic_message`, and the chaos supervisor keys
        // restart-from-checkpoint on it (FAULTS.md "Recovery").
        std::panic::panic_any(crate::reliable::ProtocolError::Timeout {
            rank: self.rank,
            op: format!("recv src={src} tag={tag}"),
        });
    }

    /// Convenience: send a single u64 (little-endian).
    pub fn send_u64(&mut self, dest: Rank, tag: Tag, comm: Comm, value: u64) {
        self.send(dest, tag, comm, &value.to_le_bytes());
    }

    /// Convenience: receive a single u64.
    ///
    /// Panics if the matched message is not exactly 8 bytes — that is a
    /// protocol error worth failing loudly on.
    pub fn recv_u64(&mut self, src: SrcSel, tag: TagSel, comm: Comm) -> (Rank, u64) {
        let info = self.recv(src, tag, comm);
        let bytes: [u8; 8] = info
            .payload
            .as_slice()
            .try_into()
            .expect("recv_u64: payload is not 8 bytes");
        (info.src, u64::from_le_bytes(bytes))
    }

    /// Next collective sequence number on `comm`.
    pub(crate) fn next_coll_seq(&mut self, comm: Comm) -> u64 {
        let seq = self.coll_seq.entry(comm.0).or_insert(0);
        let cur = *seq;
        *seq += 1;
        cur
    }

    /// Tag for round `round` of collective instance `seq`. Stays inside the
    /// reserved space and disambiguates back-to-back collectives.
    pub(crate) fn coll_tag(seq: u64, round: u32) -> Tag {
        debug_assert!(round < 64, "collective with more than 64 rounds");
        COLLECTIVE_TAG_BASE + ((seq % 0xFFFF) as Tag) * 64 + round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tags_in_reserved_space() {
        for seq in [0u64, 1, 1000, u64::MAX] {
            for round in [0u32, 1, 63] {
                let t = Proc::coll_tag(seq, round);
                assert!(t >= COLLECTIVE_TAG_BASE);
            }
        }
    }

    #[test]
    fn coll_tags_distinguish_rounds_and_seqs() {
        assert_ne!(Proc::coll_tag(0, 0), Proc::coll_tag(0, 1));
        assert_ne!(Proc::coll_tag(0, 0), Proc::coll_tag(1, 0));
    }
}
