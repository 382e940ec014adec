//! Per-rank mailboxes with MPI-style message matching.
//!
//! MPI receives match on `(communicator, tag, source)`, where tag and
//! source may be wildcards, and messages from the same sender on the same
//! communicator are non-overtaking. A mailbox is an unbounded queue of
//! envelopes protected by a mutex. It never blocks a receiver by itself:
//! [`Mailbox::take`] is the one non-blocking dequeue, and
//! [`Mailbox::wait_delivery`] is the one timed wait the thread-oracle
//! scheduler sleeps on between probes (see `Proc::block_on`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::proc::{Rank, SrcSel, Tag, TagSel};
use crate::time::VirtualTime;
use crate::Comm;

/// A message body.
///
/// The application plane moves lengths, not bytes: ScalaTrace records an
/// application message as its `count`, and only that length feeds the
/// model (the transfer cost, the byte stats, the traced count). So an
/// application send carries [`Payload::Zeros`] — deposited and taken by
/// value, never allocated. Tool-plane traffic (votes, traces, reliable
/// frames, collective rounds) carries the [`Payload::Bytes`] it decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Bytes a receiver reads.
    Bytes(Vec<u8>),
    /// `n` zero bytes that nobody reads, held as their length.
    Zeros(usize),
}

impl Payload {
    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Zeros(n) => *n,
        }
    }

    /// Whether the body is zero bytes long.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, by value: free for [`Payload::Bytes`]; a length-only
    /// body is materialized as zeros.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Bytes(b) => b,
            Payload::Zeros(n) => vec![0; n],
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::Bytes(bytes)
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Communicator the message was sent on.
    pub comm: Comm,
    /// Message body.
    pub payload: Payload,
    /// Virtual time at which the message reaches the receiver (sender's
    /// clock at send plus transfer cost). The receiver's clock syncs to
    /// this on delivery.
    pub arrival: VirtualTime,
}

impl Envelope {
    /// MPI matching: same communicator, and source/tag equal unless the
    /// selector is a wildcard.
    pub fn matches(&self, src: SrcSel, tag: TagSel, comm: Comm) -> bool {
        self.comm == comm
            && match src {
                SrcSel::Any => true,
                SrcSel::Rank(r) => self.src == r,
            }
            && match tag {
                TagSel::Any => true,
                TagSel::Tag(t) => self.tag == t,
            }
    }
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Envelope>,
    /// Messages ever deposited. A waiter reads it *before* probing and
    /// hands it to [`Mailbox::wait_delivery`], which returns at once if it
    /// moved — so a delivery between probe and wait is never slept through.
    delivered: u64,
}

/// One rank's incoming-message queue.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    available: Condvar,
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the queue, shrugging off poisoning: a rank thread that panics
    /// holds no mailbox invariants (the queue is always consistent between
    /// operations), and the world-level poison flag handles the abort.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deposit a message (called by the *sender*). Signals nobody: the
    /// sender's `Waiter::notify` wakes the receiver the way its engine
    /// needs — only the thread oracle sleeps on this mailbox
    /// (`Mailbox::wake_waiters`), and a condvar signal is a syscall per
    /// message even with nobody waiting.
    pub fn deliver(&self, env: Envelope) {
        let mut inner = self.lock();
        inner.queue.push_back(env);
        inner.delivered += 1;
    }

    /// Wake every thread sleeping in [`Mailbox::wait_delivery`] — all of
    /// them: with wildcard receives, any waiter might match.
    pub(crate) fn wake_waiters(&self) {
        self.available.notify_all();
    }

    /// Non-blocking receive: remove and return the first queued envelope
    /// `pred` accepts, or `None` without waiting. Taking the *first* match
    /// of a globally FIFO queue preserves MPI's non-overtaking order (FIFO
    /// per sender within a communicator) for any predicate — exact,
    /// wildcard, or "any of these sources" (the pipelined reduction, which
    /// must not steal a non-child's message on the same tag).
    pub fn take(&self, pred: impl Fn(&Envelope) -> bool) -> Option<Envelope> {
        let mut inner = self.lock();
        let pos = inner.queue.iter().position(pred)?;
        inner.queue.remove(pos)
    }

    /// The delivery counter: how many messages were ever deposited here.
    pub fn deliveries(&self) -> u64 {
        self.lock().delivered
    }

    /// Sleep until the delivery counter differs from `seen` or `timeout`
    /// elapses, whichever is first. The counter is compared under the same
    /// lock [`Mailbox::deliver`] bumps it under, so there is no window in
    /// which a delivery can be missed.
    pub fn wait_delivery(&self, seen: u64, timeout: Duration) {
        // Poisoning is shrugged off as in `lock`: the guard is dropped.
        let _ = self
            .available
            .wait_timeout_while(self.lock(), timeout, |inner| inner.delivered == seen);
    }

    /// Non-blocking probe: would a receive with these selectors complete
    /// immediately? Returns the matched envelope's metadata without
    /// consuming it.
    pub fn probe(&self, src: SrcSel, tag: TagSel, comm: Comm) -> Option<(Rank, Tag, usize)> {
        let inner = self.lock();
        inner
            .queue
            .iter()
            .find(|e| e.matches(src, tag, comm))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued (undelivered) messages; used by shutdown checks
    /// and tests.
    pub fn backlog(&self) -> usize {
        self.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A blocking receive assembled the way `Proc::block_on` assembles one
    /// in thread mode: read the counter, probe, sleep on the counter.
    fn recv(mb: &Mailbox, src: SrcSel, tag: TagSel, comm: Comm) -> Envelope {
        loop {
            let seen = mb.deliveries();
            if let Some(env) = mb.take(|e| e.matches(src, tag, comm)) {
                return env;
            }
            mb.wait_delivery(seen, Duration::from_secs(10));
        }
    }

    fn take_from_set(mb: &Mailbox, srcs: &[Rank], tag: Tag) -> Option<Envelope> {
        mb.take(|e| srcs.contains(&e.src) && e.matches(SrcSel::Any, TagSel::Tag(tag), Comm::WORLD))
    }

    fn env(src: Rank, tag: Tag, comm: Comm, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            comm,
            payload: vec![byte].into(),
            arrival: 0.0,
        }
    }

    #[test]
    fn exact_match_delivery() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 7, Comm::WORLD, 0xaa));
        let got = recv(&mb, SrcSel::Rank(3), TagSel::Tag(7), Comm::WORLD);
        assert_eq!(got.payload.into_vec(), vec![0xaa]);
        assert_eq!(mb.backlog(), 0);
    }

    #[test]
    fn mismatched_messages_left_queued() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, Comm::WORLD, 1));
        mb.deliver(env(2, 2, Comm::WORLD, 2));
        let got = recv(&mb, SrcSel::Rank(2), TagSel::Tag(2), Comm::WORLD);
        assert_eq!(got.payload.into_vec(), vec![2]);
        assert_eq!(mb.backlog(), 1, "non-matching message must stay queued");
    }

    #[test]
    fn wildcard_source_takes_first() {
        let mb = Mailbox::new();
        mb.deliver(env(5, 9, Comm::WORLD, 5));
        mb.deliver(env(6, 9, Comm::WORLD, 6));
        let got = recv(&mb, SrcSel::Any, TagSel::Tag(9), Comm::WORLD);
        assert_eq!(got.src, 5, "FIFO among matches");
    }

    #[test]
    fn wildcard_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 42, Comm::WORLD, 1));
        let got = recv(&mb, SrcSel::Rank(1), TagSel::Any, Comm::WORLD);
        assert_eq!(got.tag, 42);
    }

    #[test]
    fn comm_isolation() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, Comm(9), 9));
        mb.deliver(env(1, 1, Comm::WORLD, 0));
        let got = recv(&mb, SrcSel::Rank(1), TagSel::Tag(1), Comm::WORLD);
        assert_eq!(
            got.payload.into_vec(),
            vec![0],
            "must not cross communicators"
        );
    }

    #[test]
    fn non_overtaking_per_sender() {
        let mb = Mailbox::new();
        for i in 0..10u8 {
            mb.deliver(env(4, 1, Comm::WORLD, i));
        }
        for i in 0..10u8 {
            let got = recv(&mb, SrcSel::Rank(4), TagSel::Tag(1), Comm::WORLD);
            assert_eq!(got.payload.into_vec(), vec![i]);
        }
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        mb.deliver(env(2, 3, Comm::WORLD, 7));
        let p = mb.probe(SrcSel::Any, TagSel::Any, Comm::WORLD);
        assert_eq!(p, Some((2, 3, 1)));
        assert_eq!(mb.backlog(), 1);
        assert!(mb
            .probe(SrcSel::Rank(9), TagSel::Any, Comm::WORLD)
            .is_none());
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle =
            std::thread::spawn(move || recv(&mb2, SrcSel::Rank(0), TagSel::Tag(0), Comm::WORLD));
        // Give the receiver a moment to block, then deliver.
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deliver(env(0, 0, Comm::WORLD, 0x5a));
        mb.wake_waiters();
        let got = handle.join().unwrap();
        assert_eq!(got.payload.into_vec(), vec![0x5a]);
    }

    #[test]
    fn wakeup_with_multiple_waiters_different_selectors() {
        let mb = Arc::new(Mailbox::new());
        let a = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || recv(&mb, SrcSel::Rank(1), TagSel::Any, Comm::WORLD))
        };
        let b = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || recv(&mb, SrcSel::Rank(2), TagSel::Any, Comm::WORLD))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deliver(env(2, 0, Comm::WORLD, 2));
        mb.deliver(env(1, 0, Comm::WORLD, 1));
        mb.wake_waiters();
        assert_eq!(a.join().unwrap().payload.into_vec(), vec![1]);
        assert_eq!(b.join().unwrap().payload.into_vec(), vec![2]);
    }

    #[test]
    fn set_receive_takes_arrival_order_within_set() {
        let mb = Mailbox::new();
        mb.deliver(env(9, 5, Comm::WORLD, 9)); // not in set
        mb.deliver(env(4, 5, Comm::WORLD, 4));
        mb.deliver(env(2, 5, Comm::WORLD, 2));
        let got = take_from_set(&mb, &[2, 4], 5).expect("match available");
        assert_eq!(got.src, 4, "first arrival among the set wins");
        let got2 = take_from_set(&mb, &[2, 4], 5).expect("second match");
        assert_eq!(got2.src, 2);
        assert_eq!(mb.backlog(), 1, "out-of-set message stays queued");
    }

    #[test]
    fn set_receive_times_out_when_only_foreign_sources() {
        let mb = Mailbox::new();
        mb.deliver(env(7, 5, Comm::WORLD, 7));
        let seen = mb.deliveries();
        assert!(take_from_set(&mb, &[1, 2], 5).is_none());
        mb.wait_delivery(seen, Duration::from_millis(20));
        assert!(take_from_set(&mb, &[1, 2], 5).is_none());
        assert_eq!(mb.backlog(), 1);
    }
}
