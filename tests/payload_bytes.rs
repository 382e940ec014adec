//! Replay moves message lengths, not message bytes.
//!
//! A replayed application message is its recorded `count`: nothing reads
//! its bytes, so replay must not allocate, zero or copy them. This binary
//! installs a counting global allocator (it affects only this test
//! binary) and replays a hand-built trace whose messages total 64 MiB.
//! Replay may allocate for its world, its walk and its bookkeeping, but
//! less than a tenth of the message volume; one buffer per message would
//! be the whole volume at least.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chameleon_repro::mpisim::{Comm, CostModel};
use chameleon_repro::scalareplay::replay;
use chameleon_repro::scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp, RankSet};
use chameleon_repro::sigkit::StackSig;

/// Bytes requested from the allocator since the process started.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Messages of the trace and the size of each.
const MESSAGES: usize = 256;
const COUNT: usize = 256 * 1024;

/// Rank 0 sends `MESSAGES` messages of `COUNT` bytes to rank 1, which
/// receives them: one send/receive pair, loop-compressed.
fn big_message_trace() -> CompressedTrace {
    let mut trace = CompressedTrace::new();
    for _ in 0..MESSAGES {
        let mut send = EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 3, COUNT, Comm::WORLD),
            StackSig(1),
            0,
            1e-6,
        );
        send.set_ranks(RankSet::from_ranks([0]));
        let mut recv = EventRecord::new(
            MpiOp::recv(Endpoint::Relative(-1), 3, COUNT, Comm::WORLD),
            StackSig(2),
            1,
            1e-6,
        );
        recv.set_ranks(RankSet::from_ranks([1]));
        trace.append(send);
        trace.append(recv);
    }
    trace
}

#[test]
fn replay_allocates_no_payload_bytes() {
    let trace = big_message_trace();
    assert!(trace.compressed_size() < 8, "the pair loop compresses");
    let volume = (MESSAGES * COUNT) as u64;
    assert!(volume >= 50_000_000);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let report = replay(&trace, 2, CostModel::default()).expect("replay completes");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(report.events_executed, 2 * MESSAGES as u64);
    assert_eq!(report.dropped_events, 0);
    assert!(
        allocated < volume / 10,
        "replay allocated {allocated} bytes for {volume} bytes of messages"
    );
}
