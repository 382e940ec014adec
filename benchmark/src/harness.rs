//! The closed-loop runner every workload shares: client threads issue
//! ops back to back for the run's length, each op is timed, checked and
//! (in the traced run) wrapped in a span.

use std::time::{Duration, Instant};

use crate::spans::{Span, SpanLog};
use crate::sys;

/// What one op reports back.
pub struct OpOut {
    /// The op completed and its output passed the correctness check.
    pub ok: bool,
    /// Output bytes: trace text, merged-trace text, spilled journal or
    /// response body.
    pub bytes: u64,
}

/// One of the five workloads, set up and ready to run ops.
pub trait Workload: Sync {
    /// Client threads, each in its own closed loop (at most `nproc`).
    fn clients(&self) -> usize;

    /// Ops in one rotation of a client's inputs. A client stops only on a
    /// multiple of this, so every run measures whole rotations and
    /// `out_bytes_per_op` does not depend on where the clock cut the run.
    fn round(&self) -> usize;

    /// Run op number `i` of `client`. Inputs were generated in set-up;
    /// nothing here draws a random number.
    fn op(&self, client: usize, i: usize, log: &mut SpanLog) -> OpOut;

    /// Check what can only be checked after the run (`ops` were issued),
    /// stop what set-up started and remove what it wrote.
    fn finish(&mut self, ops: u64) -> Result<(), String>;
}

/// Raw measurements of one timed loop.
pub struct Measured {
    /// Wall time of every op, in ms, all clients together.
    pub op_ms: Vec<f64>,
    /// First op issued to last op done.
    pub wall: Duration,
    /// Process CPU (user + system, every thread) over the same interval.
    pub cpu: Duration,
    pub bytes: u64,
    pub failed: u64,
    /// Spans per client; empty unless traced.
    pub spans: Vec<Vec<Span>>,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.op_ms.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }
}

struct ClientLog {
    op_ms: Vec<f64>,
    bytes: u64,
    failed: u64,
    done: Instant,
    spans: Vec<Span>,
}

fn client_loop(
    w: &dyn Workload,
    client: usize,
    start: Instant,
    length: Duration,
    traced: bool,
) -> ClientLog {
    let round = w.round().max(1);
    let mut log = if traced {
        SpanLog::on(start)
    } else {
        SpanLog::off()
    };
    // Reserved up front so the timed loop does not reallocate.
    let mut op_ms = Vec::with_capacity(1 << 18);
    let (mut bytes, mut failed) = (0u64, 0u64);
    let mut i = 0usize;
    while start.elapsed() < length || !i.is_multiple_of(round) {
        log.set_op(i as u32);
        let began = Instant::now();
        let out = log.span("op", |log| w.op(client, i, log));
        op_ms.push(began.elapsed().as_secs_f64() * 1e3);
        bytes += out.bytes;
        failed += u64::from(!out.ok);
        i += 1;
    }
    ClientLog {
        op_ms,
        bytes,
        failed,
        done: Instant::now(),
        spans: log.into_spans(),
    }
}

/// Run `w` for `length` (plus the rest of each client's last rotation).
pub fn measure(w: &dyn Workload, length: Duration, traced: bool) -> Measured {
    let cpu_before = sys::process_cpu();
    let start = Instant::now();
    // Client threads inherit the caller's CPU pinning.
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|c| scope.spawn(move || client_loop(w, c, start, length, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu = sys::process_cpu().saturating_sub(cpu_before);
    let done = logs.iter().map(|l| l.done).max().expect("one client");
    let mut m = Measured {
        op_ms: Vec::new(),
        wall: done - start,
        cpu,
        bytes: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for l in logs {
        m.op_ms.extend(l.op_ms);
        m.bytes += l.bytes;
        m.failed += l.failed;
        if traced {
            m.spans.push(l.spans);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting {
        clients: usize,
        calls: AtomicU64,
    }

    impl Workload for Counting {
        fn clients(&self) -> usize {
            self.clients
        }
        fn round(&self) -> usize {
            7
        }
        fn op(&self, _client: usize, i: usize, log: &mut SpanLog) -> OpOut {
            self.calls.fetch_add(1, Ordering::Relaxed);
            log.span("inner", |_| std::thread::sleep(Duration::from_micros(200)));
            OpOut {
                ok: i % 7 != 3,
                bytes: 10,
            }
        }
        fn finish(&mut self, _ops: u64) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn runs_whole_rounds_on_every_client_and_counts_failures() {
        for clients in [1, 2] {
            let w = Counting {
                clients,
                calls: AtomicU64::new(0),
            };
            let m = measure(&w, Duration::from_millis(20), true);
            assert_eq!(m.ops(), w.calls.load(Ordering::Relaxed));
            assert!(m.ops() >= 7 * clients as u64);
            assert_eq!(m.spans.len(), clients);
            for spans in &m.spans {
                let ops = spans.iter().filter(|s| s.name == "op").count();
                assert_eq!(ops % 7, 0, "client stopped mid-round after {ops} ops");
                assert_eq!(spans.len(), ops * 2);
            }
            assert_eq!(m.bytes, m.ops() * 10);
            assert_eq!(m.failed, m.ops() / 7);
            assert!(m.wall >= Duration::from_millis(20));
            assert!(m.ops_per_s() > 0.0);
        }
    }

    #[test]
    fn untraced_run_keeps_no_spans() {
        let w = Counting {
            clients: 1,
            calls: AtomicU64::new(0),
        };
        assert!(measure(&w, Duration::from_millis(5), false)
            .spans
            .is_empty());
    }
}
