//! Demonstrate the transition graph: an application that switches between
//! two computation phases, showing AT → C → L, the flush on each phase
//! change, and re-clustering — the paper's Figure 3 walk-through.
//!
//! ```text
//! cargo run --release --example phase_changes
//! ```

use chameleon::{Chameleon, ChameleonConfig};
use mpisim::{World, WorldConfig};
use scalatrace::TracedProc;

fn main() {
    let ranks = 4;
    // Phase A: ring exchange. Phase B: butterfly reduction pattern.
    // Four blocks of 5 timesteps each: A A B B ... wait, alternate blocks.
    let report = World::new(WorldConfig::new(ranks))
        .run(|proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(2));
            let me = tp.rank();
            let p = tp.size();
            let mut state_log: Vec<(u64, String)> = Vec::new();
            for block in 0..4 {
                for _ in 0..5 {
                    if block % 2 == 0 {
                        tp.frame("ring_phase", |tp| {
                            tp.send("ring_send", (me + 1) % p, 1, 64);
                            tp.recv("ring_recv", (me + p - 1) % p, 1, 64);
                        });
                    } else {
                        tp.frame("reduce_phase", |tp| {
                            tp.allreduce_sum("global_sum", me as u64);
                            tp.barrier("sync_point");
                        });
                    }
                    let before = cham.stats().clone();
                    cham.marker(&mut tp);
                    let after = cham.stats();
                    // Classify what this marker did from the tallies.
                    let label = if after.states.c > before.states.c {
                        "C  (clustering: leads elected, traces merged)"
                    } else if after.states.l > before.states.l {
                        "L  (stable lead phase: non-leads dark)"
                    } else {
                        "AT (all tracing: first marker or phase change)"
                    };
                    state_log.push((after.marker_calls, label.to_string()));
                }
            }
            let outcome = cham.finalize(&mut tp);
            (state_log, outcome)
        })
        .expect("simulation failed");

    let (log, outcome) = &report.results[0];
    println!("=== transition graph walk-through (rank 0's view) ===");
    for (call, label) in log {
        println!("marker {call:>2}: {label}");
    }
    let s = &outcome.stats;
    println!(
        "\ntotals: AT={} C={} L={} — {} re-clusterings across {} phase blocks",
        s.states.at, s.states.c, s.states.l, s.reclusterings, 4
    );
    let trace = outcome.online_trace.as_ref().expect("online trace");
    println!(
        "online trace captured {} dynamic events in {} compressed nodes",
        trace.dynamic_size(),
        trace.compressed_size()
    );
}
