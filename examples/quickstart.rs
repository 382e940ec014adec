//! Quickstart: trace a small SPMD stencil with Chameleon.
//!
//! Runs an 8-rank simulated MPI job whose ranks exchange halos in a ring
//! and reduce a residual each timestep, with a Chameleon marker at every
//! timestep boundary. Prints the transition-graph statistics and the
//! resulting online global trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chameleon::{Chameleon, ChameleonConfig};
use mpisim::{World, WorldConfig};
use scalatrace::{format, TracedProc};

fn main() {
    let ranks = 8;
    let timesteps = 20;

    let report = World::new(WorldConfig::new(ranks))
        .run(move |proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(3));
            let me = tp.rank();
            let p = tp.size();
            for _ in 0..timesteps {
                tp.frame("timestep", |tp| {
                    // Halo exchange with ring neighbors.
                    tp.send("halo_up", (me + 1) % p, 1, 256);
                    tp.recv("halo_down", (me + p - 1) % p, 1, 256);
                    // Convergence check.
                    tp.allreduce_sum("residual", 1);
                });
                tp.compute(1e-4);
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp)
        })
        .expect("simulation failed");

    let outcome = &report.results[0];
    let stats = &outcome.stats;
    println!("=== Chameleon quickstart ===");
    println!("ranks:              {ranks}");
    println!("timesteps:          {timesteps}");
    println!("marker calls:       {}", stats.marker_calls);
    println!(
        "states:             AT={} C={} L={} F={}",
        stats.states.at, stats.states.c, stats.states.l, stats.states.f
    );
    println!("call-path groups:   {}", stats.call_paths);
    println!("lead processes:     {}", stats.leads);
    println!(
        "tool overhead:      {:.3} ms (signatures {:?}, vote {:?}, clustering {:?}, inter-compression {:?})",
        stats.total_overhead().as_secs_f64() * 1e3,
        stats.signature_time,
        stats.vote_time,
        stats.clustering_time,
        stats.intercomp_time,
    );

    let trace = outcome
        .online_trace
        .as_ref()
        .expect("rank 0 holds the online trace");
    println!(
        "\nonline trace: {} compressed nodes representing {} dynamic events",
        trace.compressed_size(),
        trace.dynamic_size()
    );
    println!("\n--- trace file ---\n{}", format::to_text(trace));
}
