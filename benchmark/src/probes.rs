//! Layer probes: one number per layer (crate or crate.module), taken by
//! timing calls into its public functions on fixed inputs. They run in
//! the traced run only, after the workload's own traced ops, and are the
//! same whatever the workload — so a layer metric means one thing.
//!
//! Every probe reports the median of a few repetitions; a probe is sized
//! to take tens of milliseconds, the whole suite well under ten seconds.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use chameleon::Checkpoint;
use clusterkit::{find_top_k, ClusterAlgorithm, ClusterEntry, KFarthest};
use mpisim::{Comm, CostModel, SrcSel, TagSel, World, WorldConfig};
use obs::{query, Counter, HistId, MetricSet};
use scalatrace::format::{from_text, to_text};
use scalatrace::merge::{
    merge_all, merge_traces, merge_traces_reference, merge_traces_with_metrics,
};
use scalatrace::reduction::{radix_tree_merge, DEFAULT_RADIX};
use scalatrace::{CompressedTrace, RankSet};
use sigkit::stack::{frame_addr, CallStack};
use sigkit::{CallPathAccumulator, CallPathSig, SignatureTriple, StackSig};
use workloads::driver::{run, Mode, Overrides, RunReport};
use workloads::{registry, Class};

use crate::gen::{near_identical, trace_with_sites, Rng, FOLD_SITES, PAIR_N};
use crate::harness::Workload as _;
use crate::serve_wl::{Daemon, Journals, QueryWorkload, CACHE_ENTRIES, SESSIONS};
use crate::spans::SpanLog;
use crate::stats::median_of;
use crate::sys::Pinning;
use crate::trace_wl::{sim_overrides, SCALE};

/// Probe results, by layer-metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Wall time of each of `reps` calls of `f`, in seconds.
fn samples<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_secs<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    median_of(&samples(reps, f))
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// The whole probe suite, pinned like the workloads: everything on the
/// first CPU except the daemon's threads.
pub fn run_all(
    seed: u64,
    pin: &Pinning,
    journals: &Journals,
    out_dir: &Path,
) -> Result<Values, String> {
    let mut v = Values::new();
    pin.one();
    sigkit_probes(&mut v);
    scalatrace_probes(&mut v);
    clusterkit_probes(&mut v);
    mpisim_probes(&mut v);
    sim_probes(&mut v, pin);
    obs_probes(&mut v, journals);
    chamserve_probes(&mut v, seed, pin, journals, out_dir)?;
    Ok(v)
}

fn sigkit_probes(v: &mut Values) {
    let mut cs = CallStack::new();
    for frame in ["main", "timestep", "solver"] {
        cs.push(frame_addr(frame));
    }
    let site = frame_addr("halo_send");
    const CALLS: usize = 100_000;
    let t = median_secs(7, || {
        for _ in 0..CALLS {
            black_box(black_box(&cs).signature_with(site));
        }
    });
    v.push(("sigkit.stack_sig_ns", t * 1e9 / CALLS as f64));

    let t = median_secs(21, || {
        let mut acc = CallPathAccumulator::new();
        for i in 0..10_000u64 {
            acc.record(StackSig(black_box(i) % 7 + 1));
        }
        acc.finish()
    });
    v.push(("sigkit.callpath_10k_us", t * 1e6));
}

fn scalatrace_probes(v: &mut Values) {
    // Intra-node compression: a periodic stream folds into one loop, an
    // irregular one never folds.
    const PERIODIC: usize = 2000;
    let t = median_secs(21, || {
        let mut t = CompressedTrace::new();
        for i in 0..PERIODIC {
            t.append(crate::gen::event(0, (i % 8) as u64));
        }
        t
    });
    v.push(("scalatrace.append_ns_per_event", t * 1e9 / PERIODIC as f64));
    const IRREGULAR: usize = 512;
    let t = median_secs(21, || trace_with_sites(0, IRREGULAR, 0));
    v.push((
        "scalatrace.append_irregular_ns_per_event",
        t * 1e9 / IRREGULAR as f64,
    ));

    // The three pairwise merge paths at n = 1024.
    let a = trace_with_sites(0, PAIR_N, 0);
    let same = trace_with_sites(1, PAIR_N, 0);
    let apart = trace_with_sites(1, PAIR_N, PAIR_N as u64);
    let near = (
        near_identical(0, PAIR_N, 0, &[PAIR_N / 2]),
        near_identical(1, PAIR_N, 0, &[PAIR_N / 2]),
    );
    let t = median_secs(15, || merge_traces(&a, &same));
    v.push(("scalatrace.merge_identical_us", t * 1e6));
    let t = median_secs(15, || merge_traces(&near.0, &near.1));
    v.push(("scalatrace.merge_near_us", t * 1e6));
    let disjoint = median_secs(7, || merge_traces(&a, &apart));
    v.push(("scalatrace.merge_disjoint_us", disjoint * 1e6));
    let t = median_secs(7, || merge_traces_reference(&a, &apart));
    v.push(("scalatrace.merge_reference_disjoint_us", t * 1e6));
    let cells = merge_traces_with_metrics(&a, &apart).1.dp_cells;
    v.push(("scalatrace.merge_dp_cells", cells as f64));
    v.push((
        "scalatrace.merge_ns_per_dp_cell",
        disjoint * 1e9 / cells as f64,
    ));

    // The P-wide fold of SPMD traces, and how it grows with P.
    let spmd: Vec<CompressedTrace> = (0..1024)
        .map(|r| trace_with_sites(r, FOLD_SITES, 0))
        .collect();
    let t256 = median_secs(5, || merge_all(spmd[..256].iter()));
    let t1024 = median_secs(3, || merge_all(spmd.iter()));
    v.push(("scalatrace.fold_spmd_p256_ms", t256 * 1e3));
    v.push(("scalatrace.fold_spmd_p1024_ms", t1024 * 1e3));
    v.push(("scalatrace.fold_growth_x", t1024 / t256 / 4.0));

    // One step of that fold's ranklist growth: 511 ranks ∪ one more.
    let acc = RankSet::from_ranks(0..511);
    let next = RankSet::singleton(511);
    const UNIONS: usize = 200;
    let t = median_secs(7, || {
        for _ in 0..UNIONS {
            black_box(black_box(&acc).union(black_box(&next)));
        }
    });
    v.push(("scalatrace.ranklist_union_ns", t * 1e9 / UNIONS as f64));

    // Wall of the radix-tree reduction in a 64-rank world, and the
    // modeled (tool-clock) time its root books for it.
    let mut root_tool_s = 0.0;
    let t = median_secs(5, || {
        let report = World::new(WorldConfig::new(64).with_workers(1))
            .run(|proc| {
                let mine = trace_with_sites(proc.rank(), FOLD_SITES, 0);
                let all: Vec<usize> = (0..proc.size()).collect();
                let out = radix_tree_merge(proc, DEFAULT_RADIX, &all, &mine);
                assert_eq!(out.degraded, 0, "fault-free reduction must be exact");
                proc.tool_time()
            })
            .expect("reduction world");
        root_tool_s = report.results[0];
    });
    v.push(("scalatrace.radix_merge_p64_ms", t * 1e3));
    v.push(("scalatrace.radix_root_tool_s", root_tool_s));
}

fn clusterkit_probes(v: &mut Values) {
    let n = 64usize;
    let coords: Vec<f64> = (0..n).map(|i| (i as f64 * 37.0) % 1000.0).collect();
    let dist = |a: usize, b: usize| (coords[a] - coords[b]).abs();
    let t = median_secs(51, || KFarthest.select(n, 9, &dist));
    v.push(("clusterkit.kfarthest_select_us", t * 1e6));

    // The per-tree-node working set: (radix + 1) · K + 1 entries down to K.
    let entries: Vec<ClusterEntry> = (0..19u64)
        .map(|r| {
            ClusterEntry::singleton(
                r as usize,
                &SignatureTriple {
                    call_path: CallPathSig(1),
                    src: r.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 10_000,
                    dest: r.wrapping_mul(0xbf58_476d_1ce4_e5b9) % 10_000,
                },
            )
        })
        .collect();
    let t = median_secs(51, || find_top_k(entries.clone(), 9, &KFarthest));
    v.push(("clusterkit.find_top_k_us", t * 1e6));
}

fn mpisim_probes(v: &mut Values) {
    let world = || World::new(WorldConfig::new(64).with_workers(1));
    let t = median_secs(7, || world().run(|proc| proc.rank()).expect("empty world"));
    v.push(("mpisim.spawn_teardown_p64_ms", t * 1e3));

    // A 64-rank ring: every rank sends right and receives from the left.
    const LAPS: usize = 200;
    let t = median_secs(5, || {
        world()
            .run(|proc| {
                let (me, p) = (proc.rank(), proc.size());
                for _ in 0..LAPS {
                    proc.send((me + 1) % p, 7, Comm::WORLD, &[0u8; 64]);
                    proc.recv(SrcSel::Rank((me + p - 1) % p), TagSel::Tag(7), Comm::WORLD);
                }
            })
            .expect("ring world")
    });
    v.push(("mpisim.p2p_msgs_per_s", (64 * LAPS) as f64 / t));

    const REDUCES: usize = 50;
    let t = median_secs(5, || {
        world()
            .run(|proc| (0..REDUCES).fold(0, |acc, _| acc + proc.allreduce_sum(1)))
            .expect("allreduce world")
    });
    v.push(("mpisim.allreduce_per_s", REDUCES as f64 / t));

    let payload = vec![0xa5u8; 1 << 20];
    let t = median_secs(9, || {
        let framed = mpisim::reliable::frame(1, &payload);
        mpisim::reliable::unframe(&framed).expect("own frame decodes")
    });
    v.push(("mpisim.frame_mb_s", mb_per_s(payload.len(), t)));
}

/// BT at 64 ranks under `mode`, `reps` times: the median wall in seconds
/// and the last report.
fn bt_runs(reps: usize, mode: Mode, overrides: Overrides) -> (f64, RunReport) {
    let app = registry::workload("BT", SCALE);
    let mut last = None;
    let t = median_secs(reps, || {
        last = Some(run(
            app.clone(),
            Class::D,
            64,
            mode.clone(),
            overrides.clone(),
        ));
    });
    (t, last.expect("at least one repetition"))
}

/// Whole-run probes on BT at 64 ranks: what tracing costs on top of the
/// application, measured (wall difference on one CPU) and modeled (the
/// tool clock, summed over ranks) — their ratio is the calibration check
/// of `mpisim::WorkModel`.
fn sim_probes(v: &mut Values, pin: &Pinning) {
    let (app, _) = bt_runs(5, Mode::AppOnly, sim_overrides());
    v.push(("mpisim.app_run_ms", app * 1e3));

    pin.all();
    let (unpinned, _) = bt_runs(5, Mode::AppOnly, Overrides::default());
    pin.one();
    v.push(("mpisim.sched_unpinned_x", unpinned / app));

    let (st, st_report) = bt_runs(5, Mode::ScalaTrace, sim_overrides());
    v.push(("scalatrace.finalize_tool_wall_ms", (st - app) * 1e3));
    v.push((
        "scalatrace.finalize_tool_model_ms",
        st_report.total_overhead().as_secs_f64() * 1e3,
    ));

    let (ch, ch_report) = bt_runs(5, Mode::Chameleon, sim_overrides());
    let sum = |f: fn(&chameleon::ChameleonStats) -> std::time::Duration| {
        ch_report
            .cham_stats
            .iter()
            .map(f)
            .sum::<std::time::Duration>()
            .as_secs_f64()
            * 1e3
    };
    let model_ms = ch_report.total_overhead().as_secs_f64() * 1e3;
    v.push(("chameleon.tool_wall_ms", (ch - app) * 1e3));
    v.push(("chameleon.tool_model_ms", model_ms));
    v.push(("chameleon.signature_model_ms", sum(|s| s.signature_time)));
    v.push((
        "chameleon.clustering_model_ms",
        sum(|s| s.clustering_time + s.vote_time),
    ));
    v.push(("chameleon.intercomp_model_ms", sum(|s| s.intercomp_time)));
    v.push(("chameleon.workmodel_ratio", (ch - app) * 1e3 / model_ms));

    let trace = ch_report
        .global_trace
        .expect("Chameleon mode yields a trace");
    let mut events = 0;
    let t = median_secs(5, || {
        let r = scalareplay::replay(&trace, 64, CostModel::default()).expect("replay");
        events = r.events_executed;
    });
    v.push(("scalareplay.replay_ms", t * 1e3));
    v.push(("scalareplay.events_per_s", events as f64 / t));

    // The text codec on the largest trace the workloads produce: EMF's
    // master–worker trace at 64 ranks (about 400 KB).
    let emf = run(
        registry::workload("EMF", SCALE),
        Class::D,
        64,
        Mode::Chameleon,
        sim_overrides(),
    )
    .global_trace
    .expect("Chameleon mode yields a trace");
    let text = to_text(&emf);
    let t = median_secs(9, || to_text(&emf));
    v.push(("scalatrace.to_text_mb_s", mb_per_s(text.len(), t)));
    let t = median_secs(9, || from_text(&text).expect("own text parses"));
    v.push(("scalatrace.from_text_mb_s", mb_per_s(text.len(), t)));

    let ckpt = Checkpoint {
        marker: 10,
        marker_calls: 10,
        root: 0,
        alive: (0..64).collect(),
        old_call_path: CallPathSig(7),
        re_clustering: false,
        lead_flag: false,
        selection: None,
        trace: emf,
        metrics: Vec::new(),
        journal_hwm: 0,
    };
    let blob = ckpt.encode();
    let t = median_secs(9, || ckpt.encode());
    v.push(("chameleon.ckpt_encode_us", t * 1e6));
    let t = median_secs(9, || Checkpoint::decode(&blob).expect("own blob decodes"));
    v.push(("chameleon.ckpt_decode_us", t * 1e6));
}

fn obs_probes(v: &mut Values, journals: &Journals) {
    let (bt, lu) = (&journals.decoded[0], &journals.decoded[1]);
    let text = &journals.texts[0];
    let t = median_secs(9, || bt.to_jsonl());
    v.push(("obs.journal_encode_mb_s", mb_per_s(text.len(), t)));
    let t = median_secs(9, || {
        obs::RunJournal::from_jsonl(text).expect("own JSONL parses")
    });
    v.push(("obs.journal_parse_mb_s", mb_per_s(text.len(), t)));

    let mut rng = Rng::new(1);
    let mut set = MetricSet::new();
    set.add(Counter::Merges, 1000);
    set.add(Counter::DpCells, 1 << 30);
    for _ in 0..5000 {
        set.observe(HistId::RecvWaitNs, rng.next_u64() >> 30);
        set.observe(HistId::DpCellsPerMerge, rng.next_u64() >> 44);
    }
    const MERGES: usize = 1000;
    let t = median_secs(9, || {
        let mut acc = MetricSet::new();
        for _ in 0..MERGES {
            acc.merge(black_box(&set));
        }
        acc
    });
    v.push(("obs.metricset_merge_ns", t * 1e9 / MERGES as f64));
    let wire = set.encode();
    let t = median_secs(21, || MetricSet::decode(&wire).expect("own sketch decodes"));
    v.push(("obs.metricset_decode_us", t * 1e6));

    let t = median_secs(15, || query::summarize_json(bt));
    v.push(("obs.query_summarize_us", t * 1e6));
    let t = median_secs(15, || query::timeline_json(bt, 3));
    v.push(("obs.query_timeline_us", t * 1e6));
    let t = median_secs(15, || query::spans_json(bt));
    v.push(("obs.query_spans_us", t * 1e6));
    let t = median_secs(15, || query::metrics_json(bt));
    v.push(("obs.query_metrics_us", t * 1e6));
    let t = median_secs(15, || query::anomalies_json(bt));
    v.push(("obs.query_anomalies_us", t * 1e6));
    let t = median_secs(15, || query::diff_json(bt, lu));
    v.push(("obs.query_diff_us", t * 1e6));
}

/// Requests of the seeded `serve_query` mix the daemon answers before its
/// telemetry is read back.
const MIX_REQUESTS: usize = 2000;

fn chamserve_probes(
    v: &mut Values,
    seed: u64,
    pin: &Pinning,
    journals: &Journals,
    out_dir: &Path,
) -> Result<(), String> {
    let text = &journals.texts[0];
    let t = median_secs(9, || chamserve::util::crc32(text.as_bytes()));
    v.push(("chamserve.crc32_mb_s", mb_per_s(text.len(), t)));

    // The store without HTTP in front of it, cache disabled so that every
    // journal() call reloads and decodes the spill.
    let store_dir = out_dir
        .join("tmp")
        .join(format!("probe_store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let probe = || -> Result<(f64, f64, f64), String> {
        let store = chamserve::SessionStore::open(&store_dir, 0).map_err(|e| e.detail)?;
        let mut n = 0;
        let ingest = median_secs(7, || {
            n += 1;
            store
                .ingest_journal(&format!("direct-{n}"), text, None)
                .expect("ingest")
        });
        let miss = median_secs(9, || {
            store.journal("direct-1", None).expect("spilled journal")
        });
        let blob = vec![0x5au8; 512 << 10];
        let file = store_dir.join("atomic.bin");
        let write = median_secs(7, || chamserve::util::atomic_write(&file, &blob, None));
        Ok((ingest, miss, write))
    };
    let timed = probe();
    let _ = std::fs::remove_dir_all(&store_dir);
    let (ingest, miss, write) = timed?;
    v.push(("chamserve.store_ingest_ms", ingest * 1e3));
    v.push(("chamserve.store_ingest_mb_s", mb_per_s(text.len(), ingest)));
    v.push(("chamserve.store_load_miss_ms", miss * 1e3));
    v.push(("chamserve.atomic_write_ms", write * 1e3));

    // A daemon pre-loaded like serve_query's, stopped, rehydrated, and
    // started again over the same directory with clean telemetry.
    let loaded = QueryWorkload::setup(seed, journals, out_dir, pin)?;
    let ingest_bytes = loaded.daemon().counter("ingest_bytes")?;
    v.push(("chamserve.ingest_bytes", ingest_bytes as f64));
    let dir = loaded.into_daemon().stop_keep_dir();
    let rehydrate = median_secs(3, || {
        chamserve::SessionStore::open(&dir, CACHE_ENTRIES).map(|s| s.sessions_live())
    });
    v.push(("chamserve.rehydrate_s", rehydrate));
    let w = QueryWorkload::over(Daemon::open(dir, pin)?, seed, journals);
    let daemon = w.daemon();

    // The serve_query mix from one client, then the telemetry it left.
    let mut log = SpanLog::off();
    let failed = (0..MIX_REQUESTS)
        .filter(|&i| !w.op(0, i, &mut log).ok)
        .count();
    if failed > 0 {
        return Err(format!(
            "{failed} of {MIX_REQUESTS} probe queries got a wrong answer"
        ));
    }
    let m = daemon.metrics()?;
    let counter = |name: &str| {
        m.at(&["counters", name])
            .and_then(crate::json::Json::as_f64)
            .ok_or_else(|| format!("/metrics has no counter {name:?}"))
    };
    let (hits, misses) = (counter("cache_hits")?, counter("cache_misses")?);
    v.push(("chamserve.cache_hit_ratio", hits / (hits + misses)));
    v.push(("chamserve.cache_evictions", counter("cache_evictions")?));
    v.push(("chamserve.http_5xx", counter("http_5xx")?));
    v.push(("chamserve.load_shed_429", counter("load_shed_429")?));
    let p99_ns = m
        .at(&["hists", "request_latency_ns", "p99"])
        .and_then(crate::json::Json::as_f64)
        .ok_or("/metrics has no request_latency_ns.p99")?;
    v.push(("chamserve.req_p99_us", p99_ns / 1e3));

    let t = median_secs(201, || daemon.get("/healthz"));
    v.push(("chamserve.http_roundtrip_us", t * 1e6));

    // Hits: eight sessions, fewer than the cache holds, asked in turn.
    // Misses: all 48 asked in turn, so the LRU of 16 never has the next.
    let scan = |sessions: usize, laps: usize| {
        let slots: Vec<usize> = (0..sessions).map(QueryWorkload::summarize_slot).collect();
        for &slot in &slots {
            w.get(slot, &mut SpanLog::off());
        }
        let mut slot = slots.iter().cycle();
        let all = samples(sessions * laps, || {
            w.get(*slot.next().expect("cycle never ends"), &mut SpanLog::off())
        });
        median_of(&all) * 1e6
    };
    v.push(("chamserve.q_hit_p50_us", scan(8, 40)));
    v.push(("chamserve.q_miss_p50_us", scan(SESSIONS, 4)));
    Ok(())
}
