//! The per-layer metrics, by name: unit, which direction is better, and
//! the end-to-end metric each should move on which workload. On every
//! workload not named, the prediction is no change.
//!
//! `BENCHMARK.json` lists the same names and units (a test keeps the two
//! in step); its schema has no room for the `moves` column, so that
//! lives here and in `README.md`.

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SIG: &str = "cpu_ms_per_op on trace_online, trace_finalize";
const APPEND: &str =
    "ops_per_s on trace_finalize (all ranks always tracing); weaker on trace_online";
const MERGE: &str = "ops_per_s, op_p50_ms on fold_offline; ops_per_s on trace_finalize";
const CODEC: &str = "op_p90_ms on trace_online (the EMF op)";
const FINALIZE: &str = "ops_per_s on trace_finalize";
const CLUSTER: &str = "cpu_ms_per_op on trace_online";
const ONLINE: &str = "ops_per_s on trace_online";
const SIM: &str = "ops_per_s, op_p50_ms on trace_online, trace_finalize";
const REPLAY: &str = "op_p50_ms on trace_online";
const JOURNAL: &str = "ops_per_s on serve_ingest; op_p90_ms on serve_query (misses)";
const INGEST: &str = "ops_per_s on serve_ingest";
const RENDER: &str = "op_p50_ms on serve_query";
const QUERY: &str = "op_p50_ms, op_p90_ms on serve_query";
const SPAN: &str = "op_p50_ms on the workload traced (0 where the workload never makes the call)";

pub const LAYERS: &[Layer] = &[
    layer("sigkit.stack_sig_ns", "ns", "lower", SIG),
    layer("sigkit.callpath_10k_us", "us", "lower", SIG),
    layer("scalatrace.append_ns_per_event", "ns", "lower", APPEND),
    layer(
        "scalatrace.append_irregular_ns_per_event",
        "ns",
        "lower",
        APPEND,
    ),
    layer("scalatrace.merge_identical_us", "us", "lower", MERGE),
    layer("scalatrace.merge_near_us", "us", "lower", MERGE),
    layer("scalatrace.merge_disjoint_us", "us", "lower", MERGE),
    layer(
        "scalatrace.merge_reference_disjoint_us",
        "us",
        "lower",
        MERGE,
    ),
    layer("scalatrace.merge_dp_cells", "count", "lower", MERGE),
    layer("scalatrace.merge_ns_per_dp_cell", "ns", "lower", MERGE),
    layer("scalatrace.fold_spmd_p256_ms", "ms", "lower", MERGE),
    layer("scalatrace.fold_spmd_p1024_ms", "ms", "lower", MERGE),
    layer("scalatrace.fold_growth_x", "x", "lower", MERGE),
    layer("scalatrace.ranklist_union_ns", "ns", "lower", MERGE),
    layer("scalatrace.to_text_mb_s", "MB/s", "higher", CODEC),
    layer("scalatrace.from_text_mb_s", "MB/s", "higher", CODEC),
    layer("scalatrace.radix_merge_p64_ms", "ms", "lower", FINALIZE),
    layer("scalatrace.radix_root_tool_s", "s", "lower", FINALIZE),
    layer("scalatrace.finalize_tool_wall_ms", "ms", "lower", FINALIZE),
    layer("scalatrace.finalize_tool_model_ms", "ms", "lower", FINALIZE),
    layer("clusterkit.kfarthest_select_us", "us", "lower", CLUSTER),
    layer("clusterkit.find_top_k_us", "us", "lower", CLUSTER),
    layer("chameleon.tool_wall_ms", "ms", "lower", ONLINE),
    layer("chameleon.tool_model_ms", "ms", "lower", ONLINE),
    layer("chameleon.signature_model_ms", "ms", "lower", ONLINE),
    layer("chameleon.clustering_model_ms", "ms", "lower", ONLINE),
    layer("chameleon.intercomp_model_ms", "ms", "lower", ONLINE),
    layer("chameleon.workmodel_ratio", "x", "lower", ONLINE),
    layer("chameleon.ckpt_encode_us", "us", "lower", ONLINE),
    layer("chameleon.ckpt_decode_us", "us", "lower", ONLINE),
    layer("mpisim.app_run_ms", "ms", "lower", SIM),
    layer("mpisim.spawn_teardown_p64_ms", "ms", "lower", SIM),
    layer("mpisim.p2p_msgs_per_s", "1/s", "higher", SIM),
    layer("mpisim.allreduce_per_s", "1/s", "higher", SIM),
    layer("mpisim.frame_mb_s", "MB/s", "higher", SIM),
    layer("mpisim.sched_unpinned_x", "x", "lower", SIM),
    layer("scalareplay.replay_ms", "ms", "lower", REPLAY),
    layer("scalareplay.events_per_s", "1/s", "higher", REPLAY),
    layer("obs.journal_encode_mb_s", "MB/s", "higher", JOURNAL),
    layer("obs.journal_parse_mb_s", "MB/s", "higher", JOURNAL),
    layer("obs.metricset_merge_ns", "ns", "lower", INGEST),
    layer("obs.metricset_decode_us", "us", "lower", INGEST),
    layer("obs.query_summarize_us", "us", "lower", RENDER),
    layer("obs.query_timeline_us", "us", "lower", RENDER),
    layer("obs.query_spans_us", "us", "lower", RENDER),
    layer("obs.query_metrics_us", "us", "lower", RENDER),
    layer("obs.query_anomalies_us", "us", "lower", RENDER),
    layer("obs.query_diff_us", "us", "lower", RENDER),
    layer("chamserve.http_roundtrip_us", "us", "lower", RENDER),
    layer("chamserve.store_ingest_ms", "ms", "lower", INGEST),
    layer("chamserve.store_ingest_mb_s", "MB/s", "higher", INGEST),
    layer("chamserve.crc32_mb_s", "MB/s", "higher", INGEST),
    layer("chamserve.atomic_write_ms", "ms", "lower", INGEST),
    layer("chamserve.store_load_miss_ms", "ms", "lower", QUERY),
    layer("chamserve.q_hit_p50_us", "us", "lower", QUERY),
    layer("chamserve.q_miss_p50_us", "us", "lower", QUERY),
    layer(
        "chamserve.rehydrate_s",
        "s",
        "lower",
        "setup_s on serve_query",
    ),
    layer("chamserve.cache_hit_ratio", "ratio", "higher", QUERY),
    layer("chamserve.cache_evictions", "count", "lower", QUERY),
    layer(
        "chamserve.ingest_bytes",
        "bytes",
        "lower",
        "out_bytes_per_op on serve_ingest",
    ),
    layer(
        "chamserve.req_p99_us",
        "us",
        "lower",
        "op_p90_ms on serve_query",
    ),
    layer(
        "chamserve.http_5xx",
        "count",
        "lower",
        "failed ops on serve_ingest, serve_query",
    ),
    layer(
        "chamserve.load_shed_429",
        "count",
        "lower",
        "failed ops on serve_ingest, serve_query",
    ),
    layer("span.op.self_ms", "ms", "lower", SPAN),
    layer("span.workloads.run.self_ms", "ms", "lower", SPAN),
    layer("span.scalatrace.to_text.self_ms", "ms", "lower", SPAN),
    layer("span.scalatrace.from_text.self_ms", "ms", "lower", SPAN),
    layer("span.scalareplay.replay.self_ms", "ms", "lower", SPAN),
    layer("span.scalatrace.merge_all.self_ms", "ms", "lower", SPAN),
    layer("span.scalatrace.merge_traces.self_ms", "ms", "lower", SPAN),
    layer("span.chamserve.push.self_ms", "ms", "lower", SPAN),
    layer("span.chamserve.get.self_ms", "ms", "lower", SPAN),
    layer(
        "bench.span_cover_frac",
        "ratio",
        "higher",
        "none: span self times ÷ op wall, 1.0 when every op is covered",
    ),
    layer(
        "bench.trace_overhead_frac",
        "ratio",
        "lower",
        "none: ops_per_s lost to span recording on the workload traced",
    ),
];
