package main

// The metric catalogue. BENCHMARK.json lists the same names and units; the
// smoke test holds the two together.

// Bounds are wide because the benchmark runs on shared two-core machines:
// there, even a single-threaded CPU loop timed over 5-second windows moves
// by 7% (quartile spread), and the time metrics of a run move by 5-20%
// across seeds.
type e2eMetric struct {
	name, unit, better string
	bound              float64 // share of the parent's median a change may lose
}

var endToEnd = []e2eMetric{
	{"updates_per_s", "updates/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p99_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"server_cpu_s", "s", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// layerMetric is one per-layer figure of the traced run. moves names the
// end-to-end metric a change to the layer should move, and on is the
// workload to read it on.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var perLayer = []layerMetric{
	{"http.requests", "count", "higher", "ingest_p50_ms", "tenants-mixed"},
	{"http.handler_us_p50", "us", "lower", "ingest_p50_ms", "tenants-mixed"},
	{"http.overhead_us_per_req", "us", "lower", "ingest_p50_ms", "tenants-mixed"},
	{"http.conns_new", "count", "lower", "ingest_p50_ms, updates_per_s", "upload-fanin"},
	{"http.conn_reuse_ratio", "ratio", "higher", "ingest_p50_ms, updates_per_s", "upload-fanin"},
	{"wire.frames", "count", "higher", "server_cpu_s, updates_per_s", "raw-bulk"},
	{"wire.decode_ns_per_update", "ns", "lower", "server_cpu_s, updates_per_s", "raw-bulk"},
	{"codec.fingerprint_ns_per_kb", "ns", "lower", "server_cpu_s", "raw-bulk"},
	{"journal.appends", "count", "higher", "updates_per_s, ingest_p50_ms", "raw-bulk"},
	{"journal.bytes", "bytes", "lower", "updates_per_s, ingest_p50_ms", "raw-bulk"},
	{"journal.append_us_p50", "us", "lower", "updates_per_s, ingest_p50_ms", "raw-bulk"},
	{"seal.count", "count", "lower", "ingest_p99_ms", "raw-bulk, upload-fanin"},
	{"seal.ms_p50", "ms", "lower", "ingest_p99_ms", "raw-bulk, upload-fanin"},
	{"seal.bytes", "bytes", "lower", "ingest_p99_ms", "raw-bulk, upload-fanin"},
	{"recovery.open_ms", "ms", "lower", "recovery_s", "raw-bulk"},
	{"recovery.replayed_updates", "count", "lower", "recovery_s", "raw-bulk"},
	{"engine.routed", "count", "higher", "none (a count that should not move)", "all"},
	{"engine.checkpoints", "count", "lower", "none (a count that should not move)", "all"},
	{"engine.route_ns_per_update", "ns", "lower", "ingest_p50_ms", "raw-bulk"},
	{"engine.snapshot_ms_p50", "ms", "lower", "query_p50_ms", "tenants-mixed"},
	{"engine.workers", "count", "lower", "peak_rss_mb, server_cpu_s", "tenants-mixed"},
	{"l0.absorb_ns_per_update", "ns", "lower", "updates_per_s, server_cpu_s", "raw-bulk"},
	{"l0.serial_updates_per_s", "updates/s", "higher", "none (single-threaded reference)", "raw-bulk"},
	{"lp.absorb_ns_per_update", "ns", "lower", "updates_per_s, query_p95_ms", "tenants-mixed"},
	{"query.merged_ms_p50", "ms", "lower", "query_p50_ms", "tenants-mixed"},
	{"l0.sample_us_p50", "us", "lower", "query_p50_ms, query_p95_ms", "tenants-mixed"},
	{"lp.sample_ms_p50", "ms", "lower", "query_p50_ms, query_p95_ms", "tenants-mixed"},
	{"sample.fail_ratio", "ratio", "lower", "none (the sampler's failure rate, should not move)", "tenants-mixed"},
	{"mergetree.adds", "count", "higher", "ingest_p50_ms", "upload-fanin"},
	{"mergetree.leaf_folds", "count", "lower", "ingest_p50_ms", "upload-fanin"},
	{"mergetree.add_us_p50", "us", "lower", "ingest_p50_ms", "upload-fanin"},
	{"mergetree.flush_ms_p50", "ms", "lower", "ingest_p50_ms", "upload-fanin"},
	{"codec.load_us_p50", "us", "lower", "ingest_p50_ms", "upload-fanin"},
	{"codec.upload_bytes", "bytes", "lower", "ingest_p50_ms", "upload-fanin"},
	{"codec.marshal_us_p50", "us", "lower", "query_p50_ms, ingest_p99_ms", "tenants-mixed, upload-fanin"},
	{"loadgen.lag_ms_p99", "ms", "lower", "none (run validity)", "tenants-mixed"},
	{"trace.overhead_pct", "%", "lower", "none (run validity)", "all"},
	{"ledger.residual_pct", "%", "lower", "none (share of server_cpu_s no layer accounts for)", "all"},
}
