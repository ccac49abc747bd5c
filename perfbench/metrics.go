package main

// MetricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units and directions.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run reports, on every workload.
// Each workload defines its unit of work (README.md, "End-to-end metrics"):
// one complete reproduction, one feed chain shipped into a fresh streaming
// set, or one burst of audit rotations beside a feed slot.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_s", "s", "lower"},
	{"unit_s", "s", "lower"},
}

// experimentIDs are the registered experiments, in registry order; each gets
// a per-layer wall-time metric from the reproduce run manifest.
var experimentIDs = []string{
	"fig1", "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"table2", "table3", "table4", "table5", "norm3", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "extensions", "ablations", "streameq", "divergence",
}

// perLayer are the metrics every traced run reports.
var perLayer = func() []MetricDef {
	defs := []MetricDef{
		{"sim.build_A_s", "s", "lower"},
		{"sim.build_B_s", "s", "lower"},
		{"sim.build_C_s", "s", "lower"},
		{"sim.feed_build_C_s", "s", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.vsize_scan_share", "ratio", "lower"},
		{"sim.repro_share_build_C", "ratio", "lower"},
		{"dataset.csv_write_ms", "ms", "lower"},
		{"dataset.csv_read_ms", "ms", "lower"},
		{"index.build_ms", "ms", "lower"},
		{"index.append_ms", "ms", "lower"},
		{"index.first_seen_ms", "ms", "lower"},
		{"core.observe_block_us", "us", "lower"},
		{"core.audit_ppe_ms", "ms", "lower"},
		{"core.audit_lowfee_ms", "ms", "lower"},
		{"core.audit_darkfee_ms", "ms", "lower"},
		{"core.audit_selfinterest_ms", "ms", "lower"},
		{"core.window_ppe_ms", "ms", "lower"},
		{"core.window_lowfee_ms", "ms", "lower"},
		{"core.window_darkfee_ms", "ms", "lower"},
		{"core.divergence_ms", "ms", "lower"},
		{"report.render_ms", "ms", "lower"},
		{"pipeline.occupancy", "ratio", "higher"},
		{"serve.decode_ms", "ms", "lower"},
		{"serve.ingest_ms", "ms", "lower"},
		{"serve.ingest_wal_ms", "ms", "lower"},
		{"serve.checkpoint_ms", "ms", "lower"},
		{"serve.wal_bytes_per_block", "B", "lower"},
		{"serve.fsyncs", "count", "lower"},
		{"serve.checkpoints", "count", "lower"},
		{"serve.recover_ms_per_set", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"observer.frame_ms", "ms", "lower"},
		{"observer.roundtrip_ms", "ms", "lower"},
		{"observer.bytes_per_block", "B", "lower"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, MetricDef{"experiments." + id + "_ms", "ms", "lower"})
	}
	return defs
}()
