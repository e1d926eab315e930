package main

// metricDef names one metric of BENCHMARK.json. The smoke test asserts that
// these two lists and the file agree, name for name and unit for unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; an untraced run prints exactly
// these. Throughputs and percentiles are medians over one-second slices.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"mig_txn_per_s", "1/s"},
	{"mig_txn_p99_us", "us"},
	{"mig_s_p50", "s"},
	{"mig_tuples_per_s", "1/s"},
}

// perLayer is what a traced run prints: one block per package under
// internal/. README.md says which end-to-end metric each should move, and on
// which workload. A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"cluster.begin_us_p50", "us"},
	{"cluster.stmt_read_us_p50", "us"},
	{"cluster.stmt_write_us_p50", "us"},
	{"cluster.scan_us_p50", "us"},
	{"cluster.commit_us_p50", "us"},
	{"cluster.driver_self_us_p50", "us"},
	{"cluster.span_residual_frac", "ratio"},
	{"cluster.participants_per_txn", "count"},

	{"simnet.msgs_per_txn", "count"},
	{"simnet.bytes_per_txn", "B"},
	{"simnet.mig_bytes_per_tuple", "B"},

	{"clock.gts_requests_per_txn", "count"},
	{"clock.lease_refreshes_per_ktxn", "count"},
	{"clock.start_ts_ns", "ns"},

	{"txn.commit_ns_p50", "ns"},
	{"txn.local_write_txn_ns", "ns"},
	{"txn.aborts_ww", "count"},
	{"txn.aborts_migration", "count"},

	{"mvcc.read_ns", "ns"},
	{"mvcc.write_ns", "ns"},
	{"mvcc.scan_ns_per_row", "ns"},
	{"mvcc.array_swaps_per_write", "count"},
	{"mvcc.lockfree_resolve_frac", "ratio"},
	{"mvcc.lock_collisions", "count"},
	{"mvcc.versions_per_key_end", "count"},

	{"clog.lookup_ns", "ns"},
	{"clog.entries_end", "count"},

	{"btree.get_ns", "ns"},
	{"btree.set_ns", "ns"},

	{"wal.bytes_per_write_txn", "B"},
	{"wal.syncs_per_write_txn", "count"},
	{"wal.append_ns", "ns"},

	{"storage.fsync_us_p50", "us"},
	{"storage.ckpt_s_p50", "s"},
	{"storage.ckpt_bytes_per_tuple", "B"},
	{"storage.ckpt_fg_p99_us", "us"},
	{"storage.recover_s", "s"},
	{"storage.recover_tuples_per_s", "1/s"},
	{"storage.disk_bytes_per_user_byte", "ratio"},

	{"repl.copy_tuples_per_s", "1/s"},
	{"repl.copy_bytes_per_tuple", "B"},
	{"repl.shipped_records_per_mig", "count"},
	{"repl.txns_per_ship_group_p50", "count"},
	{"repl.catchup_lag_p50", "count"},
	{"repl.spilled_txns", "count"},
	{"repl.replay_conflicts", "count"},

	{"core.snapshot_s_p50", "s"},
	{"core.catchup_s_p50", "s"},
	{"core.modechange_s_p50", "s"},
	{"core.diversion_s_p50", "s"},
	{"core.dual_s_p50", "s"},
	{"core.phase_residual_frac", "ratio"},
	{"core.ckpt_copy_frac", "ratio"},
	{"core.validations_per_mig", "count"},
	{"core.validation_wait_us_p99", "us"},
	{"core.block_wait_us_p99", "us"},
	{"core.unsync_txns_per_mig", "count"},
	{"core.drained_txns_per_mig", "count"},
	{"core.fg_stall_ms_max", "ms"},

	{"node.vacuum_s_p50", "s"},
	{"node.vacuum_reclaimed_per_pass", "count"},

	{"trace.overhead_frac", "ratio"},
}

// metrics maps names to measured values.
type metrics map[string]float64
