package main

// absent is what a per-layer metric reads when its layer is idle in the
// workload or its instrument is missing from the program; it is printed as
// "absent" in the text report and as -1 in the result line.
const absent = -1.0

// metricDef declares one metric: the single place its name, unit, direction
// and (for end-to-end metrics) regression bound are written down.
// BENCHMARK.json is printed from these tables (-manifest).
type metricDef struct {
	name, unit, better string
	bound              float64 // share of the parent's median; end-to-end only
}

// endToEnd lists what a user of the coupled simulation sees and a later
// change is held to. The benchmark's contract has every workload emit every
// end-to-end metric, never as 0, so the list holds what is defined on all
// four workloads, and the latency is named by role: bulk_p50_us is the median
// time of the call that moves bulk data between processes - Process.Import
// over all importer ranks on the coupled workloads (ISSUE 13's
// import_p50_us), rank 0's 1 MiB AllReduce on collective_mix (its
// coll_large_p50_us).
//
// Each bound is the larger of ISSUE 13's bound and three times the widest
// inter-quartile range that sets of ten runs of one binary showed on any
// workload (NOISE.md; the contract asks for a spread below a third of the
// bound), capped at the contract's 0.25: alloc_kb_per_step spread by up to
// 2.9% (fig4_buffered), the two timings by up to 18% and 17% (once 25%) on
// a shared 2-vCPU machine whose speed swings at the scale of seconds, and
// set-up time gets the largest bound by contract.
var endToEnd = []metricDef{
	{"bulk_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_step", "us", "lower", 0.25},
	{"alloc_kb_per_step", "KB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass, named
// <module>.<metric>. They carry no bound.
var perLayer = []metricDef{
	{name: "core.export.calls", unit: "count", better: "lower"},
	{name: "core.export.p50_us", unit: "us", better: "lower"},
	{name: "core.export.p90_us", unit: "us", better: "lower"},
	{name: "core.export.p99_us", unit: "us", better: "lower"},
	{name: "core.export.samples", unit: "count", better: "higher"},
	{name: "core.export.stall_ns", unit: "ns", better: "lower"},
	{name: "core.pipeline.jobs", unit: "count", better: "lower"},
	{name: "core.pipeline.peak_depth", unit: "count", better: "lower"},
	{name: "core.data_sends_per_step", unit: "count", better: "lower"},
	{name: "core.import.calls", unit: "count", better: "lower"},
	{name: "core.import.p50_us", unit: "us", better: "lower"},
	{name: "core.import.p90_us", unit: "us", better: "lower"},
	{name: "core.import.p99_us", unit: "us", better: "lower"},
	{name: "core.import.samples", unit: "count", better: "higher"},
	{name: "core.ctl.forwarded_per_req", unit: "count", better: "lower"},
	{name: "core.ctl.responses_per_req", unit: "count", better: "lower"},
	{name: "core.ctl.buddy_msgs_per_req", unit: "count", better: "lower"},
	{name: "core.data_dropped", unit: "count", better: "lower"},
	{name: "core.export_unconnected_ns", unit: "ns", better: "lower"},
	{name: "core.rep_roundtrip_us", unit: "us", better: "lower"},

	{name: "buffer.memcpy_per_export", unit: "ratio", better: "lower"},
	{name: "buffer.copies", unit: "count", better: "lower"},
	{name: "buffer.skips", unit: "count", better: "higher"},
	{name: "buffer.unnecessary_copies", unit: "count", better: "lower"},
	{name: "buffer.copy_ns_per_copy", unit: "ns", better: "lower"},
	{name: "buffer.tub_ms", unit: "ms", better: "lower"},
	{name: "buffer.bytes_copied_mb", unit: "MB", better: "lower"},
	{name: "buffer.peak_buffered_mb", unit: "MB", better: "lower"},
	{name: "buffer.pool.hit_frac", unit: "ratio", better: "higher"},
	{name: "buffer.optimal_onset_export", unit: "count", better: "lower"},
	{name: "buffer.offer_copy_ns", unit: "ns", better: "lower"},
	{name: "buffer.offer_skip_ns", unit: "ns", better: "lower"},
	{name: "buffer.on_request_ns", unit: "ns", better: "lower"},

	{name: "match.evaluate_ns", unit: "ns", better: "lower"},
	{name: "match.add_export_ns", unit: "ns", better: "lower"},
	{name: "rep.aggregate_ns", unit: "ns", better: "lower"},

	{name: "decomp.schedule_us", unit: "us", better: "lower"},
	{name: "decomp.pack_ns_per_kb", unit: "ns", better: "lower"},
	{name: "decomp.unpack_ns_per_kb", unit: "ns", better: "lower"},
	{name: "decomp.transfers_per_step", unit: "count", better: "lower"},

	{name: "wire.frame_encode_ctl_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_decode_ctl_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_encode_1MiB_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_decode_1MiB_ns", unit: "ns", better: "lower"},
	{name: "wire.floats_ns_per_kb", unit: "ns", better: "lower"},
	{name: "wire.gob_marshal_ns", unit: "ns", better: "lower"},

	{name: "transport.sends_per_step", unit: "count", better: "lower"},
	{name: "transport.bytes_per_step", unit: "count", better: "lower"},
	{name: "transport.msgs.control_per_step", unit: "count", better: "lower"},
	{name: "transport.msgs.data_per_step", unit: "count", better: "lower"},
	{name: "transport.msgs.buddy_per_step", unit: "count", better: "lower"},
	{name: "transport.send_busy_ns_p50", unit: "ns", better: "lower"},
	{name: "transport.hop_us_p50", unit: "us", better: "lower"},
	{name: "transport.hop_data_us_p50", unit: "us", better: "lower"},
	{name: "transport.tcp.decode_errors", unit: "count", better: "lower"},
	{name: "transport.tcp.reconnects", unit: "count", better: "lower"},
	{name: "transport.mem.rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp.rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp.mb_per_s", unit: "MB/s", better: "higher"},
	{name: "transport.dispatcher.hop_ns", unit: "ns", better: "lower"},
	{name: "transport.reliable.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "transport.coalesce.overhead_ratio", unit: "ratio", better: "lower"},

	{name: "collective.small_step.p50_us", unit: "us", better: "lower"},
	{name: "collective.small_step.p90_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_64B.p50_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_8KiB.p50_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_1MiB.p50_us", unit: "us", better: "lower"},
	{name: "collective.bcast_8KiB.p50_us", unit: "us", better: "lower"},
	{name: "collective.allgather_1KiB.p50_us", unit: "us", better: "lower"},
	{name: "collective.barrier.p50_us", unit: "us", better: "lower"},
	{name: "collective.skew_us_p50", unit: "us", better: "lower"},
	{name: "collective.msgs_per_step", unit: "count", better: "lower"},
	{name: "collective.bytes_per_step", unit: "count", better: "lower"},
	{name: "collective.allocs_per_step", unit: "count", better: "lower"},

	{name: "obsv.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "obsv.call_self_frac", unit: "ratio", better: "higher"},

	{name: "run.steps_per_s", unit: "1/s", better: "higher"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "machine.num_cpu", unit: "count", better: "higher"},
	{name: "machine.gomaxprocs", unit: "count", better: "higher"},
	{name: "machine.ref_memcpy_128KiB_us", unit: "us", better: "lower"},
	{name: "machine.ref_memcpy_1MiB_us", unit: "us", better: "lower"},
	{name: "machine.ref_pingpong_us", unit: "us", better: "lower"},
}
