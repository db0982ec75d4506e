package memtrace

import "nvscavenger/internal/obs"

// ExportMetrics publishes the tracer's attribution-path statistics into
// reg: the §III-D lookup accelerations (software object cache, bucket
// index with dynamic rebalancing) plus observation totals.  These are the
// counters the ablation benchmarks read through RegistryStats, promoted to
// the shared registry so a run's instrumentation health lands next to the
// exhibit it produced.  Gauges are set idempotently per label set.
func (t *Tracer) ExportMetrics(reg *obs.Registry, labels ...obs.Label) {
	lookups, cacheHits, scanned, rebalances := t.RegistryStats()
	reg.Gauge("memtrace_lookups", labels...).Set(float64(lookups))
	reg.Gauge("memtrace_object_cache_hits", labels...).Set(float64(cacheHits))
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(cacheHits) / float64(lookups)
	}
	reg.Gauge("memtrace_object_cache_hit_ratio", labels...).Set(ratio)
	reg.Gauge("memtrace_bucket_scanned", labels...).Set(float64(scanned))
	avgScan := 0.0
	if misses := lookups - cacheHits; misses > 0 {
		avgScan = float64(scanned) / float64(misses)
	}
	reg.Gauge("memtrace_bucket_scan_length", labels...).Set(avgScan)
	reg.Gauge("memtrace_rebalances", labels...).Set(float64(rebalances))
	reg.Gauge("memtrace_sampled_refs", labels...).Set(float64(t.Sampled))
	reg.Gauge("memtrace_unknown_refs", labels...).Set(float64(t.Unknown))
	reg.Gauge("memtrace_instructions", labels...).Set(float64(t.Instructions()))
	reg.Gauge("memtrace_footprint_bytes", labels...).Set(float64(t.Footprint()))
	// Staging-buffer health (zero on healthy runs): accesses lost to a
	// tripped sink and the trip count.
	reg.Gauge("memtrace_buffer_dropped", labels...).Set(float64(t.SinkDropped()))
	reg.Gauge("memtrace_buffer_trips", labels...).Set(float64(t.SinkTrips()))
}
