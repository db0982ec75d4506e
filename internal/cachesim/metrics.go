package cachesim

import "nvscavenger/internal/obs"

// ExportMetrics publishes the hierarchy's counters into reg under the
// given labels plus a per-level "level" label (the configured level name,
// e.g. L1D/L2).  Values are gauges set idempotently, so re-exporting after
// more traffic overwrites rather than double-counts.
func (h *Hierarchy) ExportMetrics(reg *obs.Registry, labels ...obs.Label) {
	for _, lv := range []*level{h.l1, h.l2} {
		ls := append(append([]obs.Label(nil), labels...), obs.L("level", lv.cfg.Name))
		s := lv.stats
		reg.Gauge("cachesim_hits", ls...).Set(float64(s.Hits))
		reg.Gauge("cachesim_misses", ls...).Set(float64(s.Misses))
		reg.Gauge("cachesim_evictions", ls...).Set(float64(s.Evictions))
		reg.Gauge("cachesim_writebacks", ls...).Set(float64(s.Writebacks))
		reg.Gauge("cachesim_hit_ratio", ls...).Set(s.HitRatio())
	}
	reg.Gauge("cachesim_mem_reads", labels...).Set(float64(h.MemReads))
	reg.Gauge("cachesim_mem_writes", labels...).Set(float64(h.MemWrites))
	// Staging-buffer health: transactions lost to a tripped sink, and the
	// trip count.  Zero on healthy runs — their presence in every snapshot
	// is what makes silent drops visible.
	reg.Gauge("cachesim_txbuffer_dropped", labels...).Set(float64(h.TxDropped()))
	reg.Gauge("cachesim_txbuffer_trips", labels...).Set(float64(h.TxTrips()))
}
