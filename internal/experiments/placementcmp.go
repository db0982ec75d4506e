package experiments

import (
	"context"
	"fmt"
	"strings"

	"nvscavenger/internal/core"
	"nvscavenger/internal/hybrid"
)

// PlacementComparison contrasts the two placement granularities the paper's
// discussion spans: the object-level static placement its characterization
// enables (§II's metrics applied per data structure) against the page-level
// hardware-driven dynamic placement of Ramos et al. (§VIII), evaluated on
// the same application run with the same DRAM capacity.
type PlacementComparison struct {
	App string

	// Object-granularity (core.Plan, category-2 policy).
	ObjectNVRAMShare float64 // bytes placed in NVRAM / footprint
	// ObjectNVRAMWriteShare is the fraction of main-loop writes that land
	// on NVRAM-placed objects — the write exposure the §II policy accepts.
	ObjectNVRAMWriteShare float64

	// Page-granularity (hybrid.System with the DRAM budget matched to the
	// object plan's DRAM bytes).
	DRAMBudgetPages     int
	PageNVRAMShare      float64 // NVRAM pages / pages
	PageNVRAMWriteShare float64 // post-cache writes landing in NVRAM
	PageMigrations      uint64
}

// PlacementComparison runs the study for every app, fanning the per-app
// runs and page-granularity replays out across the worker pool.
func (s *Session) PlacementComparison() ([]PlacementComparison, error) {
	return collect(s, s.appNames(), func(ctx context.Context, name string) (PlacementComparison, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return PlacementComparison{}, err
		}
		plan := core.Plan(run.Tracer, core.DefaultPolicy(core.Category2))

		cmp := PlacementComparison{
			App:                   name,
			ObjectNVRAMShare:      plan.NVRAMShare,
			ObjectNVRAMWriteShare: objectWriteExposure(plan),
		}

		// Page-granularity run over the same cache-filtered traffic, with
		// the same DRAM capacity the object plan consumed.
		budget := int((plan.DRAMBytes + plan.MigratableBytes + 4095) / 4096)
		cmp.DRAMBudgetPages = budget
		// Size the monitoring epoch to the trace so short runs still see
		// several rebalancing opportunities.
		epoch := len(run.Transactions) / 10
		if epoch < 5000 {
			epoch = 5000
		}
		sys, err := hybrid.New(hybrid.Config{
			DRAMBudgetPages:   budget,
			EpochTransactions: epoch,
		})
		if err != nil {
			return PlacementComparison{}, err
		}
		for _, tx := range run.Transactions {
			if err := sys.Transaction(tx); err != nil {
				return PlacementComparison{}, err
			}
		}
		rep := sys.Report()
		if rep.Pages > 0 {
			cmp.PageNVRAMShare = float64(rep.NVRAMPages) / float64(rep.Pages)
		}
		cmp.PageNVRAMWriteShare = rep.NVRAMWriteShare
		cmp.PageMigrations = rep.Promotions + rep.Demotions
		return cmp, nil
	})
}

// FormatPlacementComparison renders the study.
func FormatPlacementComparison(rows []PlacementComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement granularity: object-level static (this paper) vs page-level dynamic (Ramos et al.)\n")
	fmt.Fprintf(&b, "%-10s | %14s %14s | %12s %14s %14s %10s\n",
		"App", "obj NVRAM %", "obj NV write %", "DRAM pages", "page NVRAM %", "page NV write %", "migrations")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %13.1f%% %13.1f%% | %12d %13.1f%% %13.1f%% %10d\n",
			r.App, r.ObjectNVRAMShare*100, r.ObjectNVRAMWriteShare*100,
			r.DRAMBudgetPages, r.PageNVRAMShare*100, r.PageNVRAMWriteShare*100, r.PageMigrations)
	}
	fmt.Fprintf(&b, "object-level placement uses application knowledge (untouched/read-only structures) and\n")
	fmt.Fprintf(&b, "exposes almost no writes to NVRAM; page-level placement discovers hot pages online but\n")
	fmt.Fprintf(&b, "pays migrations and leaves cold-page writes in NVRAM.\n")
	return b.String()
}

// objectWriteExposure computes the fraction of main-loop writes that a
// placement plan sends to NVRAM-resident objects.
func objectWriteExposure(plan core.PlacementSummary) float64 {
	var nvWrites, allWrites uint64
	for _, adv := range plan.Advices {
		w := adv.Object.LoopStats().Writes
		allWrites += w
		if adv.Target == core.TargetNVRAM {
			nvWrites += w
		}
	}
	if allWrites == 0 {
		return 0
	}
	return float64(nvWrites) / float64(allWrites)
}
