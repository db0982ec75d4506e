package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// boundsFile is the part of BENCHMARK.json compare reads.
type boundsFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// judgement compares one metric of one workload across two result sets.
type judgement struct {
	base, next [3]float64 // quartiles
	// deltaPct is the change of the median, in percent of the base median.
	deltaPct float64
	// wins counts paired runs (same index) where next reads better; ties
	// count for neither side.
	wins, pairs int
	verdict     string
}

// judge applies the benchmark's acceptance rules.  With no bound (per-layer
// metrics) the verdict is "info".  When the base set's own spread exceeds
// the bound the change cannot be told from noise: "unresolved", unless
// every next run reads better than every base run ("better").  A median
// worse by more than the bound is a "regression".  A "gain" needs at least
// ten pairs, nine tenths of them won, and a median difference larger than
// the base set's quartile distance.  Anything else is "same".
func judge(base, next []float64, better string, bound float64) judgement {
	var j judgement
	j.base[0], j.base[1], j.base[2] = quartiles(base)
	j.next[0], j.next[1], j.next[2] = quartiles(next)
	j.deltaPct = (j.next[1] - j.base[1]) / math.Abs(j.base[1]) * 100
	isBetter := func(a, b float64) bool { return (better == "lower" && a < b) || (better == "higher" && a > b) }
	j.pairs = min(len(base), len(next))
	for i := 0; i < j.pairs; i++ {
		if isBetter(next[i], base[i]) {
			j.wins++
		}
	}
	worse := j.deltaPct / 100
	if better == "higher" {
		worse = -worse
	}
	allBetter := slices.Max(next) < slices.Min(base)
	if better == "higher" {
		allBetter = slices.Min(next) > slices.Max(base)
	}
	switch {
	case bound == 0:
		j.verdict = "info"
	case spread(base) > bound && allBetter:
		j.verdict = "better"
	case spread(base) > bound:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "regression"
	case j.pairs >= 10 && float64(j.wins) >= 0.9*float64(j.pairs) && math.Abs(j.next[1]-j.base[1]) > j.base[2]-j.base[0] && worse < 0:
		j.verdict = "gain"
	default:
		j.verdict = "same"
	}
	return j
}

// compareFiles prints, for every later file against the first, one row
// per workload and metric: both sides' median and quartiles, the change of
// the median, the paired win count and the verdict against the bounds in
// boundsPath.  Metrics only one side has are listed with "-" for the other.
func compareFiles(w io.Writer, boundsPath string, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-compare needs a base file and at least one more")
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf boundsFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("decoding %s: %w", boundsPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	base, err := readResults(files[0])
	if err != nil {
		return err
	}
	for _, f := range files[1:] {
		next, err := readResults(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s vs %s\n", files[0], f)
		for _, set := range []struct {
			name string
			runs []runResult
		}{{files[0], base}, {f, next}} {
			for _, r := range set.runs {
				if !r.Correct {
					fmt.Fprintf(w, "# %s: %s seed %d failed %d of %d outputs\n", set.name, r.Workload, r.Seed, r.Failed, r.Attempted)
				}
			}
		}
		if err := compareTable(w, bounds, base, next); err != nil {
			return err
		}
	}
	return nil
}

func compareTable(w io.Writer, bounds map[string]float64, base, next []runResult) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tdelta\twins\tverdict")
	for _, wl := range workloadNames {
		for _, d := range slices.Concat(endToEnd, perLayer) {
			b, n := values(base, wl, d.Name), values(next, wl, d.Name)
			if len(b) == 0 && len(n) == 0 {
				continue
			}
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t-\t-\tinfo\n", wl, d.Name, d.Unit, describe(b), describe(n))
				continue
			}
			j := judge(b, n, d.Better, bounds[d.Name])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n",
				wl, d.Name, d.Unit, describe(b), describe(n), j.deltaPct, j.wins, j.pairs, j.verdict)
		}
	}
	return tw.Flush()
}

// values returns one metric of one workload across a result set, in run
// order.
func values(runs []runResult, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// describe renders median and quartiles, or "-" for no values.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
