// Custom application: shows how to bring your own workload to the whole
// pipeline.  A conjugate-gradient solver on a sparse Poisson system is
// written against the apps.App interface; it then runs through the
// instrumentation substrate, the placement advisor, and the latency-
// sensitivity model — the full paper methodology on new code.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"
	"math"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/core"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
)

// cgApp solves A x = b with conjugate gradients, where A is the 1D Poisson
// operator (2 on the diagonal, -1 off).  The operator application walks the
// vector with a stencil; the dot products and AXPYs stream the Krylov
// vectors — a memory pattern between S3D's and Nek5000's.
type cgApp struct {
	n              int
	x, b, r, p, ap memtrace.F64
	residual       float64
}

func (c *cgApp) Name() string        { return "cg" }
func (c *cgApp) Description() string { return "conjugate-gradient Poisson solver (custom app)" }

func (c *cgApp) Setup(tr *memtrace.Tracer) error {
	c.x, _ = tr.HeapF64("x", "cg.go:40", c.n)
	c.b, _ = tr.HeapF64("b", "cg.go:41", c.n)
	c.r, _ = tr.HeapF64("r", "cg.go:42", c.n)
	c.p, _ = tr.HeapF64("p", "cg.go:43", c.n)
	c.ap, _ = tr.HeapF64("Ap", "cg.go:44", c.n)
	for i := 0; i < c.n; i++ {
		c.b.Store(i, 1)
		c.x.Store(i, 0)
		c.r.Store(i, 1) // r = b - A*0
		c.p.Store(i, 1)
	}
	tr.Compute(uint64(4 * c.n))
	return nil
}

// Step performs one CG iteration.
func (c *cgApp) Step(tr *memtrace.Tracer, iter int) error {
	_ = tr.Enter("cg_iter")
	defer tr.Leave()

	// Ap = A p (tridiagonal stencil).
	for i := 0; i < c.n; i++ {
		v := 2 * c.p.Load(i)
		if i > 0 {
			v -= c.p.Load(i - 1)
		}
		if i < c.n-1 {
			v -= c.p.Load(i + 1)
		}
		c.ap.Store(i, v)
	}
	tr.Compute(uint64(4 * c.n))

	dot := func(a, b memtrace.F64) float64 {
		s := 0.0
		for i := 0; i < c.n; i++ {
			s += a.Load(i) * b.Load(i)
		}
		tr.Compute(uint64(2 * c.n))
		return s
	}
	rr := dot(c.r, c.r)
	pap := dot(c.p, c.ap)
	if pap == 0 {
		return fmt.Errorf("cg: breakdown at iteration %d", iter)
	}
	alpha := rr / pap
	for i := 0; i < c.n; i++ {
		c.x.Add(i, alpha*c.p.Load(i))
		c.r.Add(i, -alpha*c.ap.Load(i))
	}
	tr.Compute(uint64(4 * c.n))
	rrNew := dot(c.r, c.r)
	beta := rrNew / rr
	for i := 0; i < c.n; i++ {
		c.p.Store(i, c.r.Load(i)+beta*c.p.Load(i))
	}
	tr.Compute(uint64(3 * c.n))
	c.residual = math.Sqrt(rrNew)
	return nil
}

func (c *cgApp) Post(*memtrace.Tracer) error { return nil }

func (c *cgApp) Check() error {
	if math.IsNaN(c.residual) || math.IsInf(c.residual, 0) {
		return fmt.Errorf("cg: residual diverged")
	}
	return nil
}

func main() {
	const n = 200000
	const iters = 10

	// 1. Characterize with NV-SCAVENGER.
	app := &cgApp{n: n}
	stack := pipeline.MustBuild(pipeline.Config{StackMode: memtrace.FastStack})
	tr := stack.Tracer
	if err := apps.Run(app, tr, iters); err != nil {
		log.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG on %d unknowns: residual %.3e after %d iterations\n\n", n, app.residual, iters)

	plan := core.Plan(tr, core.DefaultPolicy(core.Category2))
	fmt.Println("placement advice:")
	for _, adv := range plan.Advices {
		m := adv.Metrics
		fmt.Printf("  %-4s %8.1f KB  r/w %6.2f -> %-10s %s\n",
			adv.Object.Name, float64(m.SizeBytes)/1024, m.ReadWriteRatio, adv.Target, adv.Reason)
	}

	// 2. Latency sensitivity of the same code: one run feeds a core per
	// latency through the sweep's batched performance-event sink.
	fmt.Println("\nmemory latency sensitivity:")
	sweep, err := cpusim.NewSweep([]string{"DRAM", "MRAM", "STTRAM", "PCRAM"}, []float64{10, 12, 20, 100})
	if err != nil {
		log.Fatal(err)
	}
	perfStack := pipeline.MustBuild(pipeline.Config{Perf: sweep})
	if err := apps.Run(&cgApp{n: n}, perfStack.Tracer, 2); err != nil {
		log.Fatal(err)
	}
	if err := perfStack.Close(); err != nil {
		log.Fatal(err)
	}
	for _, r := range sweep.Results() {
		fmt.Printf("  %5.0f ns -> %12.0f cycles (%.3fx)\n", r.MemLatencyNS, r.Cycles, r.Normalized)
	}
}
