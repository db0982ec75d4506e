// Package s3dmini is the S3D proxy: a direct numerical simulation of
// turbulent combustion (paper §VI; 60x60x60 grid).
//
// The S3D profile in §VII:
//
//   - ~63.1% of references hit the stack with a read/write ratio of ~6.04:
//     at every grid point the species state is staged into stack locals and
//     re-read repeatedly by the reaction-rate evaluation.
//   - Read-only look-up tables holding coefficients for linear
//     interpolation (the chemistry rate tables) are the read-only
//     population.
//   - Only a small slice of the footprint (~1.4%: 7.1 MB of 512 MB) is
//     untouched during the main loop — a restart/checkpoint staging buffer.
//   - Reference rates are constant across iterations: every timestep sweeps
//     the same grid with the same kernels (Figure 10).
//
// The proxy integrates nspec species with a 3-reaction toy mechanism over a
// periodic 3D grid: 7-point stencil transport for momentum and temperature,
// table-interpolated Arrhenius-like rates, and explicit species update.
package s3dmini

import (
	"fmt"
	"math"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/apps/kernels"
	"nvscavenger/internal/memtrace"
)

func init() {
	apps.Register("s3d", func(scale float64) apps.App { return New(scale) })
}

const (
	nspec     = 9 // species count of the toy mechanism
	nreact    = 3 // reactions
	tableSize = 4096
)

// App is the S3D proxy.
type App struct {
	scale  float64
	points int

	// heap allocatables (S3D is Fortran 90)
	species   []memtrace.F64 // nspec mass-fraction fields
	rhs       []memtrace.F64 // nspec right-hand sides
	u, v, w   memtrace.F64   // velocity
	temp      memtrace.F64   // temperature
	press     memtrace.F64   // pressure
	speciesOb []*memtrace.Object

	// read-only chemistry rate tables (global)
	rateTable memtrace.F64

	// restart staging buffer: untouched during the main loop
	qsave memtrace.F64

	checksum float64
}

// Periodic 7-point stencil strides (flattened 3D approximation).
const (
	strideY = 32
	strideZ = 1024
)

// New returns an S3D proxy at the given scale (1.0 ~ 6 MB footprint:
// Table I's 512 MB per task divided by ~64, with the 60^3 grid scaled to
// ~32^3 points).  The grid holds at least one z-stride of points, so the
// stencil's wrapped neighbour index stays in range at any scale.
func New(scale float64) *App {
	n := int(32768 * scale)
	if n < strideZ {
		n = strideZ
	}
	return &App{scale: scale, points: n}
}

// Name implements apps.App.
func (a *App) Name() string { return "s3d" }

// Description implements apps.App.
func (a *App) Description() string {
	return "direct numerical simulation of turbulent combustion (S3D proxy, 60x60x60)"
}

// Setup allocates the fields and builds the chemistry tables.
func (a *App) Setup(tr *memtrace.Tracer) error {
	n := a.points
	rng := kernels.NewRNG(53)

	a.species = make([]memtrace.F64, nspec)
	a.rhs = make([]memtrace.F64, nspec)
	a.speciesOb = make([]*memtrace.Object, nspec)
	for s := 0; s < nspec; s++ {
		a.species[s], a.speciesOb[s] = tr.HeapF64(fmt.Sprintf("yspecies_%d", s), "variables_m.f90:88", n)
		a.rhs[s], _ = tr.HeapF64(fmt.Sprintf("rhs_%d", s), "rhsf.f90:61", n)
	}
	a.u, _ = tr.HeapF64("u_vel", "variables_m.f90:90", n)
	a.v, _ = tr.HeapF64("v_vel", "variables_m.f90:91", n)
	a.w, _ = tr.HeapF64("w_vel", "variables_m.f90:92", n)
	a.temp, _ = tr.HeapF64("temp", "variables_m.f90:93", n)
	a.press, _ = tr.HeapF64("pressure", "variables_m.f90:94", n)

	a.rateTable, _ = tr.GlobalF64("rate_table", nreact*tableSize)
	a.qsave, _ = tr.GlobalF64("qsave_restart", n/4)

	fr := tr.Enter("initialize_field")
	defer tr.Leave()
	_ = fr
	for s := 0; s < nspec; s++ {
		kernels.FillRandom(a.species[s], rng, 0.01, 0.12)
		a.rhs[s].Fill(0)
	}
	kernels.FillRandom(a.u, rng, -10, 10)
	kernels.FillRandom(a.v, rng, -10, 10)
	kernels.FillRandom(a.w, rng, -10, 10)
	kernels.FillRandom(a.temp, rng, 800, 1800)
	kernels.FillRandom(a.press, rng, 0.9e5, 1.1e5)

	// Arrhenius-like rate tables over normalized temperature.
	for r := 0; r < nreact; r++ {
		aFac := 1e3 * float64(r+1)
		eAct := 4.0 + 2.0*float64(r)
		for i := 0; i < tableSize; i++ {
			tNorm := 0.5 + 1.5*float64(i)/float64(tableSize-1)
			a.rateTable.Store(r*tableSize+i, aFac*math.Exp(-eAct/tNorm)*1e-6)
		}
	}
	tr.Compute(uint64(nreact * tableSize * 8))
	kernels.FillRandom(a.qsave, rng, 0, 1)
	return nil
}

// Step advances one Runge-Kutta-like stage over the whole grid.
func (a *App) Step(tr *memtrace.Tracer, iter int) error {
	n := a.points
	sum := 0.0

	// Momentum and temperature transport: 7-point stencils over the heap
	// fields.
	fr := tr.Enter("computeVectorGradient")
	for _, f := range []memtrace.F64{a.u, a.v, a.w} {
		for i := 0; i < n; i++ {
			c := f.Load(i)
			lap := f.Load((i+1)%n) + f.Load((i-1+n)%n) +
				f.Load((i+strideY)%n) + f.Load((i-strideY+n)%n) +
				f.Load((i+strideZ)%n) + f.Load((i-strideZ+n)%n) - 6*c
			f.Store(i, c+1e-4*lap)
		}
		tr.Compute(uint64(9 * n))
	}
	tr.Leave()
	_ = fr

	frt := tr.Enter("computeHeatFlux")
	for i := 0; i < n; i++ {
		c := a.temp.Load(i)
		lap := a.temp.Load((i+1)%n) + a.temp.Load((i-1+n)%n) +
			a.temp.Load((i+strideY)%n) + a.temp.Load((i-strideY+n)%n) +
			a.temp.Load((i+strideZ)%n) + a.temp.Load((i-strideZ+n)%n) - 6*c
		a.temp.Store(i, c+1e-4*lap)
		a.press.Store(i, a.press.Load(i)*0.99999)
	}
	tr.Compute(uint64(11 * n))
	tr.Leave()
	_ = frt

	// Chemistry: per grid point, stage the species vector into stack
	// locals, evaluate table-interpolated reaction rates that re-read the
	// staged state repeatedly, and update the species fields.
	frc := tr.Enter("reaction_rate")
	yloc := frc.LocalF64(nspec)
	wdot := frc.LocalF64(nspec)
	for i := 0; i < n; i++ {
		// Stage: heap reads, stack writes.
		for s := 0; s < nspec; s++ {
			yloc.Store(s, a.species[s].Load(i))
		}
		tNorm := a.temp.Load(i) / 1200.0
		ti := int((tNorm - 0.5) / 1.5 * float64(tableSize-1))
		if ti < 0 {
			ti = 0
		}
		if ti >= tableSize-1 {
			ti = tableSize - 2
		}
		// Rates: each species' production term reads the staged state ten
		// times (three reactions with multi-species stoichiometry) and two
		// adjacent read-only table entries per reaction pair.
		for s := 0; s < nspec; s++ {
			r0 := a.rateTable.Load(s%nreact*tableSize + ti)
			r1 := a.rateTable.Load(s%nreact*tableSize + ti + 1)
			rate := r0 + (r1-r0)*0.5
			acc := 0.0
			for k := 0; k < 10; k++ {
				acc += yloc.Load((s + k) % nspec)
			}
			wdot.Store(s, rate*acc)
			tr.Compute(16)
		}
		// Update: read the rate, advance the heap field.
		for s := 0; s < nspec; s++ {
			d := wdot.Load(s)
			a.species[s].Store(i, clamp01(a.species[s].Load(i)+1e-5*(d-0.01*yloc.Load(s))))
		}
		tr.Compute(uint64(4 * nspec))
		sum += a.temp.Load(i) * 1e-6
	}
	tr.Leave()
	_ = frc

	// Runge-Kutta register update: fold the transported state into the
	// right-hand-side carry arrays (strided: only the RK carry points).
	fri := tr.Enter("integrate_erk")
	for s := 0; s < nspec; s++ {
		f := a.rhs[s]
		for i := 0; i < n; i += 4 {
			f.Store(i, f.Load(i)*0.5+float64(iter)*1e-9)
		}
	}
	tr.Compute(uint64(nspec * n / 2))
	tr.Leave()
	_ = fri

	a.checksum = sum
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Post writes the restart file staging buffer.
func (a *App) Post(tr *memtrace.Tracer) error {
	fr := tr.Enter("write_savefile")
	for i := 0; i < a.qsave.Len(); i++ {
		a.qsave.Store(i, a.species[0].Load(i%a.species[0].Len()))
	}
	tr.Compute(uint64(a.qsave.Len()))
	tr.Leave()
	_ = fr
	return nil
}

// Check validates species fractions and temperature.
func (a *App) Check() error {
	if math.IsNaN(a.checksum) || math.IsInf(a.checksum, 0) {
		return fmt.Errorf("s3dmini: checksum diverged")
	}
	for s := 0; s < nspec; s++ {
		for i, y := range a.species[s].Raw() {
			if y < 0 || y > 1 || math.IsNaN(y) {
				return fmt.Errorf("s3dmini: species %d point %d out of range: %v", s, i, y)
			}
		}
	}
	return nil
}

// Input implements apps.InputDescriber (Table I's input column).
func (a *App) Input() string {
	return fmt.Sprintf("%d grid points, %d species, %d reactions", a.points, nspec, nreact)
}
