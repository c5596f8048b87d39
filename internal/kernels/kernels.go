// Package kernels implements the benchmark programs of the paper's
// evaluation (§VII): Polybench-derived non-rectangular kernels
// (correlation, covariance, symm, syrk, syr2k — plus manually tiled
// variants of correlation and covariance whose tile space is itself
// triangular), the two triangular-matrix programs added by the paper
// (utma: upper-triangular matrix add, ltmp: lower-triangular matrix
// product), and two geometric kernels covering the remaining shape
// classes of the Fig. 5 model (trapez: trapezoidal, tetra: tetrahedral).
//
// Every kernel declares the affine nest of its parallel (collapsible)
// loops, and provides three executable forms used by the experiments:
// a sequential reference, an outer-loop body for the
// schedule(static)/schedule(dynamic) baselines of Fig. 9, and a
// collapsed-iteration body driven by the collapsed runtime. All forms
// compute bit-identical results (each iteration of the parallel loops
// owns its outputs), so correctness is checked by exact checksum
// comparison.
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// Instance is a kernel bound to problem-size parameters with allocated
// data, ready to run. Implementations are safe for concurrent invocation
// of RunOuter on distinct i and RunCollapsed on distinct tuples.
type Instance interface {
	// OuterRange returns the half-open range of the outermost loop.
	OuterRange() (lo, hi int64)
	// RunOuter executes all work of outer iteration i (the inner loops
	// run inside). Used by the outer-parallel baselines.
	RunOuter(i int64)
	// RunCollapsed executes the body of one collapsed iteration; inner
	// non-collapsed loops run inside.
	RunCollapsed(idx []int64)
	// WorkPerOuter returns the work units (innermost iteration count) of
	// outer iteration i, for the schedule simulator.
	WorkPerOuter(i int64) float64
	// WorkPerCollapsed returns the work units of the collapsed iteration
	// idx.
	WorkPerCollapsed(idx []int64) float64
	// Checksum summarises the output exactly (used to compare variants).
	Checksum() float64
	// Reset restores the initial data so the instance can be re-run.
	Reset()
}

// RangeRunner is an optional fast path an Instance may implement: it
// executes `count` consecutive collapsed iterations starting from the
// tuple `start`, advancing the indices inline — exactly the shape of the
// code the paper's tool generates (§V: body and incrementation fused in
// one loop, with the costly recovery hoisted to the chunk start). The
// elementwise kernels implement it; without it the runtime falls back to
// the generic per-iteration driver.
type RangeRunner interface {
	RunCollapsedRange(start []int64, count int64)
}

// Kernel describes one benchmark program.
type Kernel struct {
	// Name as it appears in the paper's Fig. 9 (or this repo's additions).
	Name string
	// Nest is the affine model of the parallel loops (and, when they are
	// affine, the inner loops too); the Collapse outermost loops are the
	// ones the collapse clause targets.
	Nest *nest.Nest
	// Collapse is the number of outermost loops to collapse.
	Collapse int
	// InnerDependence records that loops below Collapse carry a
	// dependence (ltmp's innermost loop, §VII) — they can never be
	// collapsed, whatever the schedule.
	InnerDependence bool
	// BenchParams are the evaluation problem sizes (scaled from the
	// paper's EXTRALARGE to single-machine Go).
	BenchParams map[string]int64
	// TestParams are small sizes for correctness tests.
	TestParams map[string]int64
	// New allocates data and returns a runnable instance.
	New func(p map[string]int64) Instance
}

// NestParams extracts from p the subset of parameters the nest declares
// (problem-size maps may carry extra keys, e.g. tile sizes used only by
// the body).
func (k *Kernel) NestParams(p map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(k.Nest.Params))
	for _, name := range k.Nest.Params {
		out[name] = p[name]
	}
	return out
}

// Collapsed builds the collapse transformation for the kernel.
func (k *Kernel) Collapsed() (*core.Result, error) {
	return core.Collapse(k.Nest, k.Collapse, unrank.Options{})
}

// register is an identity marker for kernel definitions; the
// presentation order lives in All so that it does not depend on package
// initialization order.
func register(k *Kernel) *Kernel { return k }

// All returns the kernels in the Fig. 9 bar order used throughout the
// experiments.
func All() []*Kernel {
	return []*Kernel{
		Correlation, CorrelationTiled, Covariance, CovarianceTiled,
		Symm, Syrk, Syr2k, Trapez, Tetra, Utma, Ltmp,
	}
}

// ByName returns the kernel with the given name.
func ByName(name string) (*Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	var names []string
	for _, k := range All() {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, names)
}

// RunSeq executes the kernel sequentially (the reference).
func RunSeq(inst Instance) {
	lo, hi := inst.OuterRange()
	for i := lo; i < hi; i++ {
		inst.RunOuter(i)
	}
}

// RunOuterParallel executes the outer loop under the given schedule —
// the paper's baseline parallelizations (Fig. 9 "static" and "dynamic").
func RunOuterParallel(inst Instance, threads int, sched omp.Schedule) {
	lo, hi := inst.OuterRange()
	omp.ParallelFor(threads, lo, hi, sched, func(tid int, i int64) {
		inst.RunOuter(i)
	})
}

// RunCollapsedParallel executes the collapsed loops under the given
// schedule with the §V once-per-chunk recovery scheme. Instances
// implementing RangeRunner get the generated-code-style fused loop on
// the omp chunk driver (recover once per chunk, then inline
// body+increment); others run through the per-iteration executor.
func RunCollapsedParallel(k *Kernel, inst Instance, res *core.Result, p map[string]int64,
	threads int, sched omp.Schedule) error {
	rr, ok := inst.(RangeRunner)
	if !ok {
		return omp.CollapsedFor(res, k.NestParams(p), threads, sched, func(tid int, idx []int64) {
			inst.RunCollapsed(idx)
		})
	}
	_, err := omp.CollapsedForChunks(nil, res, k.NestParams(p), threads, sched, nil,
		func(tid int, b *unrank.Bound, clo, chi int64, start []int64) error {
			rr.RunCollapsedRange(start, chi-clo)
			return nil
		})
	return err
}

// RunCollapsedSerialChunks executes the collapsed loops serially in
// `chunks` equal ranges, each performing its own costly recovery. This
// reproduces the paper's Fig. 10 protocol: "serial execution of the
// transformed program where root evaluations are performed 12 times, to
// simulate the computations performed with 12 threads".
func RunCollapsedSerialChunks(k *Kernel, inst Instance, res *core.Result, p map[string]int64,
	chunks int) error {
	b, err := res.Unranker.Bind(k.NestParams(p))
	if err != nil {
		return err
	}
	total := b.Total()
	if total == 0 {
		return nil
	}
	if int64(chunks) > total {
		chunks = int(total)
	}
	base := total / int64(chunks)
	rem := total % int64(chunks)
	lo := int64(1)
	rr, fast := inst.(RangeRunner)
	idx := b.Scratch()
	for c := 0; c < chunks; c++ {
		size := base
		if int64(c) < rem {
			size++
		}
		hi := lo + size - 1
		if fast {
			if err := b.Unrank(lo, idx); err != nil {
				return err
			}
			rr.RunCollapsedRange(idx, size)
		} else if err := core.ForRange(b, lo, hi, func(pc int64, idx []int64) {
			inst.RunCollapsed(idx)
		}); err != nil {
			return err
		}
		lo = hi + 1
	}
	return nil
}

// lcg fills a float64 slice with deterministic pseudo-random values in
// (0, 1), so all variants start from identical data.
func lcg(dst []float64, seed uint64) {
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range dst {
		s = s*6364136223846793005 + 1442695040888963407
		dst[i] = float64(s>>11) / float64(1<<53)
	}
}
