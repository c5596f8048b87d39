package omp

import (
	"context"
	"fmt"

	"repro/internal/nest"
	"repro/internal/poly"
)

// UncollapsedFor executes a nest the pre-collapse way: the outermost
// loop is workshared across the team under the schedule, and each worker
// runs the inner loops serially for its outer iterations. body receives
// the worker id and the full iteration tuple (slice reused per worker),
// the same contract as CollapsedFor over the same nest.
//
// This is the bottom rung of the degradation ladder: when the collapsing
// technique is inapplicable (ranking degree above 4, non-affine bounds,
// no convenient root, int64 overflow), the program still runs in
// parallel — with the load imbalance of outer-loop worksharing the paper
// sets out to eliminate, but without a hard failure. Bounds are
// evaluated as exact polynomials per prefix rather than through the
// affine fast path, so nests outside the Fig. 5 model (e.g. quadratic
// bounds) execute too. Cancellation and worker-panic capture follow
// ParallelForChunksCtx (chunks here are ranges of the outermost
// iterator).
func UncollapsedFor(ctx context.Context, n *nest.Nest, params map[string]int64,
	threads int, sched Schedule, body func(tid int, idx []int64)) error {
	depth := len(n.Loops)
	if depth == 0 {
		return fmt.Errorf("omp: empty nest")
	}
	np := len(n.Params)
	order := make([]string, 0, np+depth)
	order = append(order, n.Params...)
	order = append(order, n.Indices()...)
	// Compile each level's bounds over [params..., i_0..i_{k-1}]: exact
	// integer evaluation, no affinity requirement.
	los := make([]*poly.Compiled, depth)
	his := make([]*poly.Compiled, depth)
	for k, l := range n.Loops {
		lo, err := l.Lower.Compile(order[:np+k])
		if err != nil {
			return fmt.Errorf("omp: fallback lower bound of %q: %w", l.Index, err)
		}
		hi, err := l.Upper.Compile(order[:np+k])
		if err != nil {
			return fmt.Errorf("omp: fallback upper bound of %q: %w", l.Index, err)
		}
		los[k], his[k] = lo, hi
	}
	pvals := make([]int64, np)
	for i, p := range n.Params {
		v, ok := params[p]
		if !ok {
			return fmt.Errorf("omp: missing value for parameter %q", p)
		}
		pvals[i] = v
	}
	lo0 := los[0].EvalExact(pvals)
	hi0 := his[0].EvalExact(pvals)
	return ParallelForChunksCtx(ctx, threads, lo0, hi0, sched, func(tid int, clo, chi int64) error {
		vals := make([]int64, np+depth)
		copy(vals, pvals)
		idx := vals[np:]
		var walk func(k int)
		walk = func(k int) {
			if k == depth {
				body(tid, idx)
				return
			}
			vhi := his[k].EvalExact(vals[:np+k])
			for v := los[k].EvalExact(vals[:np+k]); v < vhi; v++ {
				idx[k] = v
				walk(k + 1)
			}
		}
		for i0 := clo; i0 < chi; i0++ {
			idx[0] = i0
			walk(1)
		}
		return nil
	})
}
