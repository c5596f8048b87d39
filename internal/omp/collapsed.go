package omp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// pcEnd returns the exclusive upper bound total+1 of the collapsed pc
// range [1, total], refusing totals whose +1 would wrap. Bind already
// rejects counts beyond int64, but the int64 fast path can legitimately
// produce math.MaxInt64 itself.
func pcEnd(total int64) (int64, error) {
	if total >= math.MaxInt64 {
		return 0, fmt.Errorf("omp: collapsed total %d overflows the pc range: %w",
			total, faults.ErrOverflow)
	}
	return total + 1, nil
}

// bindTeam privatizes recovery state for a team: the collapse result is
// bound once (paying bound compilation and the count-polynomial
// evaluation a single time), then each additional worker receives a
// Clone sharing the immutable compiled core with only its own mutable
// scratch.
func bindTeam(r *core.Result, params map[string]int64, threads int) ([]*unrank.Bound, error) {
	b0, err := r.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	bounds := make([]*unrank.Bound, threads)
	bounds[0] = b0
	for t := 1; t < threads; t++ {
		bounds[t] = b0.Clone()
	}
	return bounds, nil
}

// CollapsedForChunks is the collapsed chunk driver every chunked
// executor is built on — the paper's §V scheme as one mechanism. It
// binds r once for the team (each worker gets a private Clone, as the
// OpenMP codes privatize the recovery state), plans the collapsed pcs
// 1..Total into schedule chunks through ParallelForChunksCtx
// (cancellation at chunk boundaries, panic capture, fault injection),
// recovers the first tuple of each chunk once with b.Unrank, and calls
// chunk(tid, b, clo, chi, start) for the chunk's pcs [clo, chi) with the
// worker's bound and the recovered tuple of rank clo. start is b's
// scratch: chunk may advance it in place and must not retain it. A
// non-nil error from chunk stops the team.
//
// tel selects the instrumentation. With a nil registry the driver reads
// no clock and allocates nothing per chunk; the returned stats still
// hold every worker's chunk and iteration counts and unranker counters,
// with zero Busy and Recovery. With a registry each chunk is timed into
// Busy/Recovery and the "omp.recovery_seconds" (the autotuner's measured
// cost input) and "omp.chunk_seconds" histograms, the live per-worker
// gauges advance, a "chunk"-category trace event named after the
// schedule kind is recorded, and the run ends by publishing
// "omp.iterations" (the iterations of completed chunks, so a failed run
// counts only what ran), "omp.panics_recovered" or "omp.cancellations".
func CollapsedForChunks(ctx context.Context, r *core.Result, params map[string]int64,
	threads int, sched Schedule, tel *telemetry.Registry,
	chunk func(tid int, b *unrank.Bound, clo, chi int64, start []int64) error) (CollapsedStats, error) {
	threads = max(threads, 1)
	bounds, err := bindTeam(r, params, threads)
	if err != nil {
		return CollapsedStats{}, err
	}
	cs := CollapsedStats{Threads: threads, Total: bounds[0].Total(), PerThread: make([]ThreadStats, threads)}
	for t := range cs.PerThread {
		cs.PerThread[t].TID = t
	}
	if cs.Total == 0 {
		return cs, nil
	}
	end, err := pcEnd(cs.Total)
	if err != nil {
		return cs, err
	}
	live := newLiveTeam(tel, threads, sched.Kind)
	runErr := ParallelForChunksCtx(ctx, threads, 1, end, sched, func(tid int, clo, chi int64) error {
		b, st := bounds[tid], &cs.PerThread[tid]
		var err error
		if live != nil {
			err = live.chunk(tid, b, st, clo, chi, chunk)
		} else if err = b.Unrank(clo, b.Scratch()); err == nil {
			err = chunk(tid, b, clo, chi, b.Scratch())
		}
		if err != nil {
			return err
		}
		st.Chunks++
		st.Iterations += chi - clo
		return nil
	})
	for t, b := range bounds {
		cs.PerThread[t].Unrank = b.Stats()
		cs.Stats.Add(cs.PerThread[t].Unrank)
	}
	live.finish(cs, runErr)
	return cs, runErr
}

// CollapsedFor executes the collapsed iteration space of r (pc =
// 1..Total) in parallel. Within each schedule chunk the §V scheme is
// used: the costly closed-form recovery runs once at the first iteration
// of the chunk, and subsequent index tuples come from lexicographic
// incrementation, mirroring the code of paper Figs. 4 and §V.
//
// body must be safe for concurrent invocation on distinct iterations;
// the idx slice is reused per worker.
func CollapsedFor(r *core.Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, idx []int64)) error {
	_, err := CollapsedForCtx(nil, r, params, threads, sched, nil, body)
	return err
}

// CollapsedForCtx is CollapsedFor with cooperative cancellation, panic
// capture and optional instrumentation, returning the run's per-thread
// record. ctx (nil disables it) is checked at every chunk boundary,
// never inside a chunk, and a canceled context stops the team with an
// error wrapping faults.ErrCanceled. A panic in body comes back as a
// *faults.PanicError; the process survives and the team drains cleanly.
// tel is the CollapsedForChunks instrumentation (nil: none).
func CollapsedForCtx(ctx context.Context, r *core.Result, params map[string]int64, threads int,
	sched Schedule, tel *telemetry.Registry, body func(tid int, idx []int64)) (CollapsedStats, error) {
	return CollapsedForChunks(ctx, r, params, threads, sched, tel,
		func(tid int, b *unrank.Bound, clo, chi int64, start []int64) error {
			return core.ForRangeFrom(b, clo, chi-1, start, func(_ int64, idx []int64) { body(tid, idx) })
		})
}

// CollapsedForRanges executes the collapsed space with the range-batched
// §V engine: each chunk performs one costly recovery, then the body
// receives maximal flat innermost runs instead of single iterations.
// body(tid, pc, prefix, lo, hi) covers collapsed ranks
// pc .. pc+(hi-lo)-1, whose tuples share the outer prefix (levels
// 0..C-2; slice reused per worker, do not retain) and take every
// innermost value lo <= i < hi — so the caller's innermost loop is a
// plain counted `for i := lo; i < hi; i++`, with bounds re-evaluated
// only on outer-level carries. Runs never cross chunk boundaries, so pc
// accounting (and therefore scheduling) is exactly that of CollapsedFor.
//
// ctx and tel are those of CollapsedForCtx. The returned engine counters
// (runs, carries, iterations) are also published on tel as
// "omp.range_batches" and "omp.range_carries": batches ≈ carries +
// chunks, and iterations/batches is the mean flat-run length the body
// enjoyed.
func CollapsedForRanges(ctx context.Context, r *core.Result, params map[string]int64, threads int,
	sched Schedule, tel *telemetry.Registry,
	body func(tid int, pc int64, prefix []int64, lo, hi int64)) (core.RangeStats, error) {
	stats := make([]core.RangeStats, max(threads, 1))
	_, err := CollapsedForChunks(ctx, r, params, threads, sched, tel,
		func(tid int, b *unrank.Bound, clo, chi int64, start []int64) error {
			return core.ForRangesFrom(b, clo, chi-1, start, &stats[tid],
				func(pc int64, prefix []int64, lo, hi int64) { body(tid, pc, prefix, lo, hi) })
		})
	var agg core.RangeStats
	for _, s := range stats {
		agg.Add(s)
	}
	tel.Counter("omp.range_batches").Add(agg.Batches)
	tel.Counter("omp.range_carries").Add(agg.Carries)
	return agg, err
}

// ThreadStats is the per-thread runtime record of a collapsed run: the
// thread's load row — how many chunks and iterations it completed, how
// long it was busy and how much of that went to the once-per-chunk
// closed-form recovery (both zero unless the run was instrumented) —
// and its own unranker counters.
type ThreadStats struct {
	telemetry.ThreadLoad
	Unrank unrank.Stats
}

// CollapsedStats aggregates the runtime statistics of one collapsed
// parallel run: the per-thread breakdown plus the team-wide sums of the
// recovery counters (root evaluations, corrections, fallbacks,
// searches) — the quantities behind the paper's Fig. 10 overhead
// discussion.
type CollapsedStats struct {
	Threads int
	Total   int64
	// Stats is the sum of every thread's unranker counters.
	Stats unrank.Stats
	// PerThread has one entry per team member, indexed by tid.
	PerThread []ThreadStats
}

// ImbalanceReport derives the load-balance summary (max/mean busy time,
// coefficients of variation) from the per-thread breakdown.
func (cs CollapsedStats) ImbalanceReport() telemetry.ImbalanceReport {
	loads := make([]telemetry.ThreadLoad, len(cs.PerThread))
	for i, t := range cs.PerThread {
		loads[i] = t.ThreadLoad
	}
	return telemetry.NewImbalance(loads)
}

// CollapsedForSIMD executes the collapsed space with the §VI.A
// vectorization scheme: each thread recovers its first tuple once, then
// repeatedly materialises batches of up to vlength consecutive tuples
// through unrank.RecoverBatchSeeded — the batched entry point rides its
// incrementation fast path for consecutive ranks, so the cost profile is
// the paper's (one costly recovery per thread, one cheap advance per
// iteration) while the whole batch lands in the thread-private array T
// in one call, which body consumes as the "#pragma omp simd" loop.
func CollapsedForSIMD(r *core.Result, params map[string]int64, threads, vlength int,
	body func(tid int, batch [][]int64)) error {
	vlength = max(vlength, 1)
	depth := r.C
	_, err := CollapsedForChunks(nil, r, params, threads, Schedule{Kind: Static}, nil,
		func(tid int, b *unrank.Bound, clo, chi int64, cur []int64) error {
			// Pre-allocate the thread-private tuple array T[vlength].
			backing := make([]int64, vlength*depth)
			batch := make([][]int64, vlength)
			for v := range batch {
				batch[v] = backing[v*depth : (v+1)*depth]
			}
			pcs := make([]int64, vlength)
			curPC := clo
			for pc := clo; pc < chi; {
				nb := int(min(int64(vlength), chi-pc))
				for v := range nb {
					pcs[v] = pc + int64(v)
				}
				if err := b.RecoverBatchSeeded(curPC, cur, pcs[:nb], batch[:nb]); err != nil {
					return err
				}
				body(tid, batch[:nb])
				copy(cur, batch[nb-1])
				curPC = pcs[nb-1]
				pc += int64(nb)
			}
			return nil
		})
	return err
}

// CollapsedForWarp executes the collapsed space with the §VI.B GPU-warp
// scheme: W lanes run concurrently; lane w executes iterations pc = w+1,
// w+1+W, w+1+2W, … The W lane-start tuples are recovered in a single
// batched pass (consecutive ranks, so the batch costs one full recovery
// plus W−1 incrementations) before the lanes spawn; each lane then
// advances by W lexicographic incrementations between iterations,
// achieving the coalesced-access distribution of the paper.
func CollapsedForWarp(r *core.Result, params map[string]int64, W int,
	body func(lane int, pc int64, idx []int64)) error {
	W = max(W, 1)
	bounds, err := bindTeam(r, params, W)
	if err != nil {
		return err
	}
	total := bounds[0].Total()
	if total > math.MaxInt64-int64(W) {
		// Lane strides pc += W would wrap past MaxInt64 near the end.
		return fmt.Errorf("omp: collapsed total %d overflows the warp stride: %w",
			total, faults.ErrOverflow)
	}
	// Batch-recover the W lane starts (pcs 1..W) in one pass before the
	// lanes spawn: consecutive ranks ride RecoverBatch's incrementation
	// fast path, so the whole warp pays a single full recovery instead of
	// one per lane.
	nlanes := min(int64(W), total)
	startPCs := make([]int64, nlanes)
	startBacking := make([]int64, int(nlanes)*r.C)
	starts := make([][]int64, nlanes)
	for w := range starts {
		startPCs[w] = int64(w) + 1
		starts[w] = startBacking[w*r.C : (w+1)*r.C]
	}
	if err := bounds[0].RecoverBatch(startPCs, starts); err != nil {
		return err
	}
	// One single-lane chunk per worker: the team runtime spawns the
	// lanes and captures their panics.
	return ParallelForChunksCtx(nil, W, 0, int64(W), Schedule{Kind: StaticChunk, Chunk: 1},
		func(lane int, _, _ int64) error {
			b := bounds[lane]
			start := int64(lane) + 1
			if start > total {
				return nil
			}
			idx := make([]int64, r.C)
			copy(idx, starts[lane])
			for pc := start; pc <= total; pc += int64(W) {
				body(lane, pc, idx)
				for inc := 0; inc < W && pc+int64(inc) < total; inc++ {
					if !b.Increment(idx) {
						break
					}
				}
			}
			return nil
		})
}
