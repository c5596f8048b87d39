package omp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

func liveResult(t *testing.T) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveProgressGauges runs the instrumented executor and checks the
// live per-worker series: chunk/iteration counters labelled by tid sum
// to the run totals, the in-flight markers clear at run end, and the
// unrank counters published incrementally match the aggregated stats
// exactly (no double counting between the per-chunk deltas and the
// end-of-run remainder).
func TestLiveProgressGauges(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	threads := 4
	cs, err := CollapsedForCtx(nil, res, map[string]int64{"N": 60}, threads,
		Schedule{Kind: StaticChunk, Chunk: 37}, tel, func(tid int, idx []int64) {})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Gauges["omp.team_size"]; got != int64(threads) {
		t.Errorf("omp.team_size = %d, want %d", got, threads)
	}
	sched := StaticChunk.String()
	var chunks, iters int64
	for tid := 0; tid < threads; tid++ {
		chunks += snap.Counters[fmt.Sprintf("omp.worker_chunks{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
		iters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
		if since := snap.Gauges[fmt.Sprintf("omp.worker_inflight_since_ns{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]; since != 0 {
			t.Errorf("worker %d inflight marker %d after run end, want 0", tid, since)
		}
	}
	var wantChunks int64
	for _, st := range cs.PerThread {
		wantChunks += st.Chunks
	}
	if chunks != wantChunks {
		t.Errorf("live chunk counters sum to %d, want %d", chunks, wantChunks)
	}
	if iters != cs.Total {
		t.Errorf("live iteration counters sum to %d, want %d", iters, cs.Total)
	}
	if got := snap.Counters["unrank.root_evals"]; got != cs.Stats.RootEvals {
		t.Errorf("unrank.root_evals = %d, want %d (incremental publish must not double count)",
			got, cs.Stats.RootEvals)
	}
	if got := snap.Counters["unrank.corrections"]; got != cs.Stats.Corrections {
		t.Errorf("unrank.corrections = %d, want %d", got, cs.Stats.Corrections)
	}
}

// TestLiveGaugesMidRun scrapes the registry from inside the body of a
// running collapsed loop and checks progress is visible before the run
// finishes — the property the obs plane's /metrics endpoint depends on.
func TestLiveGaugesMidRun(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	var scraped atomic.Bool
	var midIters int64
	threads := 2
	sched := StaticChunk.String()
	_, err := CollapsedForCtx(nil, res, map[string]int64{"N": 120}, threads,
		Schedule{Kind: StaticChunk, Chunk: 16}, tel, func(tid int, idx []int64) {
			if idx[0] > 60 && scraped.CompareAndSwap(false, true) {
				snap := tel.Snapshot()
				for tid := 0; tid < threads; tid++ {
					midIters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !scraped.Load() {
		t.Fatal("scrape body never ran")
	}
	if midIters <= 0 {
		t.Errorf("mid-run scrape saw %d iterations, want > 0", midIters)
	}
}

// TestRangesLiveGauges checks the range-batched engine publishes the
// same live series.
func TestRangesLiveGauges(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	_, err := CollapsedForRanges(nil, res, map[string]int64{"N": 50}, 3,
		Schedule{Kind: Static}, tel, func(tid int, pc int64, prefix []int64, lo, hi int64) {})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	sched := Static.String()
	var iters int64
	for tid := 0; tid < 3; tid++ {
		iters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
	}
	want := snap.Counters["omp.iterations"]
	if want == 0 || iters != want {
		t.Errorf("per-worker live iterations %d, want omp.iterations %d (nonzero)", iters, want)
	}
}

// TestIterationsCounterOnCanceledRun cancels an instrumented run midway:
// "omp.iterations" must count the iterations that ran (the completed
// chunks, the same figure as the per-thread records), not the total.
func TestIterationsCounterOnCanceledRun(t *testing.T) {
	tel := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	cs, err := CollapsedForCtx(ctx, liveResult(t), map[string]int64{"N": 200}, 2,
		Schedule{Kind: Dynamic, Chunk: 16}, tel, func(int, []int64) {
			if n.Add(1) == 2000 {
				cancel()
			}
		})
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ran int64
	for _, st := range cs.PerThread {
		ran += st.Iterations
	}
	got := tel.Counter("omp.iterations").Value()
	if got != ran || got == 0 || got >= cs.Total {
		t.Errorf("omp.iterations = %d, want the %d completed-chunk iterations (0 < n < total %d)",
			got, ran, cs.Total)
	}
	if c := tel.Counter("omp.cancellations").Value(); c != 1 {
		t.Errorf("omp.cancellations = %d, want 1", c)
	}
}
