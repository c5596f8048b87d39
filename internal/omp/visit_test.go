package omp_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/stress"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// recorder collects the visits of one run: the collapsed rank when the
// entry point reports it (0 otherwise) and a copy of the tuple.
type recorder struct {
	mu  sync.Mutex
	pcs []int64
	idx [][]int64
}

func (r *recorder) add(pc int64, idx []int64) {
	cp := append([]int64(nil), idx...)
	r.mu.Lock()
	r.pcs = append(r.pcs, pc)
	r.idx = append(r.idx, cp)
	r.mu.Unlock()
}

// visitRunner drives one entry point over res, recording every visit.
// It returns the run's stats when the entry point reports them and
// recovers once per chunk, so the recovery-count assertions apply.
type visitRunner struct {
	name string
	run  func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
		rec *recorder) (*omp.CollapsedStats, error)
}

func visitRunners() []visitRunner {
	shard := func(seeded bool) func(*core.Result, map[string]int64, int, omp.Schedule, *recorder) (*omp.CollapsedStats, error) {
		return func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			b, err := res.Unranker.Bind(params)
			if err != nil {
				return nil, err
			}
			total := b.Total()
			for s := 0; s < threads; s++ {
				lo, hi := 1+total*int64(s)/int64(threads), total*int64(s+1)/int64(threads)
				var start []int64
				if seeded && lo <= hi {
					start = make([]int64, res.C)
					if err := b.Unrank(lo, start); err != nil {
						return nil, err
					}
				}
				done, err := omp.ShardForCtxFrom(context.Background(), s, b, start, lo, hi, sched.Chunk, nil, rec.add)
				if err != nil {
					return nil, err
				}
				if done != hi-lo+1 {
					return nil, fmt.Errorf("shard [%d,%d] reported %d done", lo, hi, done)
				}
			}
			return nil, nil
		}
	}
	return []visitRunner{
		{"CollapsedFor", func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			return nil, omp.CollapsedFor(res, params, threads, sched, func(_ int, idx []int64) { rec.add(0, idx) })
		}},
		{"CollapsedForCtx/nil", func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			cs, err := omp.CollapsedForCtx(context.Background(), res, params, threads, sched, nil,
				func(_ int, idx []int64) { rec.add(0, idx) })
			return &cs, err
		}},
		{"CollapsedForCtx/registry", func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			tel := telemetry.New()
			cs, err := omp.CollapsedForCtx(context.Background(), res, params, threads, sched, tel,
				func(_ int, idx []int64) { rec.add(0, idx) })
			if got := tel.Counter("omp.iterations").Value(); err == nil && got != cs.Total {
				err = fmt.Errorf("omp.iterations = %d, want %d", got, cs.Total)
			}
			return &cs, err
		}},
		{"CollapsedForChunks/recover-every", func(res *core.Result, params map[string]int64, threads int,
			sched omp.Schedule, rec *recorder) (*omp.CollapsedStats, error) {
			_, err := omp.CollapsedForChunks(nil, res, params, threads, sched, nil,
				func(_ int, b *unrank.Bound, clo, chi int64, _ []int64) error {
					return core.ForRangeEvery(b, clo, chi-1, rec.add)
				})
			return nil, err
		}},
		{"CollapsedForRanges", func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			_, err := omp.CollapsedForRanges(nil, res, params, threads, sched, nil,
				func(_ int, pc int64, prefix []int64, lo, hi int64) {
					for i := lo; i < hi; i++ {
						rec.add(pc+i-lo, append(append([]int64(nil), prefix...), i))
					}
				})
			return nil, err
		}},
		{"CollapsedForSIMD", func(res *core.Result, params map[string]int64, threads int, sched omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			vlength := int(sched.Chunk) + 1
			var err error
			var mu sync.Mutex
			runErr := omp.CollapsedForSIMD(res, params, threads, vlength, func(_ int, batch [][]int64) {
				if len(batch) == 0 || len(batch) > vlength {
					mu.Lock()
					err = fmt.Errorf("batch size %d with vlength %d", len(batch), vlength)
					mu.Unlock()
				}
				for _, idx := range batch {
					rec.add(0, idx)
				}
			})
			if runErr != nil {
				return nil, runErr
			}
			return nil, err
		}},
		{"CollapsedForWarp", func(res *core.Result, params map[string]int64, threads int, _ omp.Schedule,
			rec *recorder) (*omp.CollapsedStats, error) {
			return nil, omp.CollapsedForWarp(res, params, threads, func(_ int, pc int64, idx []int64) { rec.add(pc, idx) })
		}},
		{"ShardForCtxFrom/unseeded", shard(false)},
		{"ShardForCtxFrom/seeded", shard(true)},
	}
}

// TestCollapsedVisitSets checks every collapsed entry point, under every
// stress schedule, team size and recovery mode, against sequential
// enumeration: each in-domain tuple is visited exactly once, nothing
// outside the domain runs, reported ranks are the tuples' ranks, and
// the reported stats cover the total. Closed-form static runs must pay
// the §V recovery at most once per thread.
func TestCollapsedVisitSets(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	const N = 40
	params := map[string]int64{"N": N}
	for _, mode := range []struct {
		name string
		opts unrank.Options
	}{
		{"closed-form", unrank.Options{}},
		{"table", unrank.Options{Mode: unrank.ModeTable}},
	} {
		res, err := core.Collapse(n, 2, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Unranker.Bind(params)
		if err != nil {
			t.Fatal(err)
		}
		var truth [][]int64
		b.Instance().Enumerate(func(idx []int64) bool {
			truth = append(truth, append([]int64(nil), idx...))
			return true
		})
		if len(truth) != (N-1)*N/2 {
			t.Fatalf("enumeration has %d tuples, want %d", len(truth), (N-1)*N/2)
		}
		for _, r := range visitRunners() {
			for _, sched := range stress.Schedules() {
				for _, threads := range []int{1, 3, 12} {
					label := fmt.Sprintf("%s/%s/%s,%d/threads=%d", mode.name, r.name, sched.Kind, sched.Chunk, threads)
					rec := &recorder{}
					cs, err := r.run(res, params, threads, sched, rec)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkVisits(t, label, truth, rec)
					if cs == nil {
						continue
					}
					var iters int64
					for _, st := range cs.PerThread {
						iters += st.Iterations
					}
					if cs.Total != int64(len(truth)) || iters != cs.Total {
						t.Fatalf("%s: stats total %d, per-thread iterations %d, want %d",
							label, cs.Total, iters, len(truth))
					}
					if mode.name == "closed-form" && sched.Kind == omp.Static {
						if cs.Stats.RootEvals > int64(threads) {
							t.Fatalf("%s: RootEvals = %d, want <= %d (once per thread)", label, cs.Stats.RootEvals, threads)
						}
						if cs.Stats.RootEvals == 0 {
							t.Fatalf("%s: no root evaluations recorded", label)
						}
					}
				}
			}
		}
	}
}

// checkVisits compares a run's visits with the enumeration truth (in
// rank order, so truth[pc-1] is the tuple of rank pc).
func checkVisits(t *testing.T, label string, truth [][]int64, rec *recorder) {
	t.Helper()
	rank := make(map[string]int, len(truth))
	for i, idx := range truth {
		rank[fmt.Sprint(idx)] = i + 1
	}
	seen := make([]int, len(truth)+1)
	for v, idx := range rec.idx {
		pc, ok := rank[fmt.Sprint(idx)]
		if !ok {
			t.Fatalf("%s: out-of-domain tuple %v executed", label, idx)
		}
		if got := rec.pcs[v]; got != 0 && got != int64(pc) {
			t.Fatalf("%s: tuple %v reported at pc %d, its rank is %d", label, idx, got, pc)
		}
		seen[pc]++
	}
	for pc := 1; pc < len(seen); pc++ {
		if seen[pc] != 1 {
			t.Fatalf("%s: tuple %v ran %d times", label, truth[pc-1], seen[pc])
		}
	}
}
