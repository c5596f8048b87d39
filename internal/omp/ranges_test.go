package omp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// rangeSchedules deliberately uses chunk sizes that do not divide the
// triangular run lengths, so chunk boundaries split innermost runs.
func rangeSchedules() []Schedule {
	return []Schedule{
		{Kind: Static},
		{Kind: StaticChunk, Chunk: 7},
		{Kind: Dynamic, Chunk: 5},
		{Kind: Guided, Chunk: 3},
	}
}

// TestCollapsedForRangesDifferential checks, for triangular and
// tetrahedral nests under every schedule kind, that the range-batched
// executor visits exactly the same (pc, idx) multiset as the
// per-iteration CollapsedFor and as sequential enumeration.
func TestCollapsedForRangesDifferential(t *testing.T) {
	cases := []struct {
		name   string
		n      *nest.Nest
		params map[string]int64
	}{
		{"tri", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N")), map[string]int64{"N": 17}},
		{"tetra", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1")),
			map[string]int64{"N": 9}},
		{"depth1", nest.MustNew([]string{"N"},
			nest.L("i", "3", "N")), map[string]int64{"N": 41}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Collapse(tc.n, tc.n.Depth(), unrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Unranker.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			truth := make(map[string]int)
			pc := int64(1)
			b.Instance().Enumerate(func(idx []int64) bool {
				truth[fmt.Sprintf("%d:%v", pc, idx)]++
				pc++
				return true
			})
			for _, sched := range rangeSchedules() {
				for _, threads := range []int{1, 4} {
					label := fmt.Sprintf("%v/threads=%d", sched.Kind, threads)

					perIter := make(map[string]int)
					var mu sync.Mutex
					// CollapsedFor has no pc in its body; reconstruct via a
					// per-thread Rank — instead use ranges' own pc below and
					// compare the per-iteration path by tuple + rank query.
					err := CollapsedFor(res, tc.params, threads, sched, func(tid int, idx []int64) {
						// b.Rank mutates the shared Bound's scratch: the
						// mutex serializes it along with the map insert.
						mu.Lock()
						perIter[fmt.Sprintf("%d:%v", b.Rank(idx), idx)]++
						mu.Unlock()
					})
					if err != nil {
						t.Fatalf("%s: CollapsedFor: %v", label, err)
					}
					diffMultiset(t, label+" per-iteration", truth, perIter)

					ranged := make(map[string]int)
					st, err := CollapsedForRanges(nil, res, tc.params, threads, sched, nil,
						func(tid int, pc int64, prefix []int64, lo, hi int64) {
							mu.Lock()
							for i := lo; i < hi; i++ {
								tuple := append(append([]int64(nil), prefix...), i)
								ranged[fmt.Sprintf("%d:%v", pc+(i-lo), tuple)]++
							}
							mu.Unlock()
						})
					if err != nil {
						t.Fatalf("%s: CollapsedForRanges: %v", label, err)
					}
					diffMultiset(t, label+" range-batched", truth, ranged)
					if st.Iterations != b.Total() {
						t.Fatalf("%s: stats cover %d iterations, want %d", label, st.Iterations, b.Total())
					}
					if st.Batches == 0 || st.Batches < st.Carries {
						t.Fatalf("%s: implausible stats %+v", label, st)
					}
				}
			}
		})
	}
}

func diffMultiset(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct visits, want %d", label, len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Fatalf("%s: visit %s seen %d times, want %d", label, k, got[k], want[k])
		}
	}
}

// TestCollapsedForRangesTelemetry checks the engine counters reach the
// registry and are mutually consistent.
func TestCollapsedForRangesTelemetry(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i+1"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 12}
	tel := telemetry.New()
	st, err := CollapsedForRanges(nil, res, params, 3, Schedule{Kind: StaticChunk, Chunk: 4}, tel,
		func(int, int64, []int64, int64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("omp.range_batches").Value(); got != st.Batches {
		t.Errorf("omp.range_batches = %d, want %d", got, st.Batches)
	}
	if got := tel.Counter("omp.range_carries").Value(); got != st.Carries {
		t.Errorf("omp.range_carries = %d, want %d", got, st.Carries)
	}
	if got := tel.Counter("omp.iterations").Value(); got != st.Iterations {
		t.Errorf("omp.iterations = %d, want %d", got, st.Iterations)
	}
}

// TestCollapsedForRangesCancel checks cooperative cancellation stops the
// range engine at a chunk boundary with ErrCanceled.
func TestCollapsedForRangesCancel(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CollapsedForRanges(ctx, res, map[string]int64{"N": 50}, 2,
		Schedule{Kind: Dynamic, Chunk: 10}, nil, func(int, int64, []int64, int64, int64) {})
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("got %v, want canceled", err)
	}
}
