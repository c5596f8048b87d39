package omp

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/unrank"
)

var allScheds = []Schedule{
	{Kind: Static},
	{Kind: StaticChunk, Chunk: 3},
	{Kind: StaticChunk, Chunk: 1},
	{Kind: Dynamic},
	{Kind: Dynamic, Chunk: 5},
	{Kind: Guided},
	{Kind: Guided, Chunk: 4},
}

func TestParallelForExactlyOnce(t *testing.T) {
	for _, sched := range allScheds {
		for _, threads := range []int{1, 2, 3, 7} {
			for _, n := range []int64{0, 1, 5, 64, 1000} {
				counts := make([]int32, n)
				ParallelFor(threads, 0, n, sched, func(tid int, i int64) {
					atomic.AddInt32(&counts[i], 1)
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("sched %v threads=%d n=%d: index %d ran %d times", sched, threads, n, i, c)
					}
				}
			}
		}
	}
}

func TestParallelForNonZeroLo(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(4, 10, 20, Schedule{Kind: Dynamic, Chunk: 3}, func(tid int, i int64) {
		sum.Add(i)
	})
	if got := sum.Load(); got != 145 {
		t.Errorf("sum = %d, want 145", got)
	}
}

func TestStaticContiguity(t *testing.T) {
	// Static must hand each thread a single contiguous block, in order.
	var mu sync.Mutex
	blocks := map[int][][2]int64{}
	ParallelForChunks(4, 0, 103, Schedule{Kind: Static}, func(tid int, lo, hi int64) {
		mu.Lock()
		blocks[tid] = append(blocks[tid], [2]int64{lo, hi})
		mu.Unlock()
	})
	var totalLen int64
	for tid, bs := range blocks {
		if len(bs) != 1 {
			t.Errorf("thread %d got %d blocks", tid, len(bs))
		}
		totalLen += bs[0][1] - bs[0][0]
	}
	if totalLen != 103 {
		t.Errorf("covered %d iterations, want 103", totalLen)
	}
	// Block sizes must differ by at most 1 (perfect balance in counts).
	var minSz, maxSz int64 = 1 << 62, 0
	for _, bs := range blocks {
		sz := bs[0][1] - bs[0][0]
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Errorf("static imbalance in iteration counts: min %d max %d", minSz, maxSz)
	}
}

func TestStaticChunkRoundRobin(t *testing.T) {
	// With chunk=2 and 3 threads over [0,12), thread 0 gets [0,2),[6,8), etc.
	var mu sync.Mutex
	owner := map[int64]int{}
	ParallelForChunks(3, 0, 12, Schedule{Kind: StaticChunk, Chunk: 2}, func(tid int, lo, hi int64) {
		mu.Lock()
		owner[lo] = tid
		mu.Unlock()
		if hi-lo != 2 {
			t.Errorf("chunk [%d,%d) wrong size", lo, hi)
		}
	})
	want := map[int64]int{0: 0, 2: 1, 4: 2, 6: 0, 8: 1, 10: 2}
	for lo, tid := range want {
		if owner[lo] != tid {
			t.Errorf("chunk at %d owned by %d, want %d", lo, owner[lo], tid)
		}
	}
}

func TestGuidedChunksDecreaseAndCover(t *testing.T) {
	var mu sync.Mutex
	var sizes []int64
	var covered int64
	ParallelForChunks(4, 0, 1000, Schedule{Kind: Guided}, func(tid int, lo, hi int64) {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		covered += hi - lo
		mu.Unlock()
	})
	if covered != 1000 {
		t.Errorf("guided covered %d", covered)
	}
	if len(sizes) < 5 {
		t.Errorf("guided produced only %d chunks", len(sizes))
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" ||
		Guided.String() != "guided" || StaticChunk.String() != "static,chunk" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func correlationResult() *core.Result {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "i+1", "N"),
	)
	return core.MustCollapse(n, 2, unrank.Options{})
}

func TestCollapsedForExactlyOnce(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 40}
	N := params["N"]
	for _, sched := range allScheds {
		for _, threads := range []int{1, 3, 8} {
			counts := make([]int32, N*N)
			err := CollapsedFor(r, params, threads, sched, func(tid int, idx []int64) {
				atomic.AddInt32(&counts[idx[0]*N+idx[1]], 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			var total int32
			for i := int64(0); i < N; i++ {
				for j := int64(0); j < N; j++ {
					c := counts[i*N+j]
					inDomain := i < N-1 && j > i
					if inDomain && c != 1 {
						t.Fatalf("sched %v threads %d: (%d,%d) ran %d times", sched, threads, i, j, c)
					}
					if !inDomain && c != 0 {
						t.Fatalf("sched %v: out-of-domain (%d,%d) executed", sched, i, j)
					}
					total += c
				}
			}
			if want := int32((N - 1) * N / 2); total != want {
				t.Fatalf("total %d, want %d", total, want)
			}
		}
	}
}

// TestCollapsedForEveryMatches checks that recovering every iteration
// (core.ForRangeEvery inside a CollapsedForChunks chunk) covers the
// same tuples as the recover-once-per-chunk CollapsedFor.
func TestCollapsedForEveryMatches(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 25}
	N := params["N"]
	a := make([]int32, N*N)
	b := make([]int32, N*N)
	if err := CollapsedFor(r, params, 4, Schedule{Kind: Static}, func(tid int, idx []int64) {
		atomic.AddInt32(&a[idx[0]*N+idx[1]], 1)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := CollapsedForChunks(nil, r, params, 4, Schedule{Kind: Dynamic, Chunk: 2}, nil,
		func(tid int, bd *unrank.Bound, clo, chi int64, _ []int64) error {
			return core.ForRangeEvery(bd, clo, chi-1, func(_ int64, idx []int64) {
				atomic.AddInt32(&b[idx[0]*N+idx[1]], 1)
			})
		}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coverage differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRunCollapsedWithStats checks the stats CollapsedForCtx reports
// without telemetry: they cover every executed iteration and show the
// §V static scheme's one costly recovery per thread.
func TestRunCollapsedWithStats(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 60}
	threads := 12
	var n atomic.Int64
	cs, err := CollapsedForCtx(nil, r, params, threads, Schedule{Kind: Static}, nil, func(tid int, idx []int64) {
		n.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != cs.Total {
		t.Errorf("executed %d, total %d", n.Load(), cs.Total)
	}
	if cs.Stats.RootEvals > int64(threads) {
		t.Errorf("RootEvals = %d, want <= %d (once per thread)", cs.Stats.RootEvals, threads)
	}
	if cs.Stats.RootEvals == 0 {
		t.Error("no root evaluations recorded")
	}
}

// TestCollapsedNoPerChunkAlloc is the allocation guard of the
// telemetry-off collapsed executors: with threads=1 and dynamic,1 (one
// chunk per iteration) the allocations of a call must not grow with the
// chunk count — the chunk loop allocates nothing.
func TestCollapsedNoPerChunkAlloc(t *testing.T) {
	r := correlationResult()
	sched := Schedule{Kind: Dynamic, Chunk: 1}
	for _, tc := range []struct {
		name string
		run  func(params map[string]int64) error
	}{
		{"CollapsedFor", func(p map[string]int64) error {
			return CollapsedFor(r, p, 1, sched, func(int, []int64) {})
		}},
		{"CollapsedForCtx", func(p map[string]int64) error {
			_, err := CollapsedForCtx(nil, r, p, 1, sched, nil, func(int, []int64) {})
			return err
		}},
		{"CollapsedForRanges", func(p map[string]int64) error {
			_, err := CollapsedForRanges(nil, r, p, 1, sched, nil, func(int, int64, []int64, int64, int64) {})
			return err
		}},
	} {
		allocs := func(n int64) float64 {
			p := map[string]int64{"N": n}
			return testing.AllocsPerRun(10, func() {
				if err := tc.run(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(50), allocs(200)
		if large > small {
			t.Errorf("%s allocates per chunk: %v allocs at 1225 chunks, %v at 19900", tc.name, small, large)
		}
	}
}

// TestSerialChunksMatchTeamPlan checks the serial fast path of
// ParallelForChunks emits exactly the chunks ParallelForChunksCtx plans
// at threads=1, for every schedule kind.
func TestSerialChunksMatchTeamPlan(t *testing.T) {
	for _, kind := range []Kind{Static, StaticChunk, Dynamic, Guided, ScheduleAuto} {
		for _, chunk := range []int64{0, 1, 7} {
			sched := Schedule{Kind: kind, Chunk: chunk}
			var serial, team [][2]int64
			ParallelForChunks(1, 3, 200, sched, func(_ int, clo, chi int64) {
				serial = append(serial, [2]int64{clo, chi})
			})
			err := ParallelForChunksCtx(nil, 1, 3, 200, sched, func(_ int, clo, chi int64) error {
				team = append(team, [2]int64{clo, chi})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, team) {
				t.Errorf("%v chunk %d: ParallelForChunks %v, ParallelForChunksCtx %v", kind, chunk, serial, team)
			}
		}
	}
}

func TestCollapsedForSIMD(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 30}
	N := params["N"]
	for _, vlength := range []int{1, 4, 7, 16} {
		counts := make([]int32, N*N)
		var batches atomic.Int64
		err := CollapsedForSIMD(r, params, 3, vlength, func(tid int, batch [][]int64) {
			batches.Add(1)
			if len(batch) == 0 || len(batch) > vlength {
				t.Errorf("batch size %d with vlength %d", len(batch), vlength)
			}
			for _, idx := range batch {
				atomic.AddInt32(&counts[idx[0]*N+idx[1]], 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int32
		for _, c := range counts {
			total += c
			if c > 1 {
				t.Fatalf("vlength %d: duplicated iteration", vlength)
			}
		}
		if want := int32((N - 1) * N / 2); total != want {
			t.Fatalf("vlength %d: total %d, want %d", vlength, total, want)
		}
	}
}

func TestCollapsedForWarp(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 22}
	N := params["N"]
	for _, W := range []int{1, 2, 8, 32} {
		counts := make([]int32, N*N)
		seenPC := make([]int32, (N-1)*N/2+1)
		err := CollapsedForWarp(r, params, W, func(lane int, pc int64, idx []int64) {
			atomic.AddInt32(&counts[idx[0]*N+idx[1]], 1)
			atomic.AddInt32(&seenPC[pc], 1)
			// Lane affinity: pc ≡ lane+1 (mod W).
			if (pc-1)%int64(W) != int64(lane) {
				t.Errorf("W=%d: lane %d executed pc %d", W, lane, pc)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int32
		for _, c := range counts {
			total += c
			if c > 1 {
				t.Fatalf("W=%d: duplicated iteration", W)
			}
		}
		if want := int32((N - 1) * N / 2); total != want {
			t.Fatalf("W=%d: total %d, want %d", W, total, want)
		}
		for pc := 1; pc < len(seenPC); pc++ {
			if seenPC[pc] != 1 {
				t.Fatalf("W=%d: pc %d executed %d times", W, pc, seenPC[pc])
			}
		}
	}
}

func TestEmptySpace(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 1} // (N-1)N/2 = 0
	called := false
	if err := CollapsedFor(r, params, 4, Schedule{Kind: Static}, func(int, []int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called on empty space")
	}
	if err := CollapsedForSIMD(r, params, 2, 4, func(int, [][]int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if err := CollapsedForWarp(r, params, 4, func(int, int64, []int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called on empty space (simd/warp)")
	}
}
