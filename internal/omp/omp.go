// Package omp is a small OpenMP-style parallel-for runtime over
// goroutines. It substitutes for the OpenMP constructs used in the
// paper's evaluation (§VII): worksharing of an integer iteration range
// across a fixed team of threads under the static, static-chunked,
// dynamic and guided schedules, plus the collapsed-loop execution schemes
// of §V (one costly index recovery per chunk, then lexicographic
// incrementation), §VI.A (SIMD batches) and §VI.B (warp-strided lanes).
//
// Scheduling semantics follow the OpenMP 4.0 description:
//
//   - Static: the range is divided into one contiguous block per thread,
//     of near-equal size (block-cyclic with a single block).
//   - StaticChunk: chunks of the given size are assigned round-robin to
//     threads (thread t runs chunks t, t+P, t+2P, …).
//   - Dynamic: each thread repeatedly grabs the next chunk (default size
//     1) from a shared counter.
//   - Guided: chunk sizes start at remaining/P and decay exponentially,
//     bounded below by the requested chunk size (default 1).
package omp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Kind enumerates the worksharing schedules.
type Kind int

const (
	Static Kind = iota
	StaticChunk
	Dynamic
	Guided
	// ScheduleAuto asks the runtime to choose: the autotuning planner
	// (internal/autotune, surfaced as nonrect.CollapsedForTuned and the
	// daemon's "auto" schedule clause) resolves it to a concrete
	// (kind, chunk, workers) decision by simulating candidates against
	// the nest's measured work vector. An unresolved ScheduleAuto that
	// reaches the worksharing engine directly degrades to guided via
	// Resolved() — the safest static fallback under unknown imbalance.
	ScheduleAuto
)

// String returns the OpenMP clause spelling of the schedule kind.
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case StaticChunk:
		return "static,chunk"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case ScheduleAuto:
		return "auto"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Schedule is a schedule clause: a kind plus an optional chunk size.
type Schedule struct {
	Kind  Kind
	Chunk int64 // chunk size; defaults: StaticChunk/Dynamic/Guided -> 1
}

func (s Schedule) chunk() int64 {
	if s.Chunk > 0 {
		return s.Chunk
	}
	return 1
}

// Resolved maps ScheduleAuto to its unplanned fallback (guided, which
// self-balances without a measured work vector); concrete schedules
// pass through unchanged. The chunk planners resolve implicitly, so an
// auto schedule is always executable even without the planner.
func (s Schedule) Resolved() Schedule {
	if s.Kind == ScheduleAuto {
		return Schedule{Kind: Guided, Chunk: s.Chunk}
	}
	return s
}

// DefaultThreads returns the default team size (GOMAXPROCS).
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// chunkPlan builds the per-thread chunk iterator for a schedule over
// [lo, hi). The returned function is called once per thread (possibly
// concurrently) and emits that thread's chunks in order; shared state
// (the dynamic/guided queues) lives in the plan's closure. emit returns
// false to stop the thread's chunk stream early (cancellation or a
// failure elsewhere in the team).
func chunkPlan(threads int, lo, hi int64, sched Schedule) func(tid int, emit func(clo, chi int64) bool) {
	sched = sched.Resolved()
	n := hi - lo
	switch sched.Kind {
	case Static:
		base := n / int64(threads)
		rem := n % int64(threads)
		return func(tid int, emit func(clo, chi int64) bool) {
			size := base
			start := lo + int64(tid)*base
			if int64(tid) < rem {
				size++
				start += int64(tid)
			} else {
				start += rem
			}
			if size > 0 {
				emit(start, start+size)
			}
		}
	case StaticChunk:
		ch := sched.chunk()
		return func(tid int, emit func(clo, chi int64) bool) {
			clo := lo + int64(tid)*ch
			if clo < lo { // tid*ch overflowed past MaxInt64
				return
			}
			for clo < hi {
				chi := clo + ch
				if chi > hi || chi < clo { // clo+ch overflow saturates at hi
					chi = hi
				}
				if !emit(clo, chi) {
					return
				}
				next := clo + int64(threads)*ch
				if next <= clo { // stride overflowed: no further chunks exist
					return
				}
				clo = next
			}
		}
	case Dynamic:
		ch := sched.chunk()
		var next atomic.Int64
		next.Store(lo)
		return func(tid int, emit func(clo, chi int64) bool) {
			for {
				clo := next.Add(ch) - ch
				// clo < lo means the shared counter wrapped past MaxInt64
				// (possible when hi is near the top of the int64 range and
				// several threads race past exhaustion); treat as done.
				if clo >= hi || clo < lo {
					return
				}
				chi := clo + ch
				if chi > hi || chi < clo {
					chi = hi
				}
				if !emit(clo, chi) {
					return
				}
			}
		}
	case Guided:
		minCh := sched.chunk()
		var mu sync.Mutex
		cur := lo
		grab := func() (int64, int64, bool) {
			mu.Lock()
			defer mu.Unlock()
			if cur >= hi {
				return 0, 0, false
			}
			remaining := hi - cur
			size := remaining / int64(threads)
			if size < minCh {
				size = minCh
			}
			if size > remaining {
				size = remaining
			}
			clo := cur
			cur += size
			return clo, clo + size, true
		}
		return func(tid int, emit func(clo, chi int64) bool) {
			for {
				clo, chi, ok := grab()
				if !ok {
					return
				}
				if !emit(clo, chi) {
					return
				}
			}
		}
	default:
		panic(fmt.Sprintf("omp: unknown schedule kind %d", sched.Kind))
	}
}

// canceled wraps the context's cause in faults.ErrCanceled so callers
// can classify the stop with a single errors.Is test.
func canceled(ctx context.Context) error {
	return fmt.Errorf("omp: %v: %w", context.Cause(ctx), faults.ErrCanceled)
}

// ParallelForChunksCtx is the fault-tolerant worksharing engine every
// parallel entry point is built on. It partitions [lo, hi) according to
// the schedule and runs body(tid, clo, chi) for each contiguous chunk,
// with three guarantees the plain OpenMP-style loops lack:
//
//   - a panic in body is recovered on the worker, captured with its
//     stack as a *faults.PanicError, and returned as an error — the
//     team drains cleanly at the next chunk boundaries and the process
//     survives;
//   - ctx is checked at every chunk boundary (never mid-chunk), so a
//     canceled context stops the run cooperatively with an error
//     wrapping faults.ErrCanceled;
//   - a non-nil error from body stops the whole team at the next chunk
//     boundaries; the first error (in team observation order) wins.
//
// A nil ctx disables cancellation. An active fault-injection plan
// (faults.Activate, test-only) is consulted before each chunk.
func ParallelForChunksCtx(ctx context.Context, threads int, lo, hi int64, sched Schedule,
	body func(tid int, clo, chi int64) error) error {
	if threads < 1 {
		threads = 1
	}
	if lo < 0 && hi > math.MaxInt64+lo {
		// The extent hi-lo does not fit in int64: the chunk planners'
		// size arithmetic would wrap. Refuse rather than mis-iterate.
		return fmt.Errorf("omp: range [%d,%d) extent exceeds int64: %w", lo, hi, faults.ErrOverflow)
	}
	if hi-lo <= 0 {
		return nil
	}
	var stop atomic.Bool
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		stop.Store(true)
		errOnce.Do(func() { firstErr = err })
	}
	plan := chunkPlan(threads, lo, hi, sched)
	worker := func(tid int) {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("omp: worker %d: %w", tid, faults.Recovered(r)))
			}
		}()
		plan(tid, func(clo, chi int64) bool {
			if stop.Load() {
				return false
			}
			if ctx != nil {
				select {
				case <-ctx.Done():
					fail(canceled(ctx))
					return false
				default:
				}
			}
			if err := faults.InjectChunk(tid, clo, chi); err != nil {
				fail(fmt.Errorf("omp: injected fault at chunk [%d,%d): %w", clo, chi, err))
				return false
			}
			if err := body(tid, clo, chi); err != nil {
				fail(err)
				return false
			}
			return true
		})
	}
	if threads == 1 {
		worker(0)
		return firstErr
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			worker(tid)
		}(t)
	}
	wg.Wait()
	return firstErr
}

// ParallelForChunks partitions the half-open range [lo, hi) according to
// the schedule and invokes body(tid, clo, chi) for each contiguous chunk
// [clo, chi). All chunks assigned to a thread run on the same goroutine,
// in increasing order for the static schedules.
//
// A panic in body no longer kills the process from a worker goroutine:
// it is captured with its stack and re-panicked on the caller as a
// *faults.PanicError, which the caller may recover. Use
// ParallelForChunksCtx to receive it as an error instead.
func ParallelForChunks(threads int, lo, hi int64, sched Schedule, body func(tid int, clo, chi int64)) {
	if threads < 1 {
		threads = 1
	}
	if hi-lo <= 0 {
		return
	}
	if threads == 1 {
		// The serial fast path runs the single-thread chunk plan on the
		// caller, so chunk-boundary effects (e.g. per-chunk recovery
		// cost) are preserved in serial measurements and the chunks are
		// exactly those ParallelForChunksCtx emits at threads=1.
		chunkPlan(1, lo, hi, sched)(0, func(clo, chi int64) bool {
			body(0, clo, chi)
			return true
		})
		return
	}
	err := ParallelForChunksCtx(nil, threads, lo, hi, sched,
		func(tid int, clo, chi int64) error {
			body(tid, clo, chi)
			return nil
		})
	if err != nil {
		if pe := faults.AsPanic(err); pe != nil {
			panic(pe)
		}
		panic(err) // injected faults or range overflow: the void body returns no errors
	}
}

// ParallelFor runs body(tid, i) for every i in [lo, hi) under the given
// schedule and team size.
func ParallelFor(threads int, lo, hi int64, sched Schedule, body func(tid int, i int64)) {
	ParallelForChunks(threads, lo, hi, sched, func(tid int, clo, chi int64) {
		for i := clo; i < chi; i++ {
			body(tid, i)
		}
	})
}

// ParallelForCtx is ParallelFor with cooperative cancellation checked at
// chunk boundaries and worker panics returned as *faults.PanicError: the
// context-aware, fault-tolerant form of the plain worksharing loop. A
// canceled ctx stops the run at the next chunk boundary with an error
// wrapping faults.ErrCanceled.
func ParallelForCtx(ctx context.Context, threads int, lo, hi int64, sched Schedule,
	body func(tid int, i int64)) error {
	return ParallelForChunksCtx(ctx, threads, lo, hi, sched,
		func(tid int, clo, chi int64) error {
			for i := clo; i < chi; i++ {
				body(tid, i)
			}
			return nil
		})
}

// ParallelForTelemetry is ParallelFor with a per-thread chunk timeline
// recorded on tel: each chunk becomes a "chunk"-category trace event
// (named after the schedule kind, annotated with its bounds and
// iteration count) and an observation of the "omp.chunk_seconds"
// histogram. A nil tel falls through to the uninstrumented ParallelFor,
// so the hot loop pays nothing when telemetry is off.
func ParallelForTelemetry(threads int, lo, hi int64, sched Schedule, tel *telemetry.Registry,
	body func(tid int, i int64)) {
	if tel == nil {
		ParallelFor(threads, lo, hi, sched, body)
		return
	}
	tr := tel.Trace()
	hist := tel.Histogram("omp.chunk_seconds", nil)
	evName := sched.Kind.String()
	ParallelForChunks(threads, lo, hi, sched, func(tid int, clo, chi int64) {
		startOff := tr.Now()
		t0 := time.Now()
		for i := clo; i < chi; i++ {
			body(tid, i)
		}
		d := time.Since(t0)
		hist.Observe(d.Seconds())
		tr.Add(telemetry.Event{
			Name: evName, Cat: "chunk", TID: tid, Start: startOff, Dur: d,
			Args: []telemetry.Arg{
				{Name: "lo", Value: clo},
				{Name: "hi", Value: chi},
				{Name: "iters", Value: chi - clo},
			},
		})
	})
	tel.Counter("omp.iterations").Add(hi - lo)
}
