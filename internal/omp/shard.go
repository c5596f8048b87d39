package omp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/unrank"
)

// DefaultShardChunk is the internal chunking of a shard attempt: the
// interval between cancellation checks and progress callbacks. Small
// enough that a lease heartbeat lands every few hundred microseconds on
// trivial bodies, large enough that the §V recovery amortizes.
const DefaultShardChunk = 4096

// ShardForCtxFrom executes the collapsed ranks [pcLo, pcHi] (inclusive)
// on the worker-private bound b — the shard-level execution hook the
// dist coordinator's executors run on. The shard is processed in
// internal chunks of `chunk` iterations (DefaultShardChunk when <= 0),
// each chunk driven by the §V engine (one costly recovery per chunk,
// lexicographic advance within), with three guarantees:
//
//   - ctx is checked at every chunk boundary, so a canceled context —
//     including a lease the coordinator revoked with
//     faults.ErrLeaseExpired as the cause — stops the attempt
//     cooperatively with an error wrapping faults.ErrCanceled;
//   - progress(done), when non-nil, is invoked after every chunk with
//     the cumulative iteration count: the heartbeat edge lease renewal
//     rides on;
//   - a panic in body (or in an injected fault hook) is recovered and
//     returned as a *faults.PanicError: an executor crash mid-shard
//     costs the attempt, never the process.
//
// When start is non-nil it must be the exact iteration tuple of rank
// pcLo (typically produced by a coordinator batch-recovering all
// planned shard starts with unrank.Bound.RecoverBatch), and the first
// internal chunk skips its §V recovery entirely — the shard begins at
// pure incrementation cost. start is read-only.
//
// An active fault-injection plan is consulted once per shard
// (faults.InjectShard, with the worker id) and once per chunk
// (faults.InjectChunk, as tid 0 of the one-worker chunk plan), so chaos
// harnesses can kill, stall or fail attempts at exact coordinates.
//
// done reports the iterations completed in full before the error (0 on
// a clean run's completion means an empty shard). Effects of a failed
// attempt are the caller's to discard: the §V engine has already invoked
// body for the completed prefix.
func ShardForCtxFrom(ctx context.Context, worker int, b *unrank.Bound, start []int64,
	pcLo, pcHi, chunk int64,
	progress func(done int64), body func(pc int64, idx []int64)) (done int64, err error) {
	if pcLo > pcHi {
		return 0, nil
	}
	if chunk <= 0 {
		chunk = DefaultShardChunk
	}
	end, err := pcEnd(pcHi)
	if err != nil {
		return 0, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("omp: shard executor %d: %w", worker, faults.Recovered(r))
		}
	}()
	if err := faults.InjectShard(worker, pcLo, pcHi); err != nil {
		return 0, fmt.Errorf("omp: injected fault at shard [%d,%d]: %w", pcLo, pcHi, err)
	}
	// The internal chunks are a one-worker static,chunk plan on the team
	// runtime, which checks ctx, consults the fault plan and captures
	// panics at every chunk boundary.
	err = ParallelForChunksCtx(ctx, 1, pcLo, end, Schedule{Kind: StaticChunk, Chunk: chunk},
		func(_ int, clo, chi int64) error {
			var err error
			if clo == pcLo && start != nil {
				err = core.ForRangeFrom(b, clo, chi-1, start, body)
			} else {
				err = core.ForRange(b, clo, chi-1, body)
			}
			if err == nil {
				done += chi - clo
				if progress != nil {
					progress(done)
				}
			}
			return err
		})
	return done, err
}
