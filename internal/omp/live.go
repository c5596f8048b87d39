package omp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Live progress instrumentation: per-worker gauges updated at chunk
// boundaries so a mid-run scrape of the registry (the obs plane's
// /metrics endpoint) shows imbalance as it happens rather than in a
// post-hoc report. Metric names embed the worker id and the executing
// schedule as Prometheus labels
// ("omp.worker_chunks{tid=\"3\",sched=\"guided\"}"); the OpenMetrics
// exporter splits name and label set apart, so the per-worker series
// group into one family, and the schedule label makes an autotuned
// run's chosen schedule visible on /metrics and /snapshot.
//
// liveTeam carries the whole chunk-granularity instrumentation of
// CollapsedForChunks: the gauges, the chunk and recovery histograms and
// the trace. Metric updates are atomic stores/adds on pre-fetched
// handles (no map lookups on the chunk path), and the whole layer is
// skipped when telemetry is disabled (newLiveTeam returns nil).
type liveTeam struct {
	tel    *telemetry.Registry
	trace  *telemetry.Trace
	evName string // chunk trace events are named after the schedule kind
	chunkH *telemetry.Histogram
	recH   *telemetry.Histogram
	chunks []*telemetry.Counter // chunks completed, per worker
	iters  []*telemetry.Counter // iterations completed, per worker
	// inflight holds the monotonic trace offset (ns) at which the
	// worker's current chunk started, 0 when idle: a scraper derives the
	// in-flight chunk age as scrape_now_ns - inflight_since_ns.
	inflight []*telemetry.Gauge
	unrank   [len(unrankCounterNames)]*telemetry.Counter
	// published is each worker's unranker stats as of its last chunk
	// end, so every chunk publishes only its own delta.
	published []unrank.Stats
}

// newLiveTeam pre-fetches the per-worker metric handles (nil when
// telemetry is off). sched is the executing schedule's clause spelling,
// attached as a label so scrapes can attribute the series — and, for
// autotuned runs, see which schedule the planner chose.
func newLiveTeam(tel *telemetry.Registry, threads int, sched Kind) *liveTeam {
	if tel == nil {
		return nil
	}
	l := &liveTeam{
		tel:       tel,
		trace:     tel.Trace(),
		evName:    sched.String(),
		chunkH:    tel.Histogram("omp.chunk_seconds", nil),
		recH:      tel.Histogram("omp.recovery_seconds", nil),
		chunks:    make([]*telemetry.Counter, threads),
		iters:     make([]*telemetry.Counter, threads),
		inflight:  make([]*telemetry.Gauge, threads),
		published: make([]unrank.Stats, threads),
	}
	for t := 0; t < threads; t++ {
		tid := fmt.Sprint(t)
		l.chunks[t] = tel.Counter(fmt.Sprintf("omp.worker_chunks{tid=%q,sched=%q}", tid, sched))
		l.iters[t] = tel.Counter(fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", tid, sched))
		l.inflight[t] = tel.Gauge(fmt.Sprintf("omp.worker_inflight_since_ns{tid=%q,sched=%q}", tid, sched))
	}
	for i, name := range unrankCounterNames {
		l.unrank[i] = tel.Counter(name)
	}
	tel.Gauge("omp.team_size").Set(int64(threads))
	return l
}

// chunk is CollapsedForChunks' instrumented chunk step: it marks the
// worker in flight, times the recovery of the chunk's start tuple and
// the whole chunk into st and the histograms, then publishes the chunk
// live — progress counters (completed chunks only), the worker's
// unranker counter deltas, so a mid-run scrape sees escalations and
// imbalance as they happen — and records its trace event.
func (l *liveTeam) chunk(tid int, b *unrank.Bound, st *ThreadStats, clo, chi int64,
	run func(tid int, b *unrank.Bound, clo, chi int64, start []int64) error) error {
	startOff := l.trace.Now()
	l.inflight[tid].Set(startOff.Nanoseconds())
	t0 := time.Now()
	err := b.Unrank(clo, b.Scratch())
	recovery := time.Since(t0)
	if err == nil {
		err = run(tid, b, clo, chi, b.Scratch())
	}
	busy := time.Since(t0)
	var done int64
	if err == nil {
		done = chi - clo
		l.chunks[tid].Inc()
		l.iters[tid].Add(done)
	}
	st.Busy += busy
	st.Recovery += recovery
	l.recH.Observe(recovery.Seconds())
	l.chunkH.Observe(busy.Seconds())
	l.inflight[tid].Set(0)
	s := b.Stats()
	l.publishUnrank(s.Sub(l.published[tid]))
	l.published[tid] = s
	l.trace.Add(telemetry.Event{
		Name: l.evName, Cat: "chunk", TID: tid, Start: startOff, Dur: busy,
		Args: []telemetry.Arg{
			{Name: "pc_lo", Value: clo},
			{Name: "pc_hi", Value: chi},
			{Name: "iters", Value: done},
			{Name: "recovery_ns", Value: recovery.Nanoseconds()},
		},
	})
	return err
}

// finish publishes the end of a run: the unranker counters accrued
// outside chunks (e.g. during Bind), so the registry totals match
// cs.Stats exactly without double counting; the iterations the
// completed chunks covered; and the failure class of err.
func (l *liveTeam) finish(cs CollapsedStats, err error) {
	if l == nil {
		return
	}
	var rem unrank.Stats
	var iters int64
	for t, st := range cs.PerThread {
		rem.Add(st.Unrank.Sub(l.published[t]))
		iters += st.Iterations
	}
	l.publishUnrank(rem)
	l.tel.Counter("omp.iterations").Add(iters)
	switch {
	case err == nil:
	case faults.AsPanic(err) != nil:
		l.tel.Counter("omp.panics_recovered").Inc()
	case errors.Is(err, faults.ErrCanceled):
		l.tel.Counter("omp.cancellations").Inc()
	}
}

// unrankCounterNames are the registry counters of the unranker's
// recovery statistics, in publishUnrank order.
var unrankCounterNames = [...]string{
	"unrank.root_evals", "unrank.corrections", "unrank.fallbacks", "unrank.searches",
	"unrank.verifies", "unrank.verify_escalations", "unrank.escalations_prec128",
	"unrank.escalations_prec256", "unrank.bigint_paths", "unrank.table_lookups",
	"unrank.table_corrections", "unrank.batch_recoveries",
}

// publishUnrank adds a stats delta to the recovery counters.
func (l *liveTeam) publishUnrank(d unrank.Stats) {
	for i, v := range [...]int64{d.RootEvals, d.Corrections, d.Fallbacks, d.Searches,
		d.Verifies, d.Escalations, d.EscalationsPrec128,
		d.EscalationsPrec256, d.BigIntPaths, d.TableLookups,
		d.TableCorrections, d.BatchRecoveries} {
		l.unrank[i].Add(v)
	}
}
