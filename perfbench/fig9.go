package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/omp"
)

// fig9Job is one kernel under one schedule: the collapsed kernel run
// through the per-iteration executor, either under schedule(static) by
// omp.CollapsedFor or under the planner's choice by Tuner.CollapsedFor.
type fig9Job struct {
	name   string
	kernel *fig9Kernel
	auto   bool
}

// fig9Kernel is a compiled, allocated kernel with its sequential
// reference checksum, all taken in set-up.
type fig9Kernel struct {
	k      *kernels.Kernel
	params map[string]int64 // the nest's parameters
	res    *core.Result
	inst   kernels.Instance
	sub    *nest.Instance // the collapsed sub-nest, for the tracer's successor test
	ref    float64
	seq    time.Duration
}

type fig9Setup struct {
	kernels []*fig9Kernel
	jobs    []*fig9Job
	tuner   *autotune.Tuner
	layer   map[string]float64
}

func fig9Prepare(cfg config) (*fig9Setup, error) {
	st := &fig9Setup{layer: map[string]float64{}}
	var rankMs, newMs, planMs samples
	st.tuner = autotune.New(autotune.Options{MaxWorkers: cfg.threads})
	for _, k := range kernels.All() {
		p := k.BenchParams
		if cfg.smoke {
			p = k.TestParams
		}
		fk := &fig9Kernel{k: k, params: k.NestParams(p)}
		if cfg.trace {
			r, n, err := compileSpans(k.Nest, k.Collapse)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			rankMs = append(rankMs, r)
			newMs = append(newMs, n)
		}
		res, err := k.Collapsed()
		if err != nil {
			return nil, fmt.Errorf("%s: collapse: %w", k.Name, err)
		}
		fk.res = res
		b, err := res.Unranker.Bind(fk.params)
		if err != nil {
			return nil, fmt.Errorf("%s: bind: %w", k.Name, err)
		}
		fk.sub = b.Instance()
		fk.inst = k.New(p)
		t0 := time.Now()
		kernels.RunSeq(fk.inst)
		fk.seq = time.Since(t0)
		fk.ref = fk.inst.Checksum()
		fk.inst.Reset()
		// Planning belongs to set-up like compilation: the timed auto
		// jobs then measure the planned execution, and a change that
		// makes planning dearer shows in setup_s.
		t0 = time.Now()
		if _, _, err := st.tuner.Plan(res, fk.params); err != nil {
			return nil, fmt.Errorf("%s: plan: %w", k.Name, err)
		}
		planMs = append(planMs, time.Since(t0).Seconds()*1e3)
		st.kernels = append(st.kernels, fk)
		st.jobs = append(st.jobs,
			&fig9Job{name: k.Name + ".static", kernel: fk},
			&fig9Job{name: k.Name + ".auto", kernel: fk, auto: true})
	}
	st.layer["autotune.plan_ms"] = planMs.median()
	if cfg.trace {
		st.layer["ehrhart.ranking_ms_p50"] = rankMs.median()
		st.layer["ehrhart.ranking_ms_p99"] = rankMs.quantile(0.99)
		st.layer["unrank.new_ms_p50"] = newMs.median()
		st.layer["unrank.new_ms_p99"] = newMs.quantile(0.99)
	}
	return st, nil
}

// jobTrace is the per-thread timeline a traced job records from inside
// its body: every body call is a kernels span, and the gap before it is
// an increment when the tuple is the lexicographic successor of the
// thread's previous one and a recovery (plus dequeue) otherwise.
type jobTrace struct {
	started          bool
	first, lastEnd   int64 // ns since the job started
	body, incr, jump int64 // ns
	recoveries       int64
	prev, expect     []int64
	_                [64]byte // keep threads' records off shared cache lines
}

// runJob runs one job once; tr, when non-nil, receives the traced
// timeline (one jobTrace per possible thread).
func (st *fig9Setup) runJob(j *fig9Job, threads int, tr []jobTrace) (d time.Duration, team int, planHit bool, err error) {
	fk := j.kernel
	body := func(tid int, idx []int64) { fk.inst.RunCollapsed(idx) }
	var t0 time.Time
	if tr != nil {
		for i := range tr {
			tr[i] = jobTrace{prev: make([]int64, fk.res.C), expect: make([]int64, fk.res.C)}
		}
		body = func(tid int, idx []int64) {
			r := &tr[tid]
			t := int64(time.Since(t0))
			if !r.started {
				r.started, r.first = true, t
				r.recoveries++
			} else if fk.isSuccessor(r.prev, idx, r.expect) {
				r.incr += t - r.lastEnd
			} else {
				r.jump += t - r.lastEnd
				r.recoveries++
			}
			fk.inst.RunCollapsed(idx)
			e := int64(time.Since(t0))
			r.body += e - t
			r.lastEnd = e
			copy(r.prev, idx)
		}
	}
	team = threads
	t0 = time.Now()
	if j.auto {
		var run autotune.Run
		run, err = st.tuner.CollapsedFor(context.Background(), fk.res, fk.params, body)
		team, planHit = run.Stats.Threads, run.Cached
	} else {
		err = omp.CollapsedFor(fk.res, fk.params, threads, omp.Schedule{Kind: omp.Static}, body)
	}
	return time.Since(t0), team, planHit, err
}

// isSuccessor reports whether idx is the lexicographic successor of
// prev, using scratch for the general case.
func (fk *fig9Kernel) isSuccessor(prev, idx, scratch []int64) bool {
	last := len(idx) - 1
	same := true
	for k := 0; k < last; k++ {
		if prev[k] != idx[k] {
			same = false
			break
		}
	}
	if same && idx[last] == prev[last]+1 {
		return true
	}
	copy(scratch, prev)
	if !fk.sub.Increment(scratch) {
		return false
	}
	for k := range idx {
		if scratch[k] != idx[k] {
			return false
		}
	}
	return true
}

// fig9Phase runs whole passes over every job, in a seeded order, until
// the time is up (at least minPasses), checking every checksum. Each
// pass is a window of the latency and rate metrics: its 0.99 quantile is
// close to its slowest job, and its rate counts the untraced jobs per
// second spent in them. A traced phase runs every job twice in a row,
// untraced and traced in a seeded order, so that the tracing overhead
// compares runs taken moments apart.
type fig9Phase struct {
	ops    *classes // untraced job times
	win    windows  // one window per pass
	passes int
	// traced only: traced job times, and shares of the team's time per job
	tracedOps                      *classes
	shares                         map[string]*samples
	imbalance, recoveries, covErrs samples
	autoJobs, planHits             int
}

func (st *fig9Setup) phase(cfg config, rng *rand.Rand, seconds float64, minPasses int,
	traced bool, rep *report) (*fig9Phase, error) {
	ph := &fig9Phase{ops: newClasses(), tracedOps: newClasses(), shares: map[string]*samples{}}
	for _, j := range st.jobs {
		ph.ops.declare(j.name)
		ph.tracedOps.declare(j.name)
	}
	for _, s := range []string{"kernels.busy_pct", "core.increment_pct", "omp.recover_dequeue_pct"} {
		ph.shares[s] = &samples{}
	}
	tr := make([]jobTrace, cfg.threads)
	modes := [][]jobTrace{nil}
	if traced {
		modes = [][]jobTrace{nil, tr}
	}
	order := append([]*fig9Job(nil), st.jobs...)
	start := time.Now()
	clock := newStealClock()
	for ph.passes < minPasses || time.Since(start).Seconds() < seconds {
		var lat samples
		busy := 0.0
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, j := range order {
			if len(modes) == 2 && rng.Intn(2) == 1 {
				modes[0], modes[1] = modes[1], modes[0]
			}
			for _, mt := range modes {
				j.kernel.inst.Reset()
				d, team, planHit, err := st.runJob(j, cfg.threads, mt)
				if team > cfg.threads {
					return nil, fmt.Errorf("%s ran %d threads on %d cores", j.name, team, cfg.threads)
				}
				if j.auto {
					ph.autoJobs++
					if planHit {
						ph.planHits++
					}
				}
				rep.attempted++
				if err != nil {
					rep.failed++
					fmt.Printf("fig9 %s: %v\n", j.name, err)
					continue
				}
				if got := j.kernel.inst.Checksum(); got != j.kernel.ref {
					rep.failed++
					rep.wrong++
					fmt.Printf("fig9 %s: checksum %v, sequential reference %v\n", j.name, got, j.kernel.ref)
					continue
				}
				if mt == nil {
					ph.ops.record(j.name, d)
					lat.add(d)
					busy += d.Seconds()
					continue
				}
				ph.tracedOps.by[j.name].add(d)
				ph.account(mt[:team], d)
			}
		}
		ph.win.add(lat, busy, clock.lap())
		ph.passes++
	}
	return ph, nil
}

// account turns one traced job's per-thread timelines into self-time
// shares of the team's time: threads × the job's wall time, which is
// taken outside the executor. Each thread's spans run from its first
// body call to the end of its last. The thread that finishes last
// decides the wall time, so its spans must cover it; what they leave
// out (fork, its first recovery, the join) is the job's coverage error.
// The other threads' wait at the join shows in omp.imbalance instead.
func (ph *fig9Phase) account(tr []jobTrace, wall time.Duration) {
	team := float64(wall) * float64(len(tr))
	var body, incr, jump, critical float64
	var maxBusy, sumBusy float64
	var recov int64
	for i := range tr {
		r := &tr[i]
		body += float64(r.body)
		incr += float64(r.incr)
		jump += float64(r.jump)
		critical = max(critical, float64(r.body+r.incr+r.jump))
		busy := float64(r.body)
		sumBusy += busy
		maxBusy = max(maxBusy, busy)
		recov += r.recoveries
	}
	ph.shares["kernels.busy_pct"].addValue(100 * body / team)
	ph.shares["core.increment_pct"].addValue(100 * incr / team)
	ph.shares["omp.recover_dequeue_pct"].addValue(100 * jump / team)
	if sumBusy > 0 {
		ph.imbalance.addValue(maxBusy / (sumBusy / float64(len(tr))))
	}
	ph.recoveries.addValue(float64(recov))
	ph.covErrs.addValue(100 * math.Abs(float64(wall)-critical) / float64(wall))
}

func runFig9(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	st, setupTimes, err := timedSetup(cfg, func() (*fig9Setup, error) { return fig9Prepare(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{setup: setupTimes, layer: st.layer}
	minPasses := 2
	if cfg.trace {
		minPasses = 1
	}
	// Traced, every job also runs traced (self-time shares, imbalance,
	// recoveries, the tracing overhead); then the outer-loop baseline
	// runs once per kernel.
	plain, err := st.phase(cfg, rng, cfg.seconds, minPasses, cfg.trace, rep)
	if err != nil {
		return nil, err
	}
	rep.ops, rep.svc = plain.ops, plain.win
	if !cfg.trace {
		return rep, nil
	}
	L := rep.layer
	var overhead, seqMs, outerMs, gain, ovr, autoVsStatic []float64
	for _, j := range st.jobs {
		m := plain.ops.by[j.name].median()
		L["omp.job_ms."+j.name] = m * 1e3
		overhead = append(overhead, plain.tracedOps.by[j.name].median()/m)
	}
	for _, fk := range st.kernels {
		stat := plain.ops.by[fk.k.Name+".static"].median()
		auto := plain.ops.by[fk.k.Name+".auto"].median()
		fk.inst.Reset()
		t0 := time.Now()
		kernels.RunOuterParallel(fk.inst, cfg.threads, omp.Schedule{Kind: omp.Static})
		outer := time.Since(t0).Seconds()
		rep.attempted++
		if fk.inst.Checksum() != fk.ref {
			rep.failed++
			rep.wrong++
			fmt.Printf("fig9 %s: outer-static checksum differs from the sequential reference\n", fk.k.Name)
		}
		seqMs = append(seqMs, fk.seq.Seconds()*1e3)
		outerMs = append(outerMs, outer*1e3)
		gain = append(gain, outer/stat)
		ovr = append(ovr, float64(cfg.threads)*stat/fk.seq.Seconds())
		autoVsStatic = append(autoVsStatic, auto/stat)
	}
	L["kernels.seq_ms"] = geomean(seqMs)
	L["kernels.outer_static_ms"] = geomean(outerMs)
	L["kernels.gain_vs_outer_static"] = geomean(gain)
	L["omp.overhead_ratio"] = geomean(ovr)
	L["autotune.auto_vs_static"] = geomean(autoVsStatic)
	L["autotune.plan_hit_ratio"] = float64(plain.planHits) / float64(plain.autoJobs)
	for name, s := range plain.shares {
		L[name] = s.mean()
	}
	L["omp.imbalance"] = geomean(plain.imbalance)
	L["omp.recoveries_per_job"] = plain.recoveries.mean()
	L["trace.fig9.overhead_pct"] = (geomean(overhead) - 1) * 100
	L["trace.fig9.coverage_err_pct"] = plain.covErrs.quantile(tailQ(len(plain.covErrs)))
	return rep, nil
}
