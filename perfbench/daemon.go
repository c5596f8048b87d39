package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/poly"
	"repro/internal/serve"
	"repro/internal/stress"
	"repro/internal/unrank"
)

// cacheCapacity is the daemon's compile-cache capacity: serve.Config's
// default, 256 (one entry per cache shard for the smoke corpus).
func cacheCapacity(cfg config) int {
	if cfg.smoke {
		return 16
	}
	return 256
}

// clientTimeout bounds one HTTP exchange.
const clientTimeout = 30 * time.Second

// stressShapes is how many seeded stress.NewCase shapes join the corpus:
// twice the cache capacity, so the cache can hold at most half of them
// and stress requests keep compiling cold and evicting.
func stressShapes(cfg config) int { return 2 * cacheCapacity(cfg) }

// dnest is one nest of the request corpus with its local ground truth:
// the sequential enumeration of its collapsed sub-nest.
type dnest struct {
	name   string
	kind   string // kernel, src or stress
	spec   *serve.NestSpec
	src    string
	n      *nest.Nest
	c      int
	params map[string]int64
	// tuples is the enumeration, c values per tuple, in one pointer-free
	// block: the benchmark's own heap then costs the daemon's garbage
	// collections little.
	tuples   []int64
	total    int64
	checksum uint64 // sum of serve.TupleHash over the enumeration
}

// tuple returns the tuple at rank pc.
func (dn *dnest) tuple(pc int64) []int64 {
	return dn.tuples[(pc-1)*int64(dn.c) : pc*int64(dn.c)]
}

// dreq is one generated request: its endpoint, nest, the pc it asks
// about (rank, unrank) and its encoded body.
type dreq struct {
	endpoint string // compile, count, rank, unrank, codegen, execute.static, execute.auto
	nest     *dnest
	pc       int64
	body     []byte
}

func (r *dreq) path() string {
	switch r.endpoint {
	case "execute.static", "execute.auto":
		return "/v1/execute"
	}
	return "/v1/" + r.endpoint
}

// dres is what happened to one request.
type dres struct {
	due, sent, done time.Duration // since the phase started
	late            time.Duration // how late the generator woke (idle workers only)
	woke            bool
	status          int
	body            []byte
	err             error
}

// daemonEndpoints is the request mix: cmd/loadgen's default mix
// (rank 3, unrank 3, count 1, execute 1, codegen 1), doubled so that its
// execute weight splits evenly between the static and auto schedules,
// plus compile at the weight of the other single-weight endpoints.
var daemonEndpoints = []struct {
	name   string
	weight int
}{
	{"rank", 6}, {"unrank", 6}, {"count", 2}, {"compile", 2},
	{"codegen", 2}, {"execute.static", 1}, {"execute.auto", 1},
}

// nestKinds are the three forms a request's nest takes; no measured
// traffic says how common each is, so each is equally likely, and within
// a kind every nest is.
var nestKinds = []string{"kernel", "src", "stress"}

type daemonSetup struct {
	corpus []*dnest
	byKind map[string][]*dnest
	srv    *serve.Server
	base   string
	hc     *http.Client
	layer  map[string]float64
}

func (d *daemonSetup) close() {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a failed drain leaves nothing for the benchmark to report
}

func daemonPrepare(cfg config) (*daemonSetup, error) {
	d := &daemonSetup{byKind: map[string][]*dnest{}, layer: map[string]float64{}}
	add := func(dn *dnest) error {
		sub, err := nest.New(dn.n.Params, dn.n.Loops[:dn.c]...)
		if err != nil {
			return fmt.Errorf("%s: %w", dn.name, err)
		}
		inst, err := sub.Bind(dn.params)
		if err != nil {
			return fmt.Errorf("%s: %w", dn.name, err)
		}
		inst.Enumerate(func(idx []int64) bool {
			dn.tuples = append(dn.tuples, idx...)
			dn.total++
			dn.checksum += serve.TupleHash(idx)
			return true
		})
		if dn.total == 0 {
			return fmt.Errorf("%s: empty domain", dn.name)
		}
		d.corpus = append(d.corpus, dn)
		d.byKind[dn.kind] = append(d.byKind[dn.kind], dn)
		return nil
	}
	for _, k := range kernels.All() {
		p := k.NestParams(k.TestParams)
		if err := add(&dnest{name: k.Name, kind: "kernel", spec: specOf(k.Nest), n: k.Nest, c: k.Collapse, params: p}); err != nil {
			return nil, err
		}
	}
	srcN := int64(16)
	if cfg.smoke {
		srcN = 8
	}
	for _, f := range []string{"correlation", "quartic", "rhomboid", "tetrahedral", "utma"} {
		src, err := os.ReadFile("testdata/" + f + ".c")
		if err != nil {
			return nil, err
		}
		prog, err := cparse.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("testdata/%s.c: %w", f, err)
		}
		p := map[string]int64{}
		for _, name := range prog.Nest.Params {
			p[name] = srcN
		}
		if err := add(&dnest{name: f + ".c", kind: "src", src: string(src), n: prog.Nest, c: prog.CollapseCount, params: p}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < stressShapes(cfg); i++ {
		sc, err := stress.NewCase(cfg.seed*7919 + int64(i))
		if err != nil {
			return nil, err
		}
		if err := add(&dnest{name: sc.Name, kind: "stress", spec: specOf(sc.Nest), n: sc.Nest, c: sc.C, params: sc.Params}); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		var rankMs, newMs samples
		seen := map[string]bool{}
		for _, dn := range d.corpus {
			sig, ok := core.NestSignature(dn.n, dn.c, unrank.Options{})
			if ok && seen[sig] {
				continue
			}
			seen[sig] = true
			r, u, err := compileSpans(dn.n, dn.c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", dn.name, err)
			}
			rankMs = append(rankMs, r)
			newMs = append(newMs, u)
		}
		d.layer["ehrhart.ranking_ms_p50"] = rankMs.median()
		d.layer["ehrhart.ranking_ms_p99"] = rankMs.quantile(0.99)
		d.layer["unrank.new_ms_p50"] = newMs.median()
		d.layer["unrank.new_ms_p99"] = newMs.quantile(0.99)
	}
	d.srv = serve.New(serve.Config{
		Threads:       cfg.threads,
		CacheCapacity: cacheCapacity(cfg),
		Logf:          func(string, ...any) {},
	})
	addr, err := d.srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + addr.String()
	d.hc = &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     cfg.threads,
			MaxIdleConnsPerHost: cfg.threads,
			DisableCompression:  true,
		},
	}
	if err := d.warmUp(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// specOf renders a nest in the daemon's structured request form.
func specOf(n *nest.Nest) *serve.NestSpec {
	s := &serve.NestSpec{Params: n.Params}
	for _, l := range n.Loops {
		s.Loops = append(s.Loops, serve.LoopSpec{Index: l.Index, Lower: l.Lower.String(), Upper: l.Upper.String()})
	}
	return s
}

// generate draws requests with Poisson arrivals at rate for seconds.
func (d *daemonSetup) generate(rng *rand.Rand, rate, seconds float64) ([]*dreq, []time.Duration, error) {
	var reqs []*dreq
	var dues []time.Duration
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		r, err := d.draw(rng)
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, r)
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	return reqs, dues, nil
}

// draw draws one request of the mix.
func (d *daemonSetup) draw(rng *rand.Rand) (*dreq, error) {
	total := 0
	for _, e := range daemonEndpoints {
		total += e.weight
	}
	w := rng.Intn(total)
	ep := daemonEndpoints[0].name
	for _, e := range daemonEndpoints {
		if w < e.weight {
			ep = e.name
			break
		}
		w -= e.weight
	}
	pool := d.byKind[nestKinds[rng.Intn(len(nestKinds))]]
	dn := pool[rng.Intn(len(pool))]
	return newRequest(ep, dn, 1+rng.Int63n(dn.total))
}

func newRequest(ep string, dn *dnest, pc int64) (*dreq, error) {
	body := serve.Request{Params: dn.params, Collapse: dn.c}
	if dn.src != "" {
		body.Src = dn.src
	} else {
		body.Nest = dn.spec
	}
	switch ep {
	case "rank":
		body.Index = dn.tuple(pc)
	case "unrank":
		body.Pc = pc
	case "execute.static":
		body.Schedule = "static"
	case "execute.auto":
		body.Schedule = "auto"
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &dreq{endpoint: ep, nest: dn, pc: pc, body: b}, nil
}

// warmUp brings the daemon to its steady state before timing: every
// corpus nest is compiled once (so the cache holds what the LRU keeps of
// the corpus) and planned once for the auto executes. Users of a
// long-running daemon do not pay the first contact on every request.
func (d *daemonSetup) warmUp() error {
	for _, ep := range []string{"compile", "execute.auto"} {
		for _, dn := range d.corpus {
			r, err := newRequest(ep, dn, 1)
			if err != nil {
				return err
			}
			status, body, err := d.post(r)
			if err == nil && status/100 != 2 {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
			}
			if err == nil {
				err = verify(r, body)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s %s: %w", ep, dn.name, err)
			}
		}
	}
	return nil
}

// openLoop sends every request at its due time over at most conns
// keep-alive connections. A request waits for a free connection; its
// latency is counted from when it was due, so that wait shows.
func (d *daemonSetup) openLoop(reqs []*dreq, dues []time.Duration, conns int) []dres {
	out := make([]dres, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r, o := reqs[i], &out[i]
				o.due = dues[i]
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
					o.woke = true
					o.late = time.Since(start) - o.due
				}
				o.sent = time.Since(start)
				o.status, o.body, o.err = d.post(r)
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

func (d *daemonSetup) post(r *dreq) (int, []byte, error) {
	resp, err := d.hc.Post(d.base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// verify checks one 2xx answer against the local ground truth.
func verify(r *dreq, body []byte) error {
	dn := r.nest
	switch r.endpoint {
	case "rank":
		var v serve.RankResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Pc != r.pc {
			return fmt.Errorf("rank of %v = %d, want %d", dn.tuple(r.pc), v.Pc, r.pc)
		}
	case "unrank":
		var v serve.UnrankResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !equalTuple(v.Index, dn.tuple(r.pc)) {
			return fmt.Errorf("unrank %d = %v, want %v", r.pc, v.Index, dn.tuple(r.pc))
		}
	case "count":
		var v serve.CountResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Total != dn.total {
			return fmt.Errorf("count %d, want %d", v.Total, dn.total)
		}
	case "compile":
		var v serve.CompileResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		// The returned polynomials must count the domain and rank a
		// tuple the way the enumeration does.
		if got, err := evalPoly(v.Total, dn.params, nil, nil); err != nil || got != dn.total {
			return fmt.Errorf("compiled total evaluates to %d (%v), want %d", got, err, dn.total)
		}
		idx := dn.tuple(r.pc)
		if got, err := evalPoly(v.Ranking, dn.params, dn.n.Loops[:dn.c], idx); err != nil || got != r.pc {
			return fmt.Errorf("compiled ranking at %v evaluates to %d (%v), want %d", idx, got, err, r.pc)
		}
	case "codegen":
		var v serve.CodegenResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Language != "c" || !bytes.Contains([]byte(v.Code), []byte("for (")) {
			return fmt.Errorf("codegen returned no C loop")
		}
	case "execute.static", "execute.auto":
		var v serve.ExecuteResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Iterations != dn.total || v.Checksum != dn.checksum {
			return fmt.Errorf("execute: %d iterations checksum %d, want %d and %d",
				v.Iterations, v.Checksum, dn.total, dn.checksum)
		}
	}
	return nil
}

// evalPoly parses a polynomial the daemon printed and evaluates it
// exactly at the parameters (and indices, when given).
func evalPoly(s string, params map[string]int64, loops []nest.Loop, idx []int64) (int64, error) {
	p, err := poly.Parse(s)
	if err != nil {
		return 0, err
	}
	env := map[string]int64{}
	for k, v := range params {
		env[k] = v
	}
	for k, l := range loops {
		env[l.Index] = idx[k]
	}
	r, err := p.EvalInt64(env)
	if err != nil {
		return 0, err
	}
	if !r.IsInt() || !r.Num().IsInt64() {
		return 0, fmt.Errorf("value %v is not an int64", r)
	}
	return r.Num().Int64(), nil
}

func equalTuple(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// daemonWindow is the length of one window of the fixed-rate phase's
// latency and rate metrics: about 1200 requests at 600/s, so that a
// window's 0.99 quantile rests on about twelve.
const daemonWindow = 2 * time.Second

// fixedShare is the share of a run spent at the fixed rate; the rest
// goes to the closed loop, whose windows vary much less.
const fixedShare = 0.75

// openPhase is the outcome of one open-loop phase.
type openPhase struct {
	reqs              []*dreq
	res               []dres
	failed, wrong     int64
	shed              int64
	sendWait, genLate samples
	ops               *classes
	due, svc          windows // by due time, daemonWindow long
}

func (d *daemonSetup) phase(cfg config, rng *rand.Rand, rate, seconds float64) (*openPhase, error) {
	reqs, dues, err := d.generate(rng, rate, seconds)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no requests generated at %g/s for %gs", rate, seconds)
	}
	stopSteal := sampleSteal(daemonWindow)
	res := d.openLoop(reqs, dues, cfg.threads)
	steal := stopSteal()
	ph := &openPhase{reqs: reqs, res: res, ops: newClasses()}
	for _, e := range daemonEndpoints {
		ph.ops.declare(e.name)
	}
	// The last window takes the rest of the phase: 0.5 to 1.5 windows.
	nwin := max(1, int(math.Round(seconds/daemonWindow.Seconds())))
	due, svc := make([]samples, nwin), make([]samples, nwin)
	for i, r := range reqs {
		o := &res[i]
		w := min(int(o.due/daemonWindow), nwin-1)
		ph.sendWait.add(o.sent - o.due)
		if o.woke {
			ph.genLate.add(o.late)
		}
		var ferr error
		switch {
		case o.err != nil:
			ferr = o.err
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			ph.shed++
			ferr = fmt.Errorf("shed with %d", o.status)
		case o.status/100 != 2:
			ferr = fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
		default:
			if err := verify(r, o.body); err != nil {
				ph.wrong++
				ferr = err
			}
		}
		if ferr != nil {
			ph.failed++
			fmt.Printf("daemon-mix %s %s: %v\n", r.endpoint, r.nest.name, ferr)
			// A failed request misses any latency limit: it counts as
			// taking the client's whole timeout.
			due[w].add(clientTimeout)
			continue
		}
		due[w].add(o.done - o.due)
		svc[w].add(o.done - o.sent)
		ph.ops.record(r.endpoint, o.done-o.sent)
	}
	// A window's rate counts its answered requests per second of the
	// window; the last window's steal share is the mean of the rest.
	for w := range due {
		length := daemonWindow.Seconds()
		if w == nwin-1 {
			length = seconds - float64(w)*daemonWindow.Seconds()
		}
		st := samples(steal[min(w, len(steal)-1):]).mean()
		if w < nwin-1 {
			st = steal[min(w, len(steal)-1)]
		}
		ph.due.add(due[w], length, st)
		ph.svc.add(svc[w], length, st)
	}
	return ph, nil
}

// goodputWindow is the window of the closed loop's goodput.
const goodputWindow = 500 * time.Millisecond

// closedLoop measures max_rps_at_slo: each connection draws its next
// request of the mix, from its own seeded stream, and sends it as soon
// as its previous answer arrives, so at most one request per connection
// is in flight, none waits to be sent and no backlog can grow. (A fixed
// pool of requests cycled over and over would make the compile cache hit
// or thrash depending on the seed.) An answer counts when it is a
// verified 2xx within the latency limit; the result is the median over
// the goodputWindow windows of such answers per second. Answers are
// checked as they arrive, which the loop's rate includes: no answer is
// kept.
func (d *daemonSetup) closedLoop(cfg config, rng *rand.Rand, seconds float64, rep *report) (*windows, error) {
	nwin := int(seconds / goodputWindow.Seconds())
	if nwin == 0 {
		nwin = 1
	}
	slo := time.Duration(cfg.sloMs * float64(time.Millisecond))
	type tally struct {
		good             []int64 // per window
		attempted, fails int64
		wrong            int64
		drawErr          error
	}
	tallies := make([]tally, cfg.threads)
	var wg sync.WaitGroup
	stopSteal := sampleSteal(goodputWindow)
	start := time.Now()
	end := time.Duration(seconds * float64(time.Second))
	for c := range tallies {
		t := &tallies[c]
		t.good = make([]int64, nwin)
		crng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < end {
				r, err := d.draw(crng)
				if err != nil {
					t.drawErr = err
					return
				}
				sent := time.Since(start)
				status, body, err := d.post(r)
				done := time.Since(start)
				t.attempted++
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				} else if err == nil {
					if err = verify(r, body); err != nil {
						t.wrong++
					}
				}
				if err != nil {
					t.fails++
					fmt.Printf("daemon-mix closed loop %s %s: %v\n", r.endpoint, r.nest.name, err)
					continue
				}
				if w := int(done / goodputWindow); w < nwin && done-sent <= slo {
					t.good[w]++
				}
			}
		}()
	}
	wg.Wait()
	steal := stopSteal()
	goodput := &windows{}
	for w := 0; w < nwin; w++ {
		var n int64
		for _, t := range tallies {
			n += t.good[w]
		}
		goodput.rate.addValue(float64(n) / min(goodputWindow.Seconds(), seconds))
		goodput.steal.addValue(steal[min(w, len(steal)-1)])
	}
	for _, t := range tallies {
		if t.drawErr != nil {
			return nil, t.drawErr
		}
		rep.attempted += t.attempted
		rep.failed += t.fails
		rep.wrong += t.wrong
	}
	return goodput, nil
}

func runDaemon(cfg config) (*report, error) {
	// Every repetition starts a daemon, which is stopped before the next
	// one starts.
	d, setupTimes, err := timedSetup(cfg, func() (*daemonSetup, error) { return daemonPrepare(cfg) },
		(*daemonSetup).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := &report{setup: setupTimes, layer: d.layer}
	// Most of the run at the fixed rate, the rest in the closed loop
	// (untraced runs only).
	ph, err := d.phase(cfg, rng, cfg.rate, cfg.seconds*fixedShare)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(ph.reqs))
	rep.failed += ph.failed
	rep.wrong += ph.wrong
	rep.ops, rep.svc, rep.due = ph.ops, ph.svc, &ph.due
	if cfg.trace {
		// The client stamps every request traced or not; the layer spans
		// come from an in-process replay of the phase's requests after it.
		d.traceLayers(cfg, ph, rep.layer)
		return rep, nil
	}
	rep.goodput, err = d.closedLoop(cfg, rng, cfg.seconds*(1-fixedShare), rep)
	return rep, err
}

// traceLayers fills the daemon's per-layer metrics from the fixed-rate
// phase: per-endpoint latency, send wait and generator lateness from the
// client side, then a sequential in-process replay of the same requests
// through cparse, core, unrank, codegen, omp and autotune, timed per
// layer, whose difference from the HTTP latency is the HTTP overhead.
func (d *daemonSetup) traceLayers(cfg config, tr *openPhase, L map[string]float64) {
	for _, e := range daemonEndpoints {
		name := e.name
		if name == "execute.auto" {
			continue
		}
		s := *tr.ops.by[name]
		if name == "execute.static" {
			name = "execute"
			s = append(s, *tr.ops.by["execute.auto"]...)
		}
		L["serve."+name+"_p50_ms"] = s.median() * 1e3
	}
	L["serve.shed_ratio"] = float64(tr.shed) / float64(len(tr.reqs))
	L["serve.send_wait_ms_p99"] = tr.sendWait.quantile(0.99) * 1e3
	L["bench.gen_late_ms_p99"] = tr.genLate.quantile(0.99) * 1e3

	// The replay's cache and planner go through the same warm-up as the
	// daemon's, whose compiles and plans of these nests all succeeded.
	cache := core.NewCollapseCache(cacheCapacity(cfg))
	tuner := autotune.New(autotune.Options{Cache: cache, MaxWorkers: cfg.threads})
	for _, dn := range d.corpus {
		if res, err := core.CollapseCached(cache, dn.n, dn.c, unrank.Options{}); err == nil {
			_, _, _ = tuner.Plan(res, dn.params)
		}
	}
	base := cache.Stats()
	var parse, cold, warm, emit, overhead samples
	for i, r := range tr.reqs {
		o := &tr.res[i]
		if o.err != nil || o.status/100 != 2 {
			continue
		}
		t0 := time.Now()
		dn := r.nest
		n := dn.n
		if dn.src != "" {
			p0 := time.Now()
			prog, err := cparse.Parse(dn.src)
			if err != nil {
				continue
			}
			parse.add(time.Since(p0))
			n = prog.Nest
		}
		misses := cache.Stats().Misses
		c0 := time.Now()
		res, err := core.CollapseCached(cache, n, dn.c, unrank.Options{})
		if err != nil {
			continue
		}
		if cache.Stats().Misses > misses {
			cold.add(time.Since(c0))
		} else {
			warm.add(time.Since(c0))
		}
		replayEndpoint(r, res, cfg.threads, tuner, &emit)
		overhead.add(o.done - o.sent - time.Since(t0))
	}
	st := cache.Stats()
	st.Hits -= base.Hits
	st.Misses -= base.Misses
	st.Evictions -= base.Evictions
	L["cparse.parse_us"] = parse.median() * 1e6
	L["core.collapse_cold_ms"] = cold.median() * 1e3
	L["core.collapse_cold_ms_p99"] = cold.quantile(0.99) * 1e3
	L["core.cached_collapse_us"] = warm.median() * 1e6
	L["core.cache_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	L["core.cache_evictions"] = float64(st.Evictions)
	L["codegen.emit_us"] = emit.median() * 1e6
	L["serve.http_overhead_ms"] = overhead.median() * 1e3
}

// replayEndpoint does in-process what the daemon's handler does after
// compiling.
func replayEndpoint(r *dreq, res *core.Result, threads int, tuner *autotune.Tuner, emit *samples) {
	dn := r.nest
	if r.endpoint == "compile" {
		_ = res.Ranking.String() + res.Total.String()
		return
	}
	if r.endpoint == "codegen" {
		e0 := time.Now()
		_, _ = codegen.EmitC(res, codegen.Options{Scheme: codegen.FirstIteration})
		emit.add(time.Since(e0))
		return
	}
	b, err := res.Unranker.Bind(dn.params)
	if err != nil {
		return
	}
	var sum atomic.Uint64
	body := func(tid int, idx []int64) { sum.Add(serve.TupleHash(idx)) }
	switch r.endpoint {
	case "rank":
		_ = b.Rank(dn.tuple(r.pc))
	case "unrank":
		_ = b.Unrank(r.pc, b.Scratch())
	case "count":
		_ = b.Total()
	case "execute.static":
		_ = omp.CollapsedFor(res, dn.params, threads, omp.Schedule{Kind: omp.Static}, body)
	case "execute.auto":
		_, _ = tuner.CollapsedFor(context.Background(), res, dn.params, body)
	}
}
