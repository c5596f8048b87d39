package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// window is the length of one cubic-recover operation: one recovery at
// a random pc, then window-1 lexicographic increments.
const window = 64

// cubicShape is one nest of the workload, compiled once and bound at
// each of its sizes.
type cubicShape struct {
	name  string
	src   string      // testdata file, parsed with cparse
	loops []nest.Loop // or a structured nest
	mode  unrank.Mode
	sizes []int64 // bench sizes
	smoke []int64 // smoke sizes, same count
}

var cubicShapes = []cubicShape{
	// The paper's Fig. 6 nest; N=1000 is past the float64 Cardano
	// breakdown, N=100 well before it, N=250 at the edge.
	{name: "tetra", src: "testdata/tetrahedral.c", sizes: []int64{100, 250, 1000}, smoke: []int64{20, 30, 60}},
	// Quartic ranking: the Ferrari path.
	{name: "quartic", src: "testdata/quartic.c", sizes: []int64{100, 1000}, smoke: []int64{10, 30}},
	// Degree 5 is beyond radicals: recovered through breakpoint tables.
	{name: "simplex5", loops: []nest.Loop{
		nest.L("a", "0", "N"), nest.L("b", "0", "a+1"), nest.L("c", "0", "b+1"),
		nest.L("d", "0", "c+1"), nest.L("e", "0", "d+1"),
	}, mode: unrank.ModeTable, sizes: []int64{1000}, smoke: []int64{12}},
}

// cubicClass is one shape at one size: a bound recovery state, the
// seeded pcs its operations start from, and what the oracle needs.
type cubicClass struct {
	name    string // shape.nN
	size    string // nN
	res     *core.Result
	params  map[string]int64
	b       *unrank.Bound
	pcs     []int64
	next    int
	bindDur time.Duration
	oracle  *rankOracle
	// body state; sum is the checksum the body computes, so the window
	// does real work per iteration
	lo, hi      int64
	calls       int64
	sum         int64
	first, last []int64
	start       []int64
}

func (c *cubicClass) body(pc int64, idx []int64) {
	c.calls++
	c.sum += idx[0] - idx[len(idx)-1]
	if pc == c.lo {
		copy(c.first, idx)
	}
	if pc == c.hi {
		copy(c.last, idx)
	}
}

// nextPC returns the class's next seeded start, cycling.
func (c *cubicClass) nextPC() int64 {
	pc := c.pcs[c.next]
	c.next = (c.next + 1) % len(c.pcs)
	return pc
}

type cubicSetup struct {
	classes []*cubicClass
	layer   map[string]float64
}

func cubicPrepare(cfg config) (*cubicSetup, error) {
	st := &cubicSetup{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	var rankMs, newMs samples
	for _, sh := range cubicShapes {
		n, c := (*nest.Nest)(nil), 0
		if sh.src != "" {
			src, err := os.ReadFile(sh.src)
			if err != nil {
				return nil, err
			}
			prog, err := cparse.Parse(string(src))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.src, err)
			}
			n, c = prog.Nest, prog.CollapseCount
		} else {
			var err error
			if n, err = nest.New([]string{"N"}, sh.loops...); err != nil {
				return nil, err
			}
			c = n.Depth()
		}
		if cfg.trace {
			r, u, err := compileSpans(n, c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.name, err)
			}
			rankMs = append(rankMs, r)
			newMs = append(newMs, u)
		}
		res, err := core.Collapse(n, c, unrank.Options{Mode: sh.mode})
		if err != nil {
			return nil, fmt.Errorf("%s: collapse: %w", sh.name, err)
		}
		sizes := sh.sizes
		if cfg.smoke {
			sizes = sh.smoke
		}
		for _, nv := range sizes {
			cl := &cubicClass{
				name:   fmt.Sprintf("%s.n%d", sh.name, nv),
				size:   fmt.Sprintf("n%d", nv),
				res:    res,
				params: map[string]int64{"N": nv},
				first:  make([]int64, c),
				last:   make([]int64, c),
				start:  make([]int64, c),
			}
			t0 := time.Now()
			b, err := res.Unranker.Bind(cl.params)
			cl.bindDur = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: bind: %w", cl.name, err)
			}
			cl.b = b
			if cl.oracle, err = newRankOracle(res, cl.params); err != nil {
				return nil, fmt.Errorf("%s: %w", cl.name, err)
			}
			if b.Total() < window {
				return nil, fmt.Errorf("%s: only %d iterations", cl.name, b.Total())
			}
			cl.pcs = make([]int64, 4096)
			for k := range cl.pcs {
				cl.pcs[k] = 1 + rng.Int63n(b.Total()-window+1)
			}
			st.classes = append(st.classes, cl)
		}
	}
	if cfg.trace {
		st.layer["ehrhart.ranking_ms_p50"] = rankMs.median()
		st.layer["ehrhart.ranking_ms_p99"] = rankMs.quantile(0.99)
		st.layer["unrank.new_ms_p50"] = newMs.median()
		st.layer["unrank.new_ms_p99"] = newMs.quantile(0.99)
	}
	return st, nil
}

// op runs one operation of class c at pc. Traced, the recovery is timed
// on its own and the window then runs from the recovered tuple.
func (c *cubicClass) op(pc int64, traced bool) (total, recover time.Duration, err error) {
	c.lo, c.hi, c.calls = pc, pc+window-1, 0
	t0 := time.Now()
	if !traced {
		err = core.ForRange(c.b, c.lo, c.hi, c.body)
		return time.Since(t0), 0, err
	}
	if err = c.b.Unrank(pc, c.start); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	err = core.ForRangeFrom(c.b, c.lo, c.hi, c.start, c.body)
	t2 := time.Now()
	return t2.Sub(t0), t1.Sub(t0), err
}

// check confirms the operation's first and last tuples by exact
// evaluation of the Ehrhart ranking polynomial, and that the window
// visited exactly window iterations.
func (c *cubicClass) check() error {
	if c.calls != window {
		return fmt.Errorf("%s at pc %d: %d iterations, want %d", c.name, c.lo, c.calls, window)
	}
	for _, t := range []struct {
		idx []int64
		pc  int64
	}{{c.first, c.lo}, {c.last, c.hi}} {
		if !c.oracle.ranks(t.idx, t.pc) {
			return fmt.Errorf("%s: tuple %v has exact rank %v, want %d", c.name, t.idx,
				exactRank(c.res, c.params, t.idx), t.pc)
		}
	}
	return nil
}

// rankOracle evaluates a class's ranking polynomial exactly: times the
// common denominator of its coefficients, in integers, with the
// parameters folded into the coefficients and big.Int scratch reused
// from call to call. Evaluating through poly's big.Rat maps instead made
// about a quarter of the process's garbage, and the collections it
// caused ran during the timed operations.
type rankOracle struct {
	den               *big.Int
	terms             []oracleTerm
	sum, t, u, v, pcD *big.Int
}

// oracleTerm is one monomial: its integer coefficient (times the
// common denominator and the parameters' powers) and, per index
// variable, its position in the tuple and its power.
type oracleTerm struct {
	num  *big.Int
	vars []struct{ k, pow int }
}

func newRankOracle(res *core.Result, params map[string]int64) (*rankOracle, error) {
	pos := map[string]int{}
	for k, name := range res.SubNest.Indices() {
		pos[name] = k
	}
	terms := res.Ranking.Terms()
	o := &rankOracle{den: big.NewInt(1), sum: new(big.Int), t: new(big.Int), u: new(big.Int),
		v: new(big.Int), pcD: new(big.Int)}
	for _, t := range terms {
		d := t.Coeff.Denom()
		g := new(big.Int).GCD(nil, nil, o.den, d)
		o.den.Mul(o.den, new(big.Int).Quo(d, g))
	}
	for _, t := range terms {
		num := new(big.Int).Quo(o.den, t.Coeff.Denom())
		num.Mul(num, t.Coeff.Num())
		ot := oracleTerm{num: num}
		for _, tv := range t.Vars {
			if k, ok := pos[tv.Name]; ok {
				ot.vars = append(ot.vars, struct{ k, pow int }{k, tv.Pow})
				continue
			}
			val, ok := params[tv.Name]
			if !ok {
				return nil, fmt.Errorf("ranking polynomial variable %q is neither index nor parameter", tv.Name)
			}
			num.Mul(num, new(big.Int).Exp(big.NewInt(val), big.NewInt(int64(tv.Pow)), nil))
		}
		o.terms = append(o.terms, ot)
	}
	return o, nil
}

// ranks reports whether the ranking polynomial takes the value pc at
// idx. (big.Int reuses a receiver's memory only when the receiver is
// not also an operand, hence the swaps.)
func (o *rankOracle) ranks(idx []int64, pc int64) bool {
	o.sum.SetInt64(0)
	for _, t := range o.terms {
		o.t.Set(t.num)
		for _, tv := range t.vars {
			o.v.SetInt64(idx[tv.k])
			for p := 0; p < tv.pow; p++ {
				o.u.Mul(o.t, o.v)
				o.t, o.u = o.u, o.t
			}
		}
		o.sum.Add(o.sum, o.t)
	}
	o.v.SetInt64(pc)
	o.pcD.Mul(o.v, o.den)
	return o.sum.Cmp(o.pcD) == 0
}

// exactRank evaluates the ranking polynomial at idx over big.Rat, for
// the report of a wrong answer; nil when the value is not an integer.
func exactRank(res *core.Result, params map[string]int64, idx []int64) *big.Int {
	env := make(map[string]int64, len(params)+len(idx))
	for k, v := range params {
		env[k] = v
	}
	for k, name := range res.SubNest.Indices() {
		env[name] = idx[k]
	}
	r, err := res.Ranking.EvalInt64(env)
	if err != nil || !r.IsInt() {
		return nil
	}
	return r.Num()
}

// sampleLimit is how many untraced latencies each class keeps: a
// 45-second run makes about 250 thousand operations per class on the
// 2-vCPU host this was built on.
const sampleLimit = 1 << 16

// cubicWindow is the length of one window of the latency and rate
// metrics: about fifteen thousand operations on the 2-vCPU host this was
// built on, so that a window's 0.99 quantile rests on about 150.
const cubicWindow = 500 * time.Millisecond

// cubicPhase is the outcome of the measured loop. A window's rate counts
// its untraced operations per second spent in them, not in the oracle's
// checks. A traced loop runs
// every operation twice in a row at the same pc, untraced and traced in
// a seeded order, so that the two are compared on the same work.
type cubicPhase struct {
	ops       *classes // untraced operations
	win       windows  // untraced operations, by cubicWindow
	tracedOps *classes // traced: recovery span plus window span
	recovers  *classes // traced: recovery span
}

func (st *cubicSetup) phase(rng *rand.Rand, seconds float64, traced bool, rep *report) *cubicPhase {
	ph := &cubicPhase{ops: newSampledClasses(sampleLimit, rng.Int63()), tracedOps: newClasses(), recovers: newClasses()}
	for _, c := range st.classes {
		ph.ops.declare(c.name)
		ph.tracedOps.declare(c.name)
		ph.recovers.declare(c.name)
	}
	modes := []bool{false}
	if traced {
		modes = []bool{false, true}
	}
	var lat samples
	busy := 0.0
	start := time.Now()
	winStart := start
	clock := newStealClock()
	for rounds := 0; rounds < 1 || time.Since(start).Seconds() < seconds; rounds++ {
		if time.Since(winStart) >= cubicWindow {
			ph.win.add(lat, busy, clock.lap())
			lat, busy, winStart = lat[:0], 0, time.Now()
		}
		for _, c := range st.classes {
			pc := c.nextPC()
			if traced && rng.Intn(2) == 1 {
				modes[0], modes[1] = modes[1], modes[0]
			}
			for _, mt := range modes {
				d, r, err := c.op(pc, mt)
				rep.attempted++
				if err == nil {
					err = c.check()
					if err != nil {
						rep.wrong++
					}
				}
				if err != nil {
					rep.failed++
					fmt.Printf("cubic-recover: %v\n", err)
					continue
				}
				if !mt {
					ph.ops.record(c.name, d)
					lat.add(d)
					busy += d.Seconds()
					continue
				}
				ph.tracedOps.by[c.name].add(d)
				ph.recovers.by[c.name].add(r)
			}
		}
	}
	// The last, partial window counts only when it is most of one (or
	// the only one, in a run shorter than a window).
	if len(ph.win.rate) == 0 || time.Since(winStart) >= cubicWindow/2 {
		ph.win.add(lat, busy, clock.lap())
	}
	return ph
}

func runCubic(cfg config) (*report, error) {
	st, setupTimes, err := timedSetup(cfg, func() (*cubicSetup, error) { return cubicPrepare(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{setup: setupTimes, layer: st.layer}
	// The order of traced and untraced runs comes from its own stream, so
	// the pcs the classes draw are the same traced or not.
	ph := st.phase(rand.New(rand.NewSource(cfg.seed+1)), cfg.seconds, cfg.trace, rep)
	rep.ops, rep.svc = ph.ops, ph.win
	if !cfg.trace {
		return rep, nil
	}
	L := rep.layer
	var overhead []float64
	var bindUs, covErr float64
	bySize := map[string]*samples{}
	var incrNs samples
	for _, c := range st.classes {
		// The traced operation's two spans against the untraced operation
		// at the same pcs, which was timed on its own. The tracer adds a
		// clock read and splits ForRange in two: about 0.15 us on a 2 us
		// operation on the host this was built on.
		ratio := ph.tracedOps.by[c.name].median() / ph.ops.by[c.name].median()
		overhead = append(overhead, ratio)
		covErr = max(covErr, 100*math.Abs(ratio-1))
		bindUs += c.bindDur.Seconds() * 1e6
		if bySize[c.size] == nil {
			bySize[c.size] = &samples{}
		}
		rec := *ph.recovers.by[c.name]
		*bySize[c.size] = append(*bySize[c.size], rec...)
		// Window time minus recovery time, per iteration.
		incrNs.addValue((ph.tracedOps.by[c.name].median() - rec.median()) / window * 1e9)
	}
	L["unrank.bind_us"] = bindUs
	for size, s := range bySize {
		L["unrank.recover_us_p50."+size] = s.median() * 1e6
		L["unrank.recover_us_p99."+size] = s.quantile(0.99) * 1e6
	}
	L["unrank.increment_ns"] = geomean(incrNs)
	for k, v := range st.ladder() {
		L[k] = v
	}
	L["trace.cubic-recover.overhead_pct"] = (geomean(overhead) - 1) * 100
	L["trace.cubic-recover.coverage_err_pct"] = covErr
	return rep, nil
}

// ladderOps is how many seeded operations per class the ladder counts
// replay: a fixed prefix of the class's pcs on a freshly bound state,
// so the counts repeat exactly under a fixed seed.
const ladderOps = 1000

// ladder replays a fixed prefix of every class's operations on fresh
// Bounds and reports the recovery-ladder counts per operation.
func (st *cubicSetup) ladder() map[string]float64 {
	var s unrank.Stats
	var ops int64
	var m0, m1 runtime.MemStats
	var allocs uint64
	for _, c := range st.classes {
		b, err := c.res.Unranker.Bind(c.params)
		if err != nil {
			continue
		}
		n := min(ladderOps, len(c.pcs))
		runtime.ReadMemStats(&m0)
		for _, pc := range c.pcs[:n] {
			c.lo, c.hi = pc, pc+window-1
			_ = core.ForRange(b, c.lo, c.hi, c.body)
		}
		runtime.ReadMemStats(&m1)
		allocs += m1.TotalAlloc - m0.TotalAlloc
		s.Add(b.Stats())
		ops += int64(n)
	}
	perOp := func(v int64) float64 { return float64(v) / float64(ops) }
	okRatio := 1.0
	if s.RootEvals > 0 {
		okRatio = float64(s.RootEvals-s.Fallbacks) / float64(s.RootEvals)
	}
	return map[string]float64{
		"unrank.float64_ok_ratio":   okRatio,
		"unrank.prec128_per_op":     perOp(s.EscalationsPrec128),
		"unrank.prec256_per_op":     perOp(s.EscalationsPrec256),
		"unrank.search_per_op":      perOp(s.Searches),
		"unrank.table_per_op":       perOp(s.TableLookups),
		"unrank.corrections_per_op": perOp(s.Corrections),
		"unrank.alloc_bytes_per_op": float64(allocs) / float64(ops),
	}
}
