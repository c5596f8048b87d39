package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// samples is a list of durations in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s *samples) addValue(v float64) { *s = append(*s, v) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (the same rule as numpy's default); NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	l := 0.0
	for _, x := range v {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(v)))
}

// classes groups op latencies by job class, keeping the class order in
// which the classes were first declared. With a limit, each class keeps
// a uniform random sample (a reservoir) of at most limit latencies, so
// that the benchmark's own memory does not grow with the number of
// operations, which follows the host's speed, and show in peak_rss_mb.
type classes struct {
	names []string
	by    map[string]*samples
	seen  map[string]int64 // operations recorded per class
	limit int              // 0: keep every latency
	rng   *rand.Rand
}

func newClasses(names ...string) *classes {
	c := &classes{by: map[string]*samples{}, seen: map[string]int64{}}
	for _, n := range names {
		c.declare(n)
	}
	return c
}

// newSampledClasses returns classes that keep at most limit latencies
// per class, chosen with a generator seeded by seed.
func newSampledClasses(limit int, seed int64) *classes {
	c := newClasses()
	c.limit, c.rng = limit, rand.New(rand.NewSource(seed))
	return c
}

// record adds one operation's latency to a declared class.
func (c *classes) record(name string, d time.Duration) {
	s := c.by[name]
	c.seen[name]++
	if c.limit == 0 || len(*s) < c.limit {
		s.add(d)
		return
	}
	if j := c.rng.Int63n(c.seen[name]); j < int64(c.limit) {
		(*s)[j] = d.Seconds()
	}
}

func (c *classes) declare(name string) *samples {
	if s, ok := c.by[name]; ok {
		return s
	}
	// A sampled class holds its whole reservoir from the start, so the
	// heap, and with it the collector's pace, does not grow during the
	// measured loop.
	s := &samples{}
	if c.limit > 0 {
		*s = make(samples, 0, c.limit)
	}
	c.names = append(c.names, name)
	c.by[name] = s
	return s
}

// medians returns each non-empty class's median, in class order.
func (c *classes) medians() []float64 {
	var out []float64
	for _, n := range c.names {
		if s := *c.by[n]; len(s) > 0 {
			out = append(out, s.median())
		}
	}
	return out
}

// windows keeps, for each window of a measured loop, the window's
// latency median and 0.99 quantile, its completion rate and the share
// of CPU time the hypervisor stole during it.
type windows struct{ p50, p99, rate, steal samples }

// add closes one window: lat are its latencies, busy the seconds over
// which they completed, steal the share of CPU time stolen.
func (w *windows) add(lat samples, busy, steal float64) {
	if len(lat) == 0 || busy <= 0 {
		return
	}
	w.p50.addValue(lat.quantile(0.5))
	w.p99.addValue(lat.quantile(0.99))
	w.rate.addValue(float64(len(lat)) / busy)
	w.steal.addValue(steal)
}

// calm returns the windows in which the hypervisor stole at most a
// tenth of the CPU time or, when more than three quarters of the windows
// exceed that, the quarter of them with the least steal. The other
// guests of a shared host take bursts of time from its CPUs: the run's
// own work is measured between the bursts.
func (w *windows) calm() *windows {
	limit := max(maxSteal, w.steal.quantile(0.25))
	out := &windows{}
	for i, st := range w.steal {
		if st > limit {
			continue
		}
		out.steal.addValue(st)
		out.rate.addValue(w.rate[i])
		if i < len(w.p50) {
			out.p50.addValue(w.p50[i])
			out.p99.addValue(w.p99[i])
		}
	}
	return out
}

// maxSteal is the share of CPU time a window may have lost to other
// guests and still count in full.
const maxSteal = 0.10

// sampleSteal measures the steal share of consecutive win-long windows
// from now on; the function it returns stops it and returns the shares,
// the last window's partial.
func sampleSteal(win time.Duration) func() []float64 {
	clock := newStealClock()
	var shares []float64
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(win)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				shares = append(shares, clock.lap())
			case <-done:
				shares = append(shares, clock.lap())
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return shares
	}
}

// stealClock measures the share of the machine's CPU time that the
// hypervisor gave to other guests, lap by lap.
type stealClock struct{ busy, steal uint64 }

func newStealClock() *stealClock {
	c := &stealClock{}
	c.busy, c.steal = cpuTicks()
	return c
}

// lap returns the share of busy or stolen CPU time that was stolen since
// the previous lap (0 where /proc/stat is not available).
func (c *stealClock) lap() float64 {
	b, s := cpuTicks()
	db, ds := b-c.busy, s-c.steal
	c.busy, c.steal = b, s
	if db+ds == 0 {
		return 0
	}
	return float64(ds) / float64(db+ds)
}

// tailQ is the quantile reported as a tail over few samples: 0.99, or
// for fewer than a thousand samples the highest quantile with ten
// samples beyond it, so the tail is never one or two outliers.
func tailQ(n int) float64 { return min(0.99, 1-10/float64(max(n, 20))) }
