package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket semantics: an
// observation v lands in the first bucket with v <= bound; values above
// the last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // boundary value belongs to its bucket
		{1.0000001, 1}, {2, 1},
		{2.5, 2}, {4, 2},
		{4.0000001, 3}, {100, 3}, // overflow
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.bucket {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := []int64{3, 2, 2, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 9 {
		t.Errorf("Count = %d, want 9", h.Count())
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Errorf("Sum = %g, want %g", h.Sum(), sum)
	}
}

// TestHistogramUnsortedBounds checks that bounds are sorted on
// construction.
func TestHistogramUnsortedBounds(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2})
	if h.bucketIndex(1.5) != 1 {
		t.Errorf("bounds not sorted: bucketIndex(1.5) = %d", h.bucketIndex(1.5))
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this also proves the
// implementations are data-race free.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				// Counter handles are shared: looking one up again must
				// return the same counter.
				r.Counter("c").Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 2*workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), 2*workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-0.25*workers*per) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), 0.25*workers*per)
	}
}

// TestSnapshotGoldenJSON pins the deterministic JSON serialisation of a
// registry snapshot (sorted keys, fixed field order).
func TestSnapshotGoldenJSON(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").Set(7)
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"counters":{"a":1,"b":2},"gauges":{"g":7},` +
		`"histograms":{"h":{"bounds":[1,2],"counts":[1,0,1],"count":2,"sum":3.5}},"spans":0}`
	if string(data) != golden {
		t.Errorf("snapshot JSON:\n got %s\nwant %s", data, golden)
	}
}

// TestSpansAndChromeTrace records spans and validates the Chrome
// trace-event export structure.
func TestSpansAndChromeTrace(t *testing.T) {
	r := New()
	sp := r.StartSpan("compile", "phase1", 0)
	time.Sleep(time.Millisecond)
	sp.End(Arg{Name: "k", Value: 42})
	r.Trace().Add(Event{Name: "chunk", Cat: "chunk", TID: 3,
		Start: 10 * time.Microsecond, Dur: 5 * time.Microsecond,
		Args: []Arg{{Name: "iters", Value: 9}}})

	events := r.Trace().Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Name != "phase1" || events[0].Dur <= 0 {
		t.Errorf("bad span event: %+v", events[0])
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			PID  int              `json:"pid"`
			TID  int              `json:"tid"`
			Ts   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" || len(trace.TraceEvents) != 2 {
		t.Fatalf("bad trace envelope: %+v", trace)
	}
	chunk := trace.TraceEvents[1]
	if chunk.Ph != "X" || chunk.TID != 3 || chunk.Ts != 10 || chunk.Dur != 5 ||
		chunk.Args["iters"] != 9 {
		t.Errorf("bad chunk event: %+v", chunk)
	}
}

// TestImbalanceMath checks the report statistics on a known load set.
func TestImbalanceMath(t *testing.T) {
	rep := NewImbalance([]ThreadLoad{
		{TID: 0, Iterations: 10, Busy: 10 * time.Second, Chunks: 1},
		{TID: 1, Iterations: 30, Busy: 30 * time.Second, Chunks: 1},
	})
	if rep.TotalIter != 40 || rep.MaxIter != 30 {
		t.Errorf("iters: total %d max %d", rep.TotalIter, rep.MaxIter)
	}
	if math.Abs(rep.IterImbalance-1.5) > 1e-12 {
		t.Errorf("IterImbalance = %g, want 1.5", rep.IterImbalance)
	}
	// mean 20, deviations ±10 -> stddev 10, cv 0.5
	if math.Abs(rep.IterCV-0.5) > 1e-12 {
		t.Errorf("IterCV = %g, want 0.5", rep.IterCV)
	}
	if math.Abs(rep.BusyImbalance-1.5) > 1e-12 || math.Abs(rep.BusyCV-0.5) > 1e-12 {
		t.Errorf("busy: imbalance %g cv %g", rep.BusyImbalance, rep.BusyCV)
	}
	if !strings.Contains(rep.String(), "max/mean 1.5000") {
		t.Errorf("report rendering:\n%s", rep.String())
	}
}

// TestTraceImbalance derives a report from chunk events, including an
// idle thread row.
func TestTraceImbalance(t *testing.T) {
	r := New()
	tr := r.Trace()
	tr.Add(Event{Name: "static", Cat: "chunk", TID: 0, Dur: 2 * time.Millisecond,
		Args: []Arg{{Name: "iters", Value: 100}, {Name: "recovery_ns", Value: 500}}})
	tr.Add(Event{Name: "static", Cat: "chunk", TID: 0, Dur: 1 * time.Millisecond,
		Args: []Arg{{Name: "iters", Value: 50}}})
	tr.Add(Event{Name: "static", Cat: "chunk", TID: 1, Dur: 3 * time.Millisecond,
		Args: []Arg{{Name: "iters", Value: 150}}})
	tr.Add(Event{Name: "other", Cat: "compile", TID: 0, Dur: time.Second}) // ignored
	rep := tr.Imbalance("chunk", 3)
	if len(rep.Threads) != 3 {
		t.Fatalf("threads = %d, want 3 (idle thread must appear)", len(rep.Threads))
	}
	if rep.Threads[0].Chunks != 2 || rep.Threads[0].Iterations != 150 ||
		rep.Threads[0].Recovery != 500 {
		t.Errorf("thread 0: %+v", rep.Threads[0])
	}
	if rep.Threads[2].Chunks != 0 {
		t.Errorf("thread 2 should be idle: %+v", rep.Threads[2])
	}
	if rep.TotalIter != 300 {
		t.Errorf("TotalIter = %d", rep.TotalIter)
	}
}

// TestNilSafety exercises every method on nil handles: all must be
// no-ops, so instrumented code can run unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	if r.Counter("x").Value() != 0 {
		t.Error("nil counter value")
	}
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	if r.Gauge("x").Value() != 0 {
		t.Error("nil gauge value")
	}
	r.Histogram("x", nil).Observe(1)
	if r.Histogram("x", nil).Count() != 0 || r.Histogram("x", nil).Sum() != 0 {
		t.Error("nil histogram")
	}
	sp := r.StartSpan("c", "n", 0)
	sp.End(Arg{Name: "a", Value: 1})
	r.Trace().Add(Event{})
	if r.Trace().Len() != 0 || r.Trace().Events() != nil || r.Trace().Now() != 0 {
		t.Error("nil trace")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Spans != 0 {
		t.Error("nil snapshot")
	}
	if !strings.Contains(r.Report(), "disabled") {
		t.Error("nil report")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("nil chrome trace not valid JSON")
	}
	rep := r.Trace().Imbalance("chunk", 2)
	if len(rep.Threads) != 2 || rep.TotalIter != 0 {
		t.Errorf("nil trace imbalance: %+v", rep)
	}
}

// TestReportRendering smoke-tests the human-readable report.
func TestReportRendering(t *testing.T) {
	r := New()
	r.Counter("unrank.root_evals").Add(12)
	r.Histogram("omp.chunk_seconds", nil).Observe(0.001)
	sp := r.StartSpan("compile", "ehrhart.Ranking", 0)
	sp.End()
	rep := r.Report()
	for _, frag := range []string{
		"spans (1 events)", "compile/ehrhart.Ranking",
		"counters", "unrank.root_evals", "histograms", "omp.chunk_seconds",
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
	if empty := New().Report(); !strings.Contains(empty, "no telemetry recorded") {
		t.Errorf("empty report: %q", empty)
	}
}
