package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

func triNest(t *testing.T) *nest.Nest {
	t.Helper()
	return nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestLiveScrapeDuringRun is the plane's acceptance test: compile a
// nest through the structural cache (miss then hit), run the collapsed
// loop under the instrumented executor, and scrape GET /metrics from
// inside the running loop. The mid-run exposition must be valid
// OpenMetrics and must already carry compile, cache, omp and unrank
// families.
func TestLiveScrapeDuringRun(t *testing.T) {
	tel := telemetry.New()
	tel.EnableFlight(256, true)
	cache := core.NewCollapseCache(4)
	opts := unrank.Options{Telemetry: tel}

	res, err := core.CollapseCached(cache, triNest(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CollapseCached(cache, triNest(t), 2, opts); err != nil {
		t.Fatal(err) // second compile: structural cache hit
	}

	srv := httptest.NewServer(NewPlane(tel).Handler())
	defer srv.Close()

	// The scrape fires from a worker goroutine, so it must not use
	// t.Fatal; errors are carried out and checked on the test goroutine.
	var midExposition atomic.Pointer[string]
	var midErr atomic.Pointer[error]
	scrape := func() {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			midErr.CompareAndSwap(nil, &err)
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			midErr.CompareAndSwap(nil, &err)
			return
		}
		body := string(b)
		midExposition.CompareAndSwap(nil, &body)
	}
	_, err = omp.CollapsedForCtx(nil, res, map[string]int64{"N": 120}, 2,
		omp.Schedule{Kind: omp.StaticChunk, Chunk: 16}, tel, func(tid int, idx []int64) {
			if idx[0] > 60 && midExposition.Load() == nil && midErr.Load() == nil {
				scrape()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if ep := midErr.Load(); ep != nil {
		t.Fatalf("mid-run scrape failed: %v", *ep)
	}
	bodyp := midExposition.Load()
	if bodyp == nil {
		t.Fatal("mid-run scrape never fired")
	}
	fams, err := ParseExposition(strings.NewReader(*bodyp))
	if err != nil {
		t.Fatalf("mid-run exposition invalid: %v", err)
	}
	for _, prefix := range []string{"compile_", "cache_", "omp_", "unrank_"} {
		found := false
		for name := range fams {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mid-run exposition has no %s* family; families: %v",
				prefix, FamilyNames(fams))
		}
	}
	if v := findSample(t, fams, "cache_hits", "cache_hits_total", nil); v != 1 {
		t.Errorf("cache_hits_total = %v, want 1", v)
	}

	// After the run the chunk-duration histogram must be populated and
	// its quantile gauges present.
	_, final := get(t, srv.URL+"/metrics")
	fams, err = ParseExposition(strings.NewReader(final))
	if err != nil {
		t.Fatalf("final exposition invalid: %v", err)
	}
	if cnt := findSample(t, fams, "omp_chunk_seconds", "omp_chunk_seconds_count", nil); cnt <= 0 {
		t.Errorf("omp_chunk_seconds_count = %v, want > 0", cnt)
	}
	if _, ok := fams["omp_chunk_seconds_quantile"]; !ok {
		t.Error("omp_chunk_seconds_quantile family missing")
	}
}

// TestPlaneEndpoints covers the non-/metrics routes: index, healthz,
// the JSON snapshot with interval rates, the flight-recorder trace, and
// the pprof mount.
func TestPlaneEndpoints(t *testing.T) {
	tel := telemetry.New()
	tel.EnableFlight(64, true)
	p := NewPlane(tel)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	if code, body := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv.URL+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/nosuch"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
	if code, body := get(t, srv.URL+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (len %d)", code, len(body))
	}

	// First snapshot: no interval yet.
	tel.Counter("work.items").Add(10)
	_, body := get(t, srv.URL+"/snapshot")
	var doc SnapshotDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, body)
	}
	if doc.IntervalS != 0 || doc.Rates != nil {
		t.Errorf("first snapshot has interval %v rates %v, want none", doc.IntervalS, doc.Rates)
	}
	if doc.Counters["work.items"] != 10 {
		t.Errorf("snapshot counters = %v", doc.Counters)
	}

	// Second snapshot after more work: rates appear.
	tel.Counter("work.items").Add(30)
	time.Sleep(10 * time.Millisecond)
	_, body = get(t, srv.URL+"/snapshot")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.IntervalS <= 0 {
		t.Errorf("second snapshot interval = %v, want > 0", doc.IntervalS)
	}
	rate := doc.Rates["work.items"]
	if rate <= 0 {
		t.Errorf("work.items rate = %v, want > 0 (30 added over %vs)", rate, doc.IntervalS)
	}
	if doc.Flight == nil || doc.Flight.Cap != 64 {
		t.Errorf("snapshot flight doc = %+v, want cap 64", doc.Flight)
	}

	// A busy worker's inflight marker yields a derived age.
	tel.Gauge(`omp.worker_inflight_since_ns{tid="0"}`).Set(1) // ancient
	_, body = get(t, srv.URL+"/snapshot")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	age, ok := doc.Derived[`omp.worker_inflight_age_ns{tid="0"}`]
	if !ok || age <= 0 {
		t.Errorf("derived inflight age = %d (present=%v), want > 0", age, ok)
	}

	// /trace serves the flight window as Chrome trace JSON.
	sp := tel.StartSpan("chunk", "body", 1)
	sp.End()
	_, body = get(t, srv.URL+"/trace")
	var trace struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace JSON: %v\n%s", err, body)
	}
	if len(trace.Events) == 0 {
		t.Error("/trace returned no events after a recorded span")
	}
}

// TestPlaneServe exercises the real listener path (:0 port).
func TestPlaneServe(t *testing.T) {
	tel := telemetry.New()
	tel.Counter("demo.total").Add(1)
	p := NewPlane(tel)
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Addr() == nil {
		t.Fatal("Addr nil after Serve")
	}
	code, body := get(t, fmt.Sprintf("http://%s/metrics", addr))
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	if _, err := ParseExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("served exposition invalid: %v", err)
	}
	if !strings.Contains(body, "demo_total_total 1") {
		t.Errorf("exposition missing counter sample:\n%s", body)
	}
}

// TestConcurrentScrape hammers /metrics and /snapshot while a collapsed
// run mutates the registry — the plane must stay race-free (this runs
// under -race via the Makefile's RACE_PKGS).
func TestConcurrentScrape(t *testing.T) {
	tel := telemetry.New()
	tel.EnableFlight(128, false) // flight-only retention, server mode
	res, err := core.Collapse(triNest(t), 2, unrank.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPlane(tel).Handler())
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := omp.CollapsedForCtx(nil, res, map[string]int64{"N": 200}, 4,
			omp.Schedule{Kind: omp.StaticChunk, Chunk: 8}, tel, func(tid int, idx []int64) {})
		if err != nil {
			t.Error(err)
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			// One final scrape of each endpoint after the run.
			if _, body := get(t, srv.URL+"/metrics"); body != "" {
				if _, err := ParseExposition(strings.NewReader(body)); err != nil {
					t.Fatalf("post-run exposition invalid: %v", err)
				}
			}
			get(t, srv.URL+"/snapshot")
			get(t, srv.URL+"/trace")
			return
		default:
		}
		switch i % 3 {
		case 0:
			_, body := get(t, srv.URL+"/metrics")
			if _, err := ParseExposition(strings.NewReader(body)); err != nil {
				t.Fatalf("scrape %d invalid exposition: %v", i, err)
			}
		case 1:
			get(t, srv.URL+"/snapshot")
		case 2:
			get(t, srv.URL+"/trace")
		}
	}
}
