package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(bounds)+1; last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, JSON-serialisable view of a registry's metric
// values. Map keys are metric names; encoding/json sorts map keys, so
// the serialised form is deterministic for deterministic values (trace
// events, whose timestamps are inherently nondeterministic, are
// exported separately via WriteChromeTrace).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      int                          `json:"spans"`
}

// Snapshot freezes the current metric values. A nil registry yields the
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	s.Spans = r.trace.Len()
	return s
}

// MarshalJSON serialises the snapshot of the registry (deterministic
// key order).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// spanAgg aggregates all events sharing a cat/name pair.
type spanAgg struct {
	cat, name string
	count     int64
	total     time.Duration
	min, max  time.Duration
}

// Report renders a human-readable summary: spans aggregated by
// category/name (count, total, min, max), then counters, gauges and
// histograms, each sorted by name. Empty sections are omitted; a nil
// registry reports "telemetry disabled".
func (r *Registry) Report() string {
	if r == nil {
		return "telemetry disabled\n"
	}
	var b strings.Builder
	events := r.trace.Events()
	if len(events) > 0 {
		aggs := map[string]*spanAgg{}
		for _, ev := range events {
			key := ev.Cat + "\x00" + ev.Name
			a, ok := aggs[key]
			if !ok {
				a = &spanAgg{cat: ev.Cat, name: ev.Name, min: ev.Dur, max: ev.Dur}
				aggs[key] = a
			}
			a.count++
			a.total += ev.Dur
			if ev.Dur < a.min {
				a.min = ev.Dur
			}
			if ev.Dur > a.max {
				a.max = ev.Dur
			}
		}
		keys := make([]string, 0, len(aggs))
		for k := range aggs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "spans (%d events):\n", len(events))
		fmt.Fprintf(&b, "  %-34s %8s %12s %12s %12s\n", "cat/name", "count", "total", "min", "max")
		for _, k := range keys {
			a := aggs[k]
			fmt.Fprintf(&b, "  %-34s %8d %12s %12s %12s\n",
				a.cat+"/"+a.name, a.count, fmtDur(a.total), fmtDur(a.min), fmtDur(a.max))
		}
	}
	snap := r.Snapshot()
	writeKV := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-34s %12d\n", k, m[k])
		}
	}
	writeKV("counters", snap.Counters)
	writeKV("gauges", snap.Gauges)
	if len(snap.Histograms) > 0 {
		keys := make([]string, 0, len(snap.Histograms))
		for k := range snap.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "histograms:\n")
		for _, k := range keys {
			h := snap.Histograms[k]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			qs := h.Quantiles(DefQuantiles...)
			fmt.Fprintf(&b, "  %-34s count %-10d sum %-12.6g mean %.6g p50 %.3g p95 %.3g p99 %.3g\n",
				k, h.Count, h.Sum, mean, qs[0], qs[1], qs[2])
		}
	}
	if b.Len() == 0 {
		return "no telemetry recorded\n"
	}
	return b.String()
}

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// ThreadLoad is the per-thread row of an imbalance report.
type ThreadLoad struct {
	TID        int
	Chunks     int64
	Iterations int64
	Busy       time.Duration // total time inside chunk bodies
	Recovery   time.Duration // time spent in closed-form/binary-search recovery
}

// ImbalanceReport summarises how evenly work was spread over a thread
// team — the quantity behind the paper's Figs. 10–13 argument that
// collapsing yields perfectly balanced static schedules.
type ImbalanceReport struct {
	Threads []ThreadLoad

	MaxBusy  time.Duration
	MeanBusy time.Duration
	// BusyCV is the coefficient of variation (stddev/mean) of the
	// per-thread busy times; 0 means perfect time balance.
	BusyCV float64
	// BusyImbalance is max/mean of the busy times (λ of load-balance
	// literature); 1 means perfect balance.
	BusyImbalance float64

	MaxIter  int64
	MeanIter float64
	// IterCV and IterImbalance are the same statistics over per-thread
	// iteration counts — deterministic for static schedules, which is
	// what the integration tests assert on.
	IterCV        float64
	IterImbalance float64
	TotalIter     int64
	TotalRecovery time.Duration
}

// NewImbalance computes the report statistics from per-thread loads.
func NewImbalance(loads []ThreadLoad) ImbalanceReport {
	rep := ImbalanceReport{Threads: append([]ThreadLoad(nil), loads...)}
	n := len(loads)
	if n == 0 {
		return rep
	}
	var busySum, iterSum float64
	for _, l := range loads {
		if l.Busy > rep.MaxBusy {
			rep.MaxBusy = l.Busy
		}
		if l.Iterations > rep.MaxIter {
			rep.MaxIter = l.Iterations
		}
		busySum += float64(l.Busy)
		iterSum += float64(l.Iterations)
		rep.TotalIter += l.Iterations
		rep.TotalRecovery += l.Recovery
	}
	busyMean := busySum / float64(n)
	iterMean := iterSum / float64(n)
	rep.MeanBusy = time.Duration(busyMean)
	rep.MeanIter = iterMean
	var busyVar, iterVar float64
	for _, l := range loads {
		busyVar += (float64(l.Busy) - busyMean) * (float64(l.Busy) - busyMean)
		iterVar += (float64(l.Iterations) - iterMean) * (float64(l.Iterations) - iterMean)
	}
	if busyMean > 0 {
		rep.BusyCV = math.Sqrt(busyVar/float64(n)) / busyMean
		rep.BusyImbalance = float64(rep.MaxBusy) / busyMean
	}
	if iterMean > 0 {
		rep.IterCV = math.Sqrt(iterVar/float64(n)) / iterMean
		rep.IterImbalance = float64(rep.MaxIter) / iterMean
	}
	return rep
}

// Imbalance computes an ImbalanceReport from the trace's events of the
// given category (normally "chunk"), assuming `threads` team members
// (threads that recorded no event count as idle rows). Event args named
// "iters" and "recovery_ns" feed the respective columns.
func (t *Trace) Imbalance(cat string, threads int) ImbalanceReport {
	loads := map[int]*ThreadLoad{}
	for tid := 0; tid < threads; tid++ {
		loads[tid] = &ThreadLoad{TID: tid}
	}
	for _, ev := range t.Events() {
		if ev.Cat != cat {
			continue
		}
		l, ok := loads[ev.TID]
		if !ok {
			l = &ThreadLoad{TID: ev.TID}
			loads[ev.TID] = l
		}
		l.Chunks++
		l.Busy += ev.Dur
		for _, a := range ev.Args {
			switch a.Name {
			case "iters":
				l.Iterations += a.Value
			case "recovery_ns":
				l.Recovery += time.Duration(a.Value)
			}
		}
	}
	tids := make([]int, 0, len(loads))
	for tid := range loads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	rows := make([]ThreadLoad, 0, len(tids))
	for _, tid := range tids {
		rows = append(rows, *loads[tid])
	}
	return NewImbalance(rows)
}

// String renders the report as an aligned table plus the summary
// statistics line, in the spirit of the paper's Fig. 2 and Figs. 10–13
// discussion.
func (r ImbalanceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %12s %12s %12s\n",
		"thread", "chunks", "iterations", "busy", "recovery")
	for _, l := range r.Threads {
		fmt.Fprintf(&b, "%6d %8d %12d %12s %12s\n",
			l.TID, l.Chunks, l.Iterations, fmtDur(l.Busy), fmtDur(l.Recovery))
	}
	fmt.Fprintf(&b, "iterations: total %d, max/mean %.4f, cv %.4f\n",
		r.TotalIter, r.IterImbalance, r.IterCV)
	fmt.Fprintf(&b, "busy time:  max %s, mean %s, max/mean %.4f, cv %.4f\n",
		fmtDur(r.MaxBusy), fmtDur(r.MeanBusy), r.BusyImbalance, r.BusyCV)
	return b.String()
}
