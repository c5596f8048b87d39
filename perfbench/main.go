// Command perfbench is the repository benchmark. It drives the library
// and the collapse daemon from outside, through their exported
// functions, and prints every metric by name with its unit plus a
// correctness verdict. See README.md for the workloads and the metric
// definitions, and BENCHMARK.json at the repository root for the bounds.
//
// Run it from the root of a checkout through the wrapper, which builds
// it first:
//
//	python3 perfbench/run.py --workload fig9 --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is what one workload run needs to know.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool // tiny sizes, for the smoke run
	fill    bool // one set-up repetition: a short run for another workload's layers
	threads int  // worker threads (fig9) or connections (daemon-mix): the cores
	rate    float64
	sloMs   float64
}

// report is what one workload run measured. Service latencies are
// grouped by job class for the per-class medians; the latency and rate
// metrics come from the run's windows (stats.go). Latency from due is
// measured from the time each operation was due, which is its start in
// the closed loops.
type report struct {
	attempted, failed int64
	wrong             int64 // answers the oracles rejected (also in failed)
	ops               *classes
	svc               windows  // service time and completion rate
	due               *windows // open loop only: latency from due (closed loops: svc)
	goodput           *windows // open loop only: answers within the limit per second
	setup             samples  // one entry per set-up repetition
	peakRSS           float64  // MB, read when the measured loop ends
	layer             map[string]float64
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"fig9":          runFig9,
	"cubic-recover": runCubic,
	"daemon-mix":    runDaemon,
}

// owner names the workload whose run measures each per-layer metric
// prefix (first match wins); a traced run of another workload takes
// these from a short traced run of the owner at the owner's full sizes.
// Metrics not listed are measured by every workload.
var owner = []struct{ prefix, workload string }{
	{"omp.", "fig9"},
	{"kernels.", "fig9"},
	{"autotune.", "fig9"},
	{"core.increment_pct", "fig9"},
	{"unrank.new_ms", ""},
	{"unrank.", "cubic-recover"},
	{"cparse.", "daemon-mix"},
	{"core.", "daemon-mix"},
	{"serve.", "daemon-mix"},
	{"codegen.", "daemon-mix"},
	{"bench.", "daemon-mix"},
	{"trace.fig9.", "fig9"},
	{"trace.cubic-recover.", "cubic-recover"},
}

func ownerOf(metric string) string {
	for _, o := range owner {
		if strings.HasPrefix(metric, o.prefix) {
			return o.workload
		}
	}
	return ""
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: fig9, cubic-recover or daemon-mix")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured loop")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
		rate     = flag.Float64("rate", 600, "daemon-mix offered rate, requests per second")
		sloMs    = flag.Float64("slo-ms", 25, "daemon-mix p99 latency limit, milliseconds")
		smoke    = flag.Bool("smoke", false, "run every workload at tiny sizes, check answers and determinism, and exit")
	)
	flag.Parse()
	// One worker thread, or one connection, per core this process sees.
	host := hostInfo()
	host.Threads = host.cores()
	host.Connections = host.cores()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, threads: host.cores(),
		rate: *rate, sloMs: *sloMs}
	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fatalf("smoke: %v", err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want fig9, cubic-recover or daemon-mix)", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("bad --seconds or --trace")
	}
	host.Workload = *workload
	host.Seed = *seed
	busy0, steal0 := cpuTicks()
	rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	// Before the statistics below add the benchmark's own copies.
	rep.peakRSS = peakRSSMB()
	// Time the hypervisor gave this machine's CPUs to someone else,
	// as a share of the time they were busy or stolen during the run.
	if busy1, steal1 := cpuTicks(); busy1+steal1 > busy0+steal0 {
		host.StealPct = 100 * float64(steal1-steal0) / float64(busy1+steal1-busy0-steal0)
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hj)
	var out map[string]float64
	var specs []metricSpec
	if cfg.trace {
		out, err = layerMetrics(*workload, cfg, rep)
		specs = perLayer
	} else {
		for _, n := range rep.ops.names {
			s := *rep.ops.by[n]
			fmt.Printf("class %-28s %7d ops  p50 %12.6g ms  p99 %12.6g ms\n",
				n, len(s), s.median()*1e3, s.quantile(0.99)*1e3)
		}
		printWindows("service", &rep.svc)
		if rep.due != nil {
			printWindows("from due", rep.due)
		}
		if rep.goodput != nil {
			printWindows("goodput", rep.goodput)
		}
		out = endToEnd(rep)
		specs = endToEndSpecs
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if cfg.trace {
		for w, tol := range coverageTolerancePct {
			if e := out["trace."+w+".coverage_err_pct"]; e > tol {
				fatalf("%s: layer self times miss %.3g%% of a job's wall time, over the %g%% tolerance",
					w, e, tol)
			}
		}
	}
	emit(rep, out, specs)
}

// printWindows prints the spread of a run's windows and how many of
// them the metrics count (windows.calm).
func printWindows(what string, w *windows) {
	q := func(s samples, scale float64) string {
		return fmt.Sprintf("%.4g/%.4g/%.4g", s.quantile(0)*scale, s.median()*scale, s.quantile(1)*scale)
	}
	fmt.Printf("windows %-8s %4d, %4d counted  p50 %s ms  p99 %s ms  rate %s /s  steal %s %% (min/median/max)\n",
		what, len(w.rate), len(w.calm().rate), q(w.p50, 1e3), q(w.p99, 1e3), q(w.rate, 1), q(w.steal, 100))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// coverageTolerancePct is, per workload, how far the traced layer self
// times of a job may fall short of (or exceed) the job's wall time,
// measured independently of them (README.md, "Per-layer metrics"). On
// the host this was built on, fig9 stayed under 2% and cubic-recover,
// whose operations take about 2 us, under 10%.
var coverageTolerancePct = map[string]float64{"fig9": 5, "cubic-recover": 15}

// fillSeconds is the length of the short full-size run of another
// workload that fills the per-layer metrics a traced run's own workload
// bypasses.
const fillSeconds = 4

// metricSpec is a metric's name and unit.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"kernel_geomean_ms", "ms"},
	{"pass_s", "s"},
	{"chunk_p50_us", "us"},
	{"chunk_p99_us", "us"},
	{"chunks_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"max_rps_at_slo", "1/s"},
	{"peak_rss_mb", "MB"},
}

// endToEnd derives the end-to-end metrics from a run's op log. Every
// workload reports all of them: an "op" is the workload's own unit of
// work and a class its own job class (see README.md).
func endToEnd(rep *report) map[string]float64 {
	meds := rep.ops.medians()
	svc, due := rep.svc.calm(), rep.svc.calm()
	if rep.due != nil {
		due = rep.due.calm()
	}
	// A closed loop paces itself: its completion rate is the rate it
	// sustains.
	maxRPS := svc.rate.median()
	if rep.goodput != nil {
		maxRPS = rep.goodput.calm().rate.median()
	}
	return map[string]float64{
		"setup_s":           rep.setup.median(),
		"kernel_geomean_ms": geomean(meds) * 1e3,
		"pass_s":            samples(meds).sum(),
		"chunk_p50_us":      svc.p50.median() * 1e6,
		"chunk_p99_us":      svc.p99.median() * 1e6,
		"chunks_per_s":      svc.rate.median(),
		"req_p50_ms":        due.p50.median() * 1e3,
		"req_p99_ms":        due.p99.median() * 1e3,
		"max_rps_at_slo":    maxRPS,
		"peak_rss_mb":       rep.peakRSS,
	}
}

// layerMetrics completes a traced run's per-layer metrics: the ones
// this workload owns or shares come from its own run, the rest from a
// short traced run, at full size, of the workload that owns them.
func layerMetrics(name string, cfg config, rep *report) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range rep.layer {
		if o := ownerOf(k); o == "" || o == name {
			out[k] = v
		}
	}
	others := make([]string, 0, len(workloads))
	for w := range workloads {
		if w != name {
			others = append(others, w)
		}
	}
	sort.Strings(others)
	for _, w := range others {
		sc := cfg
		sc.fill = true
		sc.seconds = fillSeconds
		orep, err := workloads[w](sc)
		if err != nil {
			return nil, fmt.Errorf("%s for its layers: %w", w, err)
		}
		rep.attempted += orep.attempted
		rep.failed += orep.failed
		rep.wrong += orep.wrong
		for k, v := range orep.layer {
			if ownerOf(k) == w {
				out[k] = v
			}
		}
	}
	return out, nil
}

// emit prints the metrics one per line and then the result object as
// the last line of standard output. A metric the run could not measure
// is an error, not a silent gap.
func emit(rep *report, vals map[string]float64, specs []metricSpec) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s was not measured (%v)", s.name, v)
		}
		metrics[s.name] = metric{v, s.unit}
		fmt.Printf("%-44s %14.6g %s\n", s.name, v, s.unit)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.wrong == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// timedSetup runs set-up several times and returns the last result
// with every repetition's wall time: at least three repetitions, more
// while they add up to under a second (set-up of the small workloads
// takes milliseconds, and one sample of that is mostly noise); one in a
// smoke or fill run. Each repetition's result is released (release may
// be nil) and returned to the OS before the next one starts, so the
// peak RSS is that of one set-up, however many repetitions ran.
func timedSetup[T any](cfg config, setup func() (T, error), release func(T)) (T, samples, error) {
	var (
		last  T
		have  bool
		times samples
	)
	for len(times) < 1 || !cfg.smoke && !cfg.fill && len(times) < maxSetupReps &&
		(len(times) < 3 || times.sum() < 1) {
		if have && release != nil {
			release(last)
		}
		var zero T
		last, have = zero, false
		debug.FreeOSMemory()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times.add(time.Since(t0))
		last, have = v, true
	}
	runtime.GC()
	return last, times, nil
}

const maxSetupReps = 25

// host records where a result was taken.
type host struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Threads     int     `json:"threads"`
	Connections int     `json:"connections"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	StealPct    float64 `json:"steal_pct"`
}

// cpuTicks reads the machine-wide busy and steal ticks from /proc/stat
// (zeros where it is not available).
func cpuTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		fmt.Sscan(f[i+1], &v[i])
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

func (h host) cores() int { return min(h.NumCPU, h.GOMAXPROCS) }

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
