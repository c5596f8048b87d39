package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ehrhart"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/poly"
	"repro/internal/schedsim"
)

// ---------------------------------------------------------------------
// Figure 2 — unbalanced distribution of the correlation iterations among
// threads under schedule(static).
// ---------------------------------------------------------------------

// Fig2Result reports per-thread iteration loads.
type Fig2Result struct {
	N       int64
	Threads int
	Loads   []float64 // inner (i,j) iterations per thread
	Total   float64
}

// Fig2 computes the static per-thread loads for the correlation outer
// loop: thread t gets a contiguous slice of i values, each carrying
// N-1-i inner iterations.
func Fig2(N int64, threads int) Fig2Result {
	work := make([]float64, N-1)
	for i := range work {
		work[i] = float64(N - 1 - int64(i))
	}
	loads := schedsim.StaticLoads(work, threads)
	return Fig2Result{N: N, Threads: threads, Loads: loads, Total: schedsim.Total(work)}
}

// Render formats the result like the paper's figure: one bar per thread.
func (r Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — static distribution of the correlation triangle (N=%d, %d threads)\n",
		r.N, r.Threads)
	for _, line := range schedsim.FormatLoads(r.Loads, 40) {
		fmt.Fprintln(&b, line)
	}
	avg := r.Total / float64(r.Threads)
	fmt.Fprintf(&b, "average %.0f iterations/thread; thread 0 carries %.2fx the average\n",
		avg, r.Loads[0]/avg)
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8 — curves of r(i,0,0) − pc for the tetrahedral nest, showing
// that the symbolic-root structure is identical for every pc (§IV.D).
// ---------------------------------------------------------------------

// Fig8Point is one sample of one curve.
type Fig8Point struct {
	I float64
	Y float64
}

// Fig8Curve is the curve for one pc value.
type Fig8Curve struct {
	PC     int
	Points []Fig8Point
}

// Fig8 samples r(i,0,0) − pc for i in [-2.5, 3] and pc = 1..10, exactly
// like the paper's figure.
func Fig8() []Fig8Curve {
	tetra := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	)
	r := ehrhart.Ranking(tetra)
	// r(i, 0, 0): substitute j = 0, k = 0; N is absent from r for this
	// nest (bounds of the inner loops depend only on i and j).
	ri := r.Subst("j", poly.Int(0)).Subst("k", poly.Int(0))
	var curves []Fig8Curve
	for pc := 1; pc <= 10; pc++ {
		c := Fig8Curve{PC: pc}
		for i := -2.5; i <= 3.0001; i += 0.25 {
			v, err := ri.EvalFloat(map[string]float64{"i": i})
			if err != nil {
				continue
			}
			c.Points = append(c.Points, Fig8Point{I: i, Y: v - float64(pc)})
		}
		curves = append(curves, c)
	}
	return curves
}

// RenderFig8 prints the curves as aligned columns (i, then one column
// per pc).
func RenderFig8(curves []Fig8Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — r(i,0,0) - pc for the tetrahedral nest\n")
	fmt.Fprintf(&b, "%8s", "i")
	for _, c := range curves {
		fmt.Fprintf(&b, " pc=%-5d", c.PC)
	}
	fmt.Fprintln(&b)
	if len(curves) == 0 {
		return b.String()
	}
	for pi := range curves[0].Points {
		fmt.Fprintf(&b, "%8.2f", curves[0].Points[pi].I)
		for _, c := range curves {
			fmt.Fprintf(&b, " %8.3f", c.Points[pi].Y)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 9 — gains of collapsing vs outer-static and outer-dynamic.
// ---------------------------------------------------------------------

// Fig9Row is one kernel's entry.
type Fig9Row struct {
	Kernel string
	// Simulated makespans for Threads virtual threads (seconds).
	SerialSec, StaticSec, DynamicSec, CollapsedSec float64
	// Gains as defined in §VII: (without - with) / without.
	GainVsStatic, GainVsDynamic float64
	// Real wall-clock seconds of the goroutine runtime (only populated
	// in Real mode).
	RealStaticSec, RealDynamicSec, RealCollapsedSec float64
}

// Fig9Options configure the experiment.
type Fig9Options struct {
	Threads int  // simulated thread count; paper uses 12
	Quick   bool // use small test sizes (CI) instead of bench sizes
	Real    bool // additionally run the goroutine runtime and record wall times
	Verbose func(format string, args ...interface{})
}

func (o *Fig9Options) fill() {
	if o.Threads <= 0 {
		o.Threads = 12
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// Fig9 runs the gain experiment for every kernel.
func Fig9(opts Fig9Options) ([]Fig9Row, error) {
	opts.fill()
	var rows []Fig9Row
	for _, k := range kernels.All() {
		row, err := fig9Kernel(k, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig9Kernel(k *kernels.Kernel, opts Fig9Options) (Fig9Row, error) {
	row := Fig9Row{Kernel: k.Name}
	p := k.BenchParams
	if opts.Quick {
		p = k.TestParams
	}
	inst := k.New(p)
	res, err := buildResult(k)
	if err != nil {
		return row, err
	}
	nestParams := k.NestParams(p)

	// 1. Serial reference and per-work-unit cost, timed together with
	// the serial §V run of step 3 (see there). Short-running kernels are
	// repeated until ~25 ms accumulate (the per-run value is the
	// average), the two runs alternate so that both see the same machine
	// load, and each is best-of-5, to tame shared-machine noise.
	// Repetition runs without Reset — every kernel's body is
	// timing-idempotent (same operation count on every run).
	P := opts.Threads
	b, err := res.Unranker.Bind(nestParams)
	if err != nil {
		return row, err
	}
	total := b.Total()
	var collErr error
	times := measureRepeated(inst, func() { kernels.RunSeq(inst) }, func() {
		if err := kernels.RunCollapsedSerialChunks(k, inst, res, p, P); err != nil && collErr == nil {
			collErr = err
		}
	})
	if collErr != nil {
		return row, collErr
	}
	serial, collapsedSerial := times[0], times[1]
	row.SerialSec = serial
	lo, hi := inst.OuterRange()
	outerWork := make([]float64, hi-lo)
	var totalUnits float64
	for i := lo; i < hi; i++ {
		outerWork[i-lo] = inst.WorkPerOuter(i)
		totalUnits += outerWork[i-lo]
	}
	perUnit := serial / totalUnits
	for i := range outerWork {
		outerWork[i] *= perUnit
	}

	// 2. Calibrated overheads.
	cal, err := Calibrate(res, nestParams)
	if err != nil {
		return row, err
	}
	opts.Verbose("%s: serial %.3fs, unit %.2fns, dequeue %.1fns, recovery %.0fns, increment %.1fns",
		k.Name, serial, perUnit*1e9, cal.Dequeue*1e9, cal.Recovery*1e9, cal.Increment*1e9)

	// 3. Simulated makespans for the three Fig. 9 configurations.
	row.StaticSec = schedsim.Static(outerWork, P, 0)
	row.DynamicSec = schedsim.Dynamic(outerWork, P, 1, cal.Dequeue)

	// Collapsed static: ground the per-iteration cost of the transformed
	// program in a measured serial execution of the §V scheme itself
	// (recover once per chunk, fused body+increment) — the same run the
	// paper uses for its Fig. 10 overhead protocol. The simulated
	// makespan then distributes that measured work over P threads, with
	// one recovery per thread chunk.
	bodyTime := collapsedSerial - float64(P)*cal.Recovery
	if bodyTime < 0 {
		bodyTime = collapsedSerial
	}
	if kernelHasUniformCollapsedWork(k) {
		w := bodyTime / float64(total)
		row.CollapsedSec = schedsim.UniformStatic(total, w, P, cal.Recovery)
	} else {
		// Distribute the measured time over tuples proportionally to the
		// exact work model, then simulate the static split.
		var collUnits float64
		collWork := make([]float64, 0, total)
		b.Instance().Enumerate(func(idx []int64) bool {
			wu := inst.WorkPerCollapsed(idx)
			collUnits += wu
			collWork = append(collWork, wu)
			return true
		})
		scale := bodyTime / collUnits
		for i := range collWork {
			collWork[i] *= scale
		}
		row.CollapsedSec = schedsim.Static(collWork, P, cal.Recovery)
	}
	row.GainVsStatic = schedsim.Gain(row.StaticSec, row.CollapsedSec)
	row.GainVsDynamic = schedsim.Gain(row.DynamicSec, row.CollapsedSec)

	// 4. Optional real goroutine runs.
	if opts.Real {
		inst.Reset()
		start := time.Now()
		kernels.RunOuterParallel(inst, P, omp.Schedule{Kind: omp.Static})
		row.RealStaticSec = time.Since(start).Seconds()
		inst.Reset()
		start = time.Now()
		kernels.RunOuterParallel(inst, P, omp.Schedule{Kind: omp.Dynamic})
		row.RealDynamicSec = time.Since(start).Seconds()
		inst.Reset()
		start = time.Now()
		if err := kernels.RunCollapsedParallel(k, inst, res, p, P, omp.Schedule{Kind: omp.Static}); err != nil {
			return row, err
		}
		row.RealCollapsedSec = time.Since(start).Seconds()
	}
	return row, nil
}

// measureRepeated times each of fs (after one Reset of inst), repeating
// short runs until about 25 ms accumulate, and returns the best-of-5
// per-run seconds of each. The attempts alternate between the fs, so
// runs that are compared with each other see the same machine load.
func measureRepeated(inst kernels.Instance, fs ...func()) []float64 {
	inst.Reset()
	best := make([]float64, len(fs))
	reps := make([]int, len(fs))
	for i := range fs {
		best[i], reps[i] = -1, 1
	}
	for attempt := 0; attempt < 5; attempt++ {
		for i, f := range fs {
			start := time.Now()
			for r := 0; r < reps[i]; r++ {
				f()
			}
			sec := time.Since(start).Seconds() / float64(reps[i])
			if best[i] < 0 || sec < best[i] {
				best[i] = sec
			}
			if tot := sec * float64(reps[i]); tot < 0.025 {
				grow := int(0.025/tot) + 1
				if grow > 32 {
					grow = 32
				}
				reps[i] *= grow
			}
		}
	}
	return best
}

// kernelHasUniformCollapsedWork reports whether every collapsed
// iteration performs identical work (so the simulator can use the closed
// form instead of enumerating millions of tuples).
func kernelHasUniformCollapsedWork(k *kernels.Kernel) bool {
	switch k.Name {
	case "ltmp", "correlation_tiled", "covariance_tiled":
		return false
	}
	return true
}

// RenderFig9 prints the rows as the paper's two bar groups.
func RenderFig9(rows []Fig9Row, threads int, real bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — gains from collapsing non-rectangular loops (%d threads, simulated makespans)\n", threads)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %10s %13s %14s\n",
		"kernel", "serial(s)", "static(s)", "dynamic(s)", "collapsed(s)", "gain vs stat", "gain vs dyn")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.4f %10.4f %10.4f %10.4f %13.3f %14.3f\n",
			r.Kernel, r.SerialSec, r.StaticSec, r.DynamicSec, r.CollapsedSec,
			r.GainVsStatic, r.GainVsDynamic)
	}
	if real {
		fmt.Fprintf(&b, "\nreal goroutine wall times (GOMAXPROCS-bound; equals makespans only with >= %d cores)\n", threads)
		fmt.Fprintf(&b, "%-18s %12s %12s %12s\n", "kernel", "static(s)", "dynamic(s)", "collapsed(s)")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-18s %12.4f %12.4f %12.4f\n",
				r.Kernel, r.RealStaticSec, r.RealDynamicSec, r.RealCollapsedSec)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 10 — control overhead of 12 root evaluations, measured on
// serial runs (the paper's exact protocol).
// ---------------------------------------------------------------------

// Fig10Row is one kernel's overhead entry.
type Fig10Row struct {
	Kernel       string
	AllCollapsed bool
	SerialSec    float64
	CollapsedSec float64
	OverheadPct  float64
}

// Fig10Options configure the overhead experiment.
type Fig10Options struct {
	Chunks int  // number of serial chunks, each with one recovery; paper uses 12
	Quick  bool // use small test sizes
	Reps   int  // timing repetitions; best-of is reported (default 3)
}

func (o *Fig10Options) fill() {
	if o.Chunks <= 0 {
		o.Chunks = 12
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
}

// Fig10 measures serial original vs serial collapsed (with Chunks
// recoveries) for every kernel, plus the fully collapsed covariance and
// symm variants the paper calls out.
func Fig10(opts Fig10Options) ([]Fig10Row, error) {
	opts.fill()
	list := kernels.All()
	list = append(list, kernels.CovarianceFull, kernels.SymmFull)
	var rows []Fig10Row
	for _, k := range list {
		row, err := fig10Kernel(k, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig10Kernel(k *kernels.Kernel, opts Fig10Options) (Fig10Row, error) {
	p := k.BenchParams
	if opts.Quick {
		p = k.TestParams
	}
	inst := k.New(p)
	// "All loops collapsed" in the paper's sense: the recovery control
	// runs at the innermost statement rate (one work unit per collapsed
	// iteration), which is where Fig. 10 shows the largest overheads.
	row := Fig10Row{
		Kernel: k.Name,
		AllCollapsed: k.Collapse == k.Nest.Depth() &&
			inst.WorkPerCollapsed(make([]int64, k.Collapse)) == 1,
	}
	res, err := buildResult(k)
	if err != nil {
		return row, err
	}
	best := func(f func() error) (float64, error) {
		bestSec := -1.0
		for r := 0; r < opts.Reps; r++ {
			inst.Reset()
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if s := time.Since(start).Seconds(); bestSec < 0 || s < bestSec {
				bestSec = s
			}
		}
		return bestSec, nil
	}
	if row.SerialSec, err = best(func() error { kernels.RunSeq(inst); return nil }); err != nil {
		return row, err
	}
	if row.CollapsedSec, err = best(func() error {
		return kernels.RunCollapsedSerialChunks(k, inst, res, p, opts.Chunks)
	}); err != nil {
		return row, err
	}
	row.OverheadPct = (row.CollapsedSec - row.SerialSec) / row.SerialSec * 100
	return row, nil
}

// RenderFig10 prints the overhead table.
func RenderFig10(rows []Fig10Row, chunks int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — control overhead of %d root evaluations (serial runs)\n", chunks)
	fmt.Fprintf(&b, "%-18s %12s %14s %12s %s\n", "kernel", "serial(s)", "collapsed(s)", "overhead(%)", "")
	for _, r := range rows {
		note := ""
		if r.AllCollapsed {
			note = "(all loops collapsed)"
		}
		fmt.Fprintf(&b, "%-18s %12.4f %14.4f %12.2f %s\n",
			r.Kernel, r.SerialSec, r.CollapsedSec, r.OverheadPct, note)
	}
	return b.String()
}
