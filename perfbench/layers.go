package main

import (
	"fmt"
	"time"

	"repro/internal/ehrhart"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// perLayer lists the traced run's metrics. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"ehrhart.ranking_ms_p50", "ms"},
		{"ehrhart.ranking_ms_p99", "ms"},
		{"unrank.new_ms_p50", "ms"},
		{"unrank.new_ms_p99", "ms"},
		{"unrank.bind_us", "us"},
		{"unrank.recover_us_p50.n100", "us"},
		{"unrank.recover_us_p99.n100", "us"},
		{"unrank.recover_us_p50.n250", "us"},
		{"unrank.recover_us_p99.n250", "us"},
		{"unrank.recover_us_p50.n1000", "us"},
		{"unrank.recover_us_p99.n1000", "us"},
		{"unrank.float64_ok_ratio", "ratio"},
		{"unrank.prec128_per_op", "count"},
		{"unrank.prec256_per_op", "count"},
		{"unrank.search_per_op", "count"},
		{"unrank.table_per_op", "count"},
		{"unrank.corrections_per_op", "count"},
		{"unrank.alloc_bytes_per_op", "B"},
		{"unrank.increment_ns", "ns"},
		{"omp.overhead_ratio", "ratio"},
		{"omp.imbalance", "ratio"},
		{"omp.recoveries_per_job", "count"},
		{"omp.recover_dequeue_pct", "%"},
		{"core.increment_pct", "%"},
		{"kernels.busy_pct", "%"},
		{"kernels.seq_ms", "ms"},
		{"kernels.outer_static_ms", "ms"},
		{"kernels.gain_vs_outer_static", "ratio"},
		{"autotune.plan_ms", "ms"},
		{"autotune.plan_hit_ratio", "ratio"},
		{"autotune.auto_vs_static", "ratio"},
		{"cparse.parse_us", "us"},
		{"core.collapse_cold_ms", "ms"},
		{"core.collapse_cold_ms_p99", "ms"},
		{"core.cached_collapse_us", "us"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.cache_evictions", "count"},
		{"serve.compile_p50_ms", "ms"},
		{"serve.count_p50_ms", "ms"},
		{"serve.rank_p50_ms", "ms"},
		{"serve.unrank_p50_ms", "ms"},
		{"serve.codegen_p50_ms", "ms"},
		{"serve.execute_p50_ms", "ms"},
		{"serve.http_overhead_ms", "ms"},
		{"serve.shed_ratio", "ratio"},
		{"serve.send_wait_ms_p99", "ms"},
		{"bench.gen_late_ms_p99", "ms"},
		{"codegen.emit_us", "us"},
		{"trace.fig9.overhead_pct", "%"},
		{"trace.fig9.coverage_err_pct", "%"},
		{"trace.cubic-recover.overhead_pct", "%"},
		{"trace.cubic-recover.coverage_err_pct", "%"},
	}
	for _, k := range kernels.All() {
		for _, s := range []string{"static", "auto"} {
			specs = append(specs, metricSpec{"omp.job_ms." + k.Name + "." + s, "ms"})
		}
	}
	return specs
}()

// compileSpans times the two compile layers on the collapsed sub-nest
// of n: the Ehrhart ranking polynomial alone, then unrank.New (ranking,
// radical roots, root selection and compilation).
func compileSpans(n *nest.Nest, c int) (rankingMs, newMs float64, err error) {
	sub, err := nest.New(n.Params, n.Loops[:c]...)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	_ = ehrhart.Ranking(sub)
	t1 := time.Now()
	if _, err := unrank.New(sub, unrank.Options{}); err != nil {
		// Degree > 4: no radical roots; the table mode is what compiles.
		if _, err = unrank.New(sub, unrank.Options{Mode: unrank.ModeTable}); err != nil {
			return 0, 0, fmt.Errorf("unrank.New: %w", err)
		}
	}
	t2 := time.Now()
	return t1.Sub(t0).Seconds() * 1e3, t2.Sub(t1).Seconds() * 1e3, nil
}
