package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// deterministic lists the per-layer counts that must repeat exactly
// from run to run under a fixed seed.
var deterministic = []string{
	"unrank.float64_ok_ratio",
	"unrank.prec128_per_op",
	"unrank.prec256_per_op",
	"unrank.search_per_op",
	"unrank.table_per_op",
	"unrank.corrections_per_op",
	"core.cache_hit_ratio",
	"core.cache_evictions",
}

// runSmoke runs every workload twice at tiny sizes, traced and
// untraced, checks every answer, checks that the traced runs measure
// every per-layer metric, and checks that the deterministic counts
// repeat exactly.
func runSmoke(cfg config) error {
	cfg.smoke = true
	cfg.seconds = 0.5
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	seen := map[string]float64{}
	layers := map[string]float64{}
	for _, w := range names {
		for rep := 0; rep < 2; rep++ {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.trace = traced
				r, err := workloads[w](c)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				r.peakRSS = peakRSSMB()
				if r.failed != 0 || r.attempted == 0 {
					return fmt.Errorf("%s: %d of %d operations failed", w, r.failed, r.attempted)
				}
				e2e := endToEnd(r)
				for _, s := range endToEndSpecs {
					if v := e2e[s.name]; !(v > 0) {
						return fmt.Errorf("%s: end-to-end %s = %v", w, s.name, v)
					}
				}
				for k, v := range r.layer {
					if o := ownerOf(k); o == "" || o == w {
						layers[k] = v
					}
				}
				for _, k := range deterministic {
					v, ok := r.layer[k]
					if !ok || ownerOf(k) != w {
						continue
					}
					if prev, ok := seen[k]; ok && prev != v {
						return fmt.Errorf("%s: %s changed between runs with one seed: %v then %v", w, k, prev, v)
					}
					seen[k] = v
				}
				fmt.Printf("smoke %-14s rep %d traced %-5v: %d operations, all correct\n", w, rep, traced, r.attempted)
			}
		}
	}
	// Smoke sizes name their own size classes: a metric of a size class
	// is measured when the same metric is, for some class.
	families := map[string]bool{}
	for k, v := range layers {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			families[sizeFamily(k)] = true
		}
	}
	for _, s := range perLayer {
		if !families[sizeFamily(s.name)] {
			return fmt.Errorf("per-layer %s was not measured", s.name)
		}
	}
	fmt.Println("smoke: ok")
	return nil
}

// sizeFamily strips a size-class suffix (".n1000") from a metric name.
func sizeFamily(name string) string {
	i := strings.LastIndex(name, ".n")
	if i < 0 || i+2 == len(name) || strings.Trim(name[i+2:], "0123456789") != "" {
		return name
	}
	return name[:i]
}
