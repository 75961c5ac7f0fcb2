package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// loadResults reads a result set: a results.json, which holds several
// timed runs of a workload when it was made with -runs.
func loadResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// series collects the timed runs' values per workload and metric.
func series(rs []result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// spread is the inter-quartile distance as a share of the median, the
// figure the driver holds against a bound. Fewer than four values have
// no quartiles; their spread reads 0.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := samples(v).sorted()
	// statistics.quantiles(v, n=4) of Python, exclusive method.
	q := func(k int) float64 {
		pos := float64(k)*float64(len(s)+1)/4 - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(len(s)-1) {
			pos = float64(len(s) - 1)
		}
		lo := int(pos)
		hi := lo + 1
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return ratio(q(3)-q(1), s.quantile(0.5))
}

// verdict compares set b with set a on one metric: "regressed" when
// b's median is worse than a's by more than bound, "unresolved" when
// either set's own spread is wider than the bound (the comparison
// cannot tell a change from noise), otherwise "agree".
func verdict(def metricDef, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if def.Better == "higher" {
		worse = -worse
	}
	sp := spread(a)
	if s := spread(b); s > sp {
		sp = s
	}
	switch {
	case worse > def.Bound:
		return "regressed", worse, sp
	case sp > def.Bound:
		return "unresolved", worse, sp
	}
	return "agree", worse, sp
}

// compareFiles prints the verdict for every (workload, end-to-end
// metric) of two result sets and returns 1 if any regressed.
func compareFiles(specPath, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench: -compare:", err)
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fail(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", specPath, err))
	}
	ra, err := loadResults(pathA)
	if err != nil {
		return fail(err)
	}
	rb, err := loadResults(pathB)
	if err != nil {
		return fail(err)
	}
	sa, sb := series(ra), series(rb)
	var names []string
	for w := range sa {
		if sb[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	code := 0
	for _, w := range names {
		for _, def := range spec.EndToEnd {
			a, b := sa[w][def.Name], sb[w][def.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, sp := verdict(def, a, b)
			fmt.Printf("%-17s %-22s %-10s a=%-12.6g b=%-12.6g worse=%+.1f%% spread=%.1f%% bound=%.0f%% runs=%d/%d\n",
				w, def.Name, v, median(a), median(b), 100*worse, 100*sp, 100*def.Bound, len(a), len(b))
			if v == "regressed" {
				code = 1
			}
		}
	}
	return code
}
