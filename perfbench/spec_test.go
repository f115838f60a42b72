package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json and the metrics this program prints must name the same
// metrics, units and directions, and the same workloads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloadFuncs))
	}
	if len(s.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEndMetrics))
	}
	maxBound := 0.0
	for i, m := range s.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(s.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayerMetrics))
	}
	for i, m := range s.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// The serve schedule is a function of the seed alone, has the sizes the
// reported percentiles need, and keeps hot and cold requests apart.
func TestServeSchedule(t *testing.T) {
	a, err := newServeSchedule(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServeSchedule(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.canon) != serveHot+serveCold || len(a.cold) != serveCold {
		t.Fatalf("%d digests, %d cold; want %d, %d", len(a.canon), len(a.cold), serveHot+serveCold, serveCold)
	}
	n := len(a.warm)
	for _, c := range a.clients {
		n += len(c)
	}
	if n != serveHot+serveCold+serveHotRequests {
		t.Errorf("%d requests, want %d", n, serveHot+serveCold+serveHotRequests)
	}
	hot := map[string]bool{}
	for _, it := range a.warm {
		hot[it.digest] = true
	}
	for c := range a.clients {
		for i, it := range a.clients[c] {
			if !bytes.Equal(it.body, b.clients[c][i].body) {
				t.Fatalf("seed 7 gave two schedules (client %d, request %d)", c, i)
			}
			if _, ok := a.canon[it.digest]; !ok {
				t.Errorf("request %s has no canonical form", it.body)
			}
			if !it.hot && hot[it.digest] {
				t.Errorf("cold request %s repeats a hot digest", it.body)
			}
			if it.hot && !hot[it.digest] {
				t.Errorf("hot request %s is not in the hot set", it.body)
			}
		}
	}
	if tailPerMille(serveHotRequests) < 990 || tailPerMille(serveCold) < 950 {
		t.Errorf("%d hits / %d cold requests cannot support p99 / p95", serveHotRequests, serveCold)
	}
	other, err := newServeSchedule(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if digests(a) == digests(other) {
		t.Error("seeds 7 and 8 gave the same digests")
	}
}

func digests(s *serveSchedule) string {
	var out []string
	for k := range s.canon {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func runOf(seed uint64, failed int, vals map[string]float64) *resultFile {
	r := newReport()
	r.Attempted, r.Failed = 100, failed
	for k, v := range vals {
		r.Metrics[k] = metric{Value: v}
	}
	return &resultFile{Workload: "w", Seed: seed, Report: r}
}

func TestCompareVerdictsAndExitCode(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	var parent, same, slower, moreFailures []*resultFile
	for i, v := range []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10.05} {
		seed := uint64(i + 1)
		parent = append(parent, runOf(seed, 0, map[string]float64{"wall_s": v}))
		same = append(same, runOf(seed, 0, map[string]float64{"wall_s": v * 1.01}))
		slower = append(slower, runOf(seed, 0, map[string]float64{"wall_s": v * 1.3}))
		moreFailures = append(moreFailures, runOf(seed, 1, map[string]float64{"wall_s": v}))
	}
	cases := []struct {
		change []*resultFile
		code   int
		want   string
	}{
		{same, 0, verdictNoWorse},
		{slower, 1, verdictRegressed},
		{moreFailures, 1, "differs"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := compare(&out, spec, map[string][]*resultFile{"w": parent}, map[string][]*resultFile{"w": c.change})
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("compare: exit %d, want %d, and %q in:\n%s", code, c.code, c.want, out.String())
		}
	}
}
