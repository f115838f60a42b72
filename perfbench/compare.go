package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json's workloads and metrics.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns loads the untraced result files of dir, grouped by workload
// and ordered by seed, then by file name.
func readRuns(dir string) (map[string][]*resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	runs := map[string][]*resultFile{}
	for _, p := range paths {
		rf, err := readResult(p)
		if err != nil {
			return nil, err
		}
		if !rf.Trace {
			runs[rf.Workload] = append(runs[rf.Workload], rf)
		}
	}
	for _, rs := range runs {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return runs, nil
}

// pairRuns matches parent and change runs of one workload by seed, in
// order, so each pair ran the same inputs.
func pairRuns(parent, change []*resultFile) (p, c []*resultFile) {
	used := make([]bool, len(change))
	for _, pr := range parent {
		for i, cr := range change {
			if !used[i] && cr.Seed == pr.Seed {
				used[i] = true
				p, c = append(p, pr), append(c, cr)
				break
			}
		}
	}
	return p, c
}

// compareMain compares the result files of two directories against the
// bounds of the BENCHMARK.json in the working directory.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_PARENT DIR_CHANGE")
		return 2
	}
	s, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := readRuns(args[0])
	if err == nil {
		var change map[string][]*resultFile
		change, err = readRuns(args[1])
		if err == nil {
			return compare(os.Stdout, s, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

// compare prints one row per workload x end-to-end metric and returns 1
// when any row regressed, any run failed its checks, or the share of
// failed operations differs between the sides.
func compare(w io.Writer, s *benchSpec, parent, change map[string][]*resultFile) int {
	code := 0
	fmt.Fprintf(w, "| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] | change wins | worse by | spread | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range s.Workloads {
		p, c := pairRuns(parent[wl.Name], change[wl.Name])
		if len(p) == 0 {
			fmt.Fprintf(w, "| %s | | no paired runs | | | | | | |\n", wl.Name)
			continue
		}
		for _, side := range [][]*resultFile{p, c} {
			for _, r := range side {
				if !r.Report.Correct {
					fmt.Fprintf(w, "| %s | | seed %d failed its checks: %s | | | | | | |\n",
						wl.Name, r.Seed, strings.Join(r.Report.Problems, "; "))
					code = 1
				}
			}
		}
		if fp, fc := failedShare(p), failedShare(c); fp != fc {
			fmt.Fprintf(w, "| %s | failed share | %.6f | %.6f | | | | | differs |\n", wl.Name, fp, fc)
			code = 1
		}
		for _, m := range s.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			j := judge(pv, cv, m.Better, m.Bound)
			fmt.Fprintf(w, "| %s | %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %d/%d | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, j.ParentQ[1], j.ParentQ[0], j.ParentQ[2], j.ChangeQ[1], j.ChangeQ[0], j.ChangeQ[2],
				int(j.Win*float64(len(p))+0.5), len(p), 100*j.Worse, 100*j.Spread, 100*m.Bound, j.Verdict)
			if j.Verdict == verdictRegressed {
				code = 1
			}
		}
	}
	return code
}

func values(runs []*resultFile, name string) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r.Report.Metrics[name].Value)
	}
	return out
}

func failedShare(runs []*resultFile) float64 {
	var a, f int
	for _, r := range runs {
		a += r.Report.Attempted
		f += r.Report.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
