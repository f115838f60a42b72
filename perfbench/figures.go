package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/config"
)

// The figures mode remakes the README's reference figures anew:
// wall_s of one round per engine on both simulator workloads, measured
// in alternating pairs, and the CPU seconds each layer and package takes
// in one profiled round per workload and engine.

const (
	figuresBegin = "<!-- figures:begin (written by `bash perfbench/run.sh figures --write perfbench/README.md`) -->"
	figuresEnd   = "<!-- figures:end -->"
)

var engines = []config.Engine{config.EngineEvent, config.EngineTick}

// figurePairs is how many alternating event/tick pairs each simulator
// workload runs.
const figurePairs = 5

// simRound runs one round of a simulator workload on an engine.
func simRound(wl string, o options) (round, error) {
	cfg := workloadConfig(o)
	rs, err := measure(0, func(int) (round, error) {
		if wl == "sweep-saturated" {
			rd, _ := sweepRound(cfg, nil)
			return rd, nil
		}
		rd, _ := aloneRound(cfg, aloneOps(cfg), nil)
		return rd, nil
	})
	if err != nil {
		return round{}, err
	}
	if rs[0].failed > 0 {
		return round{}, fmt.Errorf("%s on %s: %d operations failed", wl, cfg.Engine, rs[0].failed)
	}
	return rs[0], nil
}

func figuresMain(args []string) int {
	fs := flag.NewFlagSet("perfbench figures", flag.ContinueOnError)
	write := fs.String("write", "", "README to rewrite between the figures markers (default: print)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: 1}
	if err := checkParallel(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench figures:", err)
		return 2
	}
	text, err := figures(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench figures:", err)
		return 1
	}
	if *write == "" {
		fmt.Print(text)
		return 0
	}
	if err := replaceBetween(*write, text); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench figures:", err)
		return 1
	}
	return 0
}

func figures(o options) (string, error) {
	var b bytes.Buffer
	env := currentEnv(o)
	fmt.Fprintf(&b, "Measured by `bash perfbench/run.sh figures` (seed %d) on %s, %d processors (GOMAXPROCS %d), %s, commit %s, parallel %d.\n\n",
		o.seed, env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, parallel)
	fmt.Fprintf(&b, "Host seconds per round (one whole workload round), %d alternating event/tick pairs:\n\n", figurePairs)
	fmt.Fprintf(&b, "| workload | engine | wall_s median | Q1 | Q3 | tick / event |\n|---|---|---|---|---|---|\n")
	wls := []string{"sweep-saturated", "standalone-sparse"}
	for _, wl := range wls {
		walls := map[config.Engine][]float64{}
		for i := 0; i < figurePairs; i++ {
			order := engines
			if i%2 == 1 {
				order = []config.Engine{config.EngineTick, config.EngineEvent}
			}
			for _, e := range order {
				oe := o
				oe.engine = e
				rd, err := simRound(wl, oe)
				if err != nil {
					return "", err
				}
				walls[e] = append(walls[e], rd.wall.Seconds())
				runtime.GC()
			}
		}
		for _, e := range engines {
			q1, q2, q3 := quartiles(walls[e])
			rel := ""
			if e == config.EngineTick {
				rel = fmt.Sprintf("%.2fx", q2/median(walls[config.EngineEvent]))
			}
			fmt.Fprintf(&b, "| %s | %s | %.3f | %.3f | %.3f | %s |\n", wl, e, q2, q1, q3, rel)
		}
	}

	fmt.Fprintf(&b, "\nCPU seconds by layer in one profiled round (flat: each sample charged to its leaf function's package, see pprof.go for the package-to-layer map):\n\n")
	type profileRun struct {
		name             string
		layers, packages map[string]float64
	}
	var runs []profileRun
	for _, wl := range wls {
		for _, e := range engines {
			oe := o
			oe.engine = e
			oe.workload = wl
			path := filepath.Join(outDir, fmt.Sprintf("figures-%s-%s.pprof", wl, e))
			layers, packages, err := profiled(path, func() error {
				_, err := simRound(wl, oe)
				return err
			})
			if err != nil {
				return "", err
			}
			runs = append(runs, profileRun{wl + " / " + e.String(), layers, packages})
		}
	}
	fmt.Fprintf(&b, "| layer |")
	for _, r := range runs {
		fmt.Fprintf(&b, " %s |", r.name)
	}
	fmt.Fprintf(&b, "\n|---|%s\n", strings.Repeat("---|", len(runs)))
	for _, l := range cpuLayers() {
		fmt.Fprintf(&b, "| %s |", l)
		for _, r := range runs {
			fmt.Fprintf(&b, " %.2f (%.0f%%) |", r.layers[l], 100*r.layers[l]/r.layers["total"])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nThe ten packages with the most CPU time in each profiled round:\n\n")
	for _, r := range runs {
		var parts []string
		for _, p := range topPackages(r.packages, 10) {
			parts = append(parts, fmt.Sprintf("%s %.2f", strings.TrimPrefix(p, "repro/internal/"), r.packages[p]))
		}
		fmt.Fprintf(&b, "- %s: %s\n", r.name, strings.Join(parts, ", "))
	}
	return b.String(), nil
}

// replaceBetween rewrites the part of path between the figures markers.
func replaceBetween(path, text string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s := string(data)
	i, j := strings.Index(s, figuresBegin), strings.Index(s, figuresEnd)
	if i < 0 || j < i {
		return fmt.Errorf("%s: figures markers not found", path)
	}
	s = s[:i+len(figuresBegin)] + "\n" + text + s[j:]
	return os.WriteFile(path, []byte(s), 0o644)
}
