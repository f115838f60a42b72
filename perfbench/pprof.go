package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cpuBuckets map Go packages onto the repository's layers for the
// cpu.<layer>_s metrics. A CPU sample is charged to the package of its
// leaf frame (flat time, inlined frames resolved to the innermost
// function). Matching is by package path prefix on a path boundary.
var cpuBuckets = []struct {
	layer    string
	packages []string
}{
	{"gpu", []string{"repro/internal/gpu", "repro/internal/workload"}},
	{"noc", []string{"repro/internal/noc"}},
	{"cache", []string{"repro/internal/cache"}},
	// The PIM units are driven by the controller, tick for tick.
	{"memctrl", []string{"repro/internal/memctrl", "repro/internal/pim"}},
	{"sched", []string{"repro/internal/sched", "repro/internal/core"}},
	{"dram", []string{"repro/internal/dram"}},
	{"sim", []string{"repro/internal/sim", "repro/internal/request", "repro/internal/addrmap",
		"repro/internal/stats", "repro/internal/telemetry", "repro/internal/faults", "repro/internal/config"}},
	{"experiments", []string{"repro/internal/experiments"}},
	{"serve", []string{"repro/internal/serve", "repro/internal/journal"}},
	{"http", []string{"net", "encoding/json", "crypto", "bufio", "mime"}},
	// Allocation, garbage collection, maps and scheduling; the write
	// barrier is an assembly function pprof names without its package.
	{"runtime", []string{"runtime", "internal/runtime", "gcWriteBarrier"}},
}

// cpuLayers lists the layer names of cpuBuckets plus "other" and "total".
func cpuLayers() []string {
	var out []string
	for _, b := range cpuBuckets {
		out = append(out, b.layer)
	}
	return append(out, "other", "total")
}

// funcPackage extracts the import path from a fully qualified Go
// function name such as "repro/internal/memctrl.(*Controller).Tick".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation brackets hold dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package path to its cpuBuckets layer, or "other".
func layerOf(pkg string) string {
	for _, b := range cpuBuckets {
		for _, p := range b.packages {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return b.layer
			}
		}
	}
	return "other"
}

// cpuByLayer reads a CPU profile written by runtime/pprof with the Go
// toolchain's own reader (`go tool pprof -top`, flat time per function,
// inlined frames resolved to the innermost function, nothing dropped) and
// returns CPU seconds per layer (keys of cpuLayers) and per package.
func cpuByLayer(path string) (layers, packages map[string]float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof %s: %w: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	layers = map[string]float64{}
	for _, l := range cpuLayers() {
		layers[l] = 0
	}
	packages = map[string]float64{}
	for fn, ns := range flat {
		pkg := funcPackage(fn)
		packages[pkg] += ns
		layers[layerOf(pkg)] += ns
		layers["total"] += ns
	}
	for _, m := range []map[string]float64{layers, packages} {
		for k, ns := range m {
			m[k] = ns / 1e9
		}
	}
	return layers, packages, nil
}

// parseTop reads the table `go tool pprof -top -unit=ns` prints and
// returns each function's flat CPU nanoseconds. A row is
// "flat flat% sum% cum cum% name", the name possibly followed by
// " (inline)".
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	header := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if !header {
			header = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("flat time in %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		flat[name] += ns
	}
	if !header {
		return nil, errors.New("no table in the output")
	}
	return flat, nil
}

// topPackages returns the n packages with the most CPU time, largest
// first.
func topPackages(packages map[string]float64, n int) []string {
	names := make([]string, 0, len(packages))
	for k := range packages {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if packages[names[i]] != packages[names[j]] {
			return packages[names[i]] > packages[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}
