package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.3, 9.7, 10.4, 10.0}, 9.875, 10.05, 10.325},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // the exclusive method extrapolates
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 5.5/5.5) {
		t.Errorf("relSpread = %v, want 1", s)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it, and the median alone under forty samples.
func TestTailPercentileChoice(t *testing.T) {
	cases := []struct{ n, pm int }{
		{1, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	}
	for _, c := range cases {
		if got := tailPerMille(c.n); got != c.pm {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.pm)
		}
		if c.n >= 40 {
			if beyond := c.n - rankOf(c.pm, c.n); beyond < 10 {
				t.Errorf("n=%d p%.1f leaves %d samples beyond", c.n, float64(c.pm)/10, beyond)
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if p := percentile(xs, 990); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(xs, 500); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
}

func TestWinFraction(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	if w := winFraction(parent, []float64{9, 10, 11, 8}, "lower"); w != 0.5 {
		t.Errorf("lower: win = %v, want 0.5 (a tie counts for neither)", w)
	}
	if w := winFraction(parent, []float64{9, 10, 11, 8}, "higher"); w != 0.25 {
		t.Errorf("higher: win = %v, want 0.25", w)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	steady := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	noisy := []float64{5, 15, 10, 8, 12, 6, 14, 9, 11, 10}
	eightOfTen := scaled(steady, 0.8)
	eightOfTen[3], eightOfTen[7] = 10.5, 10.5 // the change loses two pairs
	cases := []struct {
		name           string
		parent, change []float64
		dir            string
		want           string
	}{
		{"20% faster in every pair", steady, scaled(steady, 0.8), "lower", verdictImproved},
		{"20% more throughput in every pair", steady, scaled(steady, 1.2), "higher", verdictImproved},
		{"20% slower", steady, scaled(steady, 1.2), "lower", verdictRegressed},
		{"2% slower, within the bound", steady, scaled(steady, 1.02), "lower", verdictNoWorse},
		{"gain in 8 of 10 pairs is no gain", steady, eightOfTen, "lower", verdictNoWorse},
		{"spread wider than the bound", noisy, []float64{10, 9, 12, 11, 8, 14, 6, 15, 5, 10}, "lower", verdictUnresolved},
		{"noisy but every change run better", noisy, scaled(noisy, 0.1), "lower", verdictImproved},
		{"noisy and every change run worse", noisy, scaled(noisy, 10), "lower", verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.dir, 0.1); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	if got := judge(steady[:9], scaled(steady[:9], 0.8), "lower", 0.1); got.Verdict != verdictNoWorse {
		t.Errorf("gain over nine pairs: verdict %q, want %q", got.Verdict, verdictNoWorse)
	}
	// The median gap must exceed the parent's interquartile distance:
	// a 1% gain won in every pair but smaller than the parent's spread
	// does not count.
	wide := []float64{9, 11, 9.5, 10.5, 10, 9.2, 10.8, 9.8, 10.2, 10}
	if got := judge(wide, scaled(wide, 0.99), "lower", 0.2); got.Verdict != verdictNoWorse {
		t.Errorf("1%% gain inside the parent's spread: verdict %q, want %q", got.Verdict, verdictNoWorse)
	}
}

func TestFuncPackageAndLayer(t *testing.T) {
	cases := []struct{ fn, pkg, layer string }{
		{"repro/internal/memctrl.(*Controller).Tick", "repro/internal/memctrl", "memctrl"},
		{"repro/internal/sim.(*System).stepEvent", "repro/internal/sim", "sim"},
		{"repro/internal/serve/store.(*Store).Put", "repro/internal/serve/store", "serve"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"gcWriteBarrier", "gcWriteBarrier", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps", "runtime"},
		{"net/http.(*conn).serve", "net/http", "http"},
		{"crypto/internal/fips140/sha256.blockAMD64", "crypto/internal/fips140/sha256", "http"},
		{"repro/internal/x.F[go.shape.struct { a/b.c }]", "repro/internal/x", "other"},
		{"repro/internal/simulator.Run", "repro/internal/simulator", "other"},
		{"main.main", "main", "other"},
	}
	for _, c := range cases {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.pkg); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.pkg, got, c.layer)
		}
	}
}

// The flat column of `go tool pprof -top -unit=ns` is read per function;
// "(inline)" marks are dropped and a function's rows add up.
func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 470000000ns, 100% of 470000000ns total
      flat  flat%   sum%        cum   cum%
290000000ns 61.70% 61.70% 290000000ns 61.70%  runtime.nanotime (inline)
50000000ns 10.64% 72.34% 450000000ns 95.74%  repro/internal/x.F[go.shape.struct { a int }]
         0     0%   100% 450000000ns 95.74%  testing.tRunner
`)
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime.nanotime": 290e6, "repro/internal/x.F[go.shape.struct { a int }]": 50e6, "testing.tRunner": 0}
	if len(flat) != len(want) {
		t.Fatalf("parseTop = %v, want %v", flat, want)
	}
	for fn, ns := range want {
		if !near(flat[fn], ns) {
			t.Errorf("%s: %v ns, want %v", fn, flat[fn], ns)
		}
	}
	if _, err := parseTop([]byte("no profile here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// A real runtime/pprof CPU profile, read through go tool pprof, charges
// its time to the busy function's package.
func TestCPUByLayer(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	layers, packages, err := profiled(path, func() error {
		spin(300 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if layers["total"] <= 0 {
		t.Fatalf("no CPU time read: %v", layers)
	}
	// The test binary names this package by its import path.
	if mine := packages["repro/perfbench"]; mine < layers["total"]/2 {
		t.Errorf("busy loop got %.2fs of %.2fs: %v", mine, layers["total"], packages)
	}
}
