// Command perfbench is the repository's benchmark: it runs one workload
// against the program's public entry points (experiments.Runner,
// sim.New/System.Run, and pimserve behind a loopback HTTP listener),
// checks the outputs, and prints one JSON result line:
//
//	perfbench --workload sweep-saturated --seed 1 --seconds 20 --trace 0
//	perfbench compare DIR_PARENT DIR_CHANGE
//	perfbench figures [--write perfbench/README.md]
//
// With --trace 0 the result holds the end-to-end metrics, with --trace 1
// the per-layer metrics of a separate traced run. README.md gives the
// workloads, metrics and reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "figures":
			os.Exit(figuresMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	engine   config.Engine
	out      string // result file; "" picks one under outDir/results
}

// outDir holds profiles, spans, stores and result files; run.sh builds
// the benchmark beside them.
const outDir = ".bench_build/perfbench"

// parallel is how many simulations, server workers and client
// connections a workload runs at once.
const parallel = 2

// workloadFuncs run one workload end to end (trace off) or traced.
var workloadFuncs = map[string]func(o options) (*report, error){
	"sweep-saturated":   runSweep,
	"standalone-sparse": runStandalone,
	"serve-mixed":       runServe,
}

// metricDef names one metric with its unit and better direction.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_req_per_s", "req/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
}

// perLayerMetrics come from the traced run. A metric of a layer the
// workload does not reach reads 0.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers() {
		defs = append(defs, metricDef{"cpu." + l + "_s", "s", "lower"})
	}
	for _, n := range []string{"gpu.issued", "gpu.stall_cycles", "noc.injected", "noc.rejected",
		"l2.hits", "l2.misses", "l2.merged", "l2.writebacks", "mc.arrived", "mc.switches",
		"mc.drain_cycles", "mc.mem_mode_cycles", "mc.pim_mode_cycles", "dram.mem_cols",
		"dram.pim_ops", "dram.activates", "dram.precharges", "sim.gpu_cycles",
		"experiments.sims", "serve.cache_hits", "serve.cache_joins", "serve.cache_misses"} {
		defs = append(defs, metricDef{n, "count", "higher"})
	}
	for _, n := range []string{"l2.hit_ratio", "dram.rbhr", "serve.hit_ratio"} {
		defs = append(defs, metricDef{n, "ratio", "higher"})
	}
	return append(defs,
		metricDef{"mc.avg_memq", "requests", "lower"},
		metricDef{"mc.avg_pimq", "requests", "lower"},
		metricDef{"dram.blp", "banks", "higher"},
		metricDef{"sim.ns_per_gpu_cycle", "ns", "lower"},
		metricDef{"sim.build_s", "s", "lower"},
		metricDef{"sim.run_s", "s", "lower"},
		metricDef{"serve.canon_us", "us", "lower"},
		metricDef{"serve.queue_ms", "ms", "lower"},
		metricDef{"serve.run_ms", "ms", "lower"},
		metricDef{"serve.persist_ms", "ms", "lower"},
		metricDef{"serve.hit_p50_ms", "ms", "lower"},
		metricDef{"serve.hit_p99_ms", "ms", "lower"},
		metricDef{"serve.cold_p50_ms", "ms", "lower"},
		metricDef{"serve.cold_p95_ms", "ms", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
	)
}()

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run produces: the result plus what the
// result file keeps beside it.
type report struct {
	result
	Rounds    int                  `json:"rounds"`
	Problems  []string             `json:"problems,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	SimDigest string               `json:"sim_digest,omitempty"`
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, Samples: map[string][]float64{}}
}

// check records a failed correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) problems(ps []string) {
	for _, p := range ps {
		r.check(false, "%s", p)
	}
}

func (r *report) setE2E(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(endToEndMetrics, name)}
}

func (r *report) setLayer(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(perLayerMetrics, name)}
}

// round is one pass over a workload's fixed set of operations.
type round struct {
	wall              time.Duration   // first operation to last
	alloc             uint64          // heap bytes allocated during the round
	cpu               time.Duration   // process CPU time (user + system) during the round
	ops               []time.Duration // latency of each operation
	attempted, failed int
	sims              int // Systems the round's runner built, seen through Runner.Observe
}

// measure runs whole rounds until seconds have passed since the first
// one began; every run thus attempts whole rounds of the same
// operations.
func measure(seconds int, fn func(i int) (round, error)) ([]round, error) {
	start := time.Now()
	var out []round
	for i := 0; ; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := processCPU()
		r, err := fn(i)
		if err != nil {
			return nil, err
		}
		r.cpu = processCPU() - cpu0
		runtime.ReadMemStats(&after)
		r.alloc = after.TotalAlloc - before.TotalAlloc
		out = append(out, r)
		if time.Since(start) >= time.Duration(seconds)*time.Second {
			return out, nil
		}
	}
}

// timedRounds runs a run's timed rounds; fn runs one round, given the
// tracer (nil when untraced). Untraced, that is whole rounds for
// --seconds. Traced, it is half the time untraced, then half with
// telemetry on, a CPU profile running and spans recorded into the
// returned tracer, and it reports the CPU seconds per layer and the
// tracing overhead: traced minus untraced wall_s.
func timedRounds(o options, rep *report, fn func(tr *tracer) (round, error)) (rounds, traced []round, tr *tracer, err error) {
	untraced := func(int) (round, error) { return fn(nil) }
	if !o.trace {
		rounds, err = measure(o.seconds, untraced)
		return rounds, nil, nil, err
	}
	if rounds, err = measure(traceSeconds(o), untraced); err != nil {
		return nil, nil, nil, err
	}
	tr = newTracer()
	layers, _, err := profiled(profilePath(o), func() error {
		telemetry.Enable(true)
		defer telemetry.Enable(false)
		var terr error
		traced, terr = measure(traceSeconds(o), func(int) (round, error) { return fn(tr) })
		return terr
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rep.setCPU(layers)
	rep.setLayer("trace.overhead_s", medianWall(traced)-medianWall(rounds))
	return rounds, traced, tr, nil
}

// traceSeconds is each half of a traced run.
func traceSeconds(o options) int {
	return max(1, o.seconds/2)
}

func medianWall(rounds []round) float64 {
	var w []float64
	for _, r := range rounds {
		w = append(w, r.wall.Seconds())
	}
	return median(w)
}

// finish fills in the result: an untraced run's end-to-end metrics, or a
// traced run's per-layer metrics, whose spans it then writes out.
func (r *report) finish(o options, setup float64, setupSamples []float64, rounds, traced []round,
	reqsPerRound uint64, counts *layerCounts, tr *tracer) error {
	if !o.trace {
		r.endToEnd(setup, setupSamples, rounds, reqsPerRound)
		return nil
	}
	r.tally(append(rounds, traced...))
	counts.metrics(r.setLayer)
	r.setLayer("experiments.sims", float64(traced[len(traced)-1].sims))
	r.zeroLayers()
	return tr.write(spansPath(o))
}

// endToEnd fills the end-to-end metrics from the set-up time (with the
// samples it came from) and the measured rounds; reqsPerRound is the
// simulated DRAM requests one round services.
func (r *report) endToEnd(setup float64, setupSamples []float64, rounds []round, reqsPerRound uint64) {
	var walls, cpus, rates, allocs, opRates, lat []float64
	for _, rd := range rounds {
		w := rd.wall.Seconds()
		walls = append(walls, w)
		cpus = append(cpus, rd.cpu.Seconds())
		rates = append(rates, float64(reqsPerRound)/w)
		allocs = append(allocs, float64(rd.alloc)/1e6)
		opRates = append(opRates, float64(len(rd.ops))/w)
		for _, d := range rd.ops {
			lat = append(lat, float64(d.Nanoseconds())/1e6)
		}
	}
	r.tally(rounds)
	r.setE2E("setup_s", setup)
	r.setE2E("wall_s", median(walls))
	r.setE2E("sim_req_per_s", median(rates))
	r.setE2E("alloc_mb", median(allocs))
	r.setE2E("peak_rss_mb", peakRSSMB())
	r.setE2E("ops_per_s", median(opRates))
	r.setE2E("op_p50_ms", median(lat))
	r.Samples["setup_s"] = setupSamples
	r.Samples["wall_s"] = walls
	r.Samples["cpu_s"] = cpus
	r.Samples["alloc_mb"] = allocs
}

// processCPU returns the CPU time the process has used, user plus
// system; time the host lends to other guests (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally counts the rounds and their attempted and failed operations.
func (r *report) tally(rounds []round) {
	r.Rounds = len(rounds)
	for _, rd := range rounds {
		r.Attempted += rd.attempted
		r.Failed += rd.failed
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// environment is recorded in every result file.
type environment struct {
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parallel   int    `json:"parallel"`
	Engine     string `json:"engine"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	SimSeed    int64  `json:"sim_seed"`
}

func currentEnv(o options) environment {
	return environment{
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallel:   parallel,
		Engine:     o.engine.String(),
		Commit:     gitCommit(),
		Seed:       o.seed,
		SimSeed:    simSeed(o.seed),
	}
}

// simSeed is the simulation seed a workload seed selects.
func simSeed(seed uint64) int64 {
	return int64(1 + seed%1_000_003)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (no git process);
// outside a git checkout it reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// resultFile is what --out (or the default results directory) receives.
type resultFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	Report   *report     `json:"report"`
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sweep-saturated, standalone-sparse or serve-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measure whole rounds until this many seconds have passed")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "result file (default: a new file under "+outDir+"/results)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloadFuncs[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	return o, checkParallel()
}

// checkParallel refuses to run more concurrent simulations, server
// workers or client connections than the machine has processors:
// oversubscribed runs measure the scheduler, not the program.
func checkParallel() error {
	if limit := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); parallel > limit {
		return fmt.Errorf("the workloads run %d operations at once, more than the %d processors available", parallel, limit)
	}
	return nil
}

func benchMain(args []string) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	env := currentEnv(o)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%v engine=%s parallel=%d go=%s cpu=%q nproc=%d commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, env.Engine, parallel, env.GoVersion, env.CPUModel, env.NProc, env.Commit)
	rep, err := workloadFuncs[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.check(false, "metric %s is not a number", name)
			rep.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	if err := writeResult(o, env, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func writeResult(o options, env environment, rep *report) error {
	path := o.out
	if path == "" {
		path = filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d-%d.json",
			o.workload, o.seed, btoi(o.trace), time.Now().UnixNano()))
	}
	data, err := json.MarshalIndent(resultFile{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: env, Report: rep,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readResult loads a result file.
func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Report == nil {
		return nil, fmt.Errorf("%s: %w", path, errors.New("no report"))
	}
	return &rf, nil
}

// spansPath names the span file of a traced run.
func spansPath(o options) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

// profilePath names the CPU profile of a traced run.
func profilePath(o options) string {
	return filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))
}

// setCPU reports a traced run's CPU seconds per layer.
func (r *report) setCPU(layers map[string]float64) {
	for _, l := range cpuLayers() {
		r.setLayer("cpu."+l+"_s", layers[l])
	}
}

// zeroLayers sets every per-layer metric the workload did not fill to 0.
func (r *report) zeroLayers() {
	for _, d := range perLayerMetrics {
		if _, ok := r.Metrics[d.name]; !ok {
			r.setLayer(d.name, 0)
		}
	}
}
