package main

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// simJob is one System the benchmark builds through sim.New and runs
// through System.Run itself, built the way experiments.Runner builds
// it: standalone baselines on VC1 under FR-FCFS, PIM kernels on the
// last PIMSMs SMs at a disjoint base address, GPU kernels on the rest.
// Driving the simulator directly gives the checks and the traced run
// what the runner keeps to itself: the full stats.Sim, the kernel
// results and the L2 slices.
type simJob struct {
	id     string
	cfg    config.Config
	policy string
	descs  []sim.KernelDesc
}

const pimBase = 1 << 30 // PIM footprint base address, as in the runner

func gpuAloneJob(cfg config.Config, scale float64, gpuID string, sms int) (simJob, error) {
	prof, err := workload.GPUProfileByID(gpuID)
	if err != nil {
		return simJob{}, err
	}
	cfg.NoC.Mode = config.VC1
	return simJob{
		id:     fmt.Sprintf("alone/%s/%dsm", gpuID, sms),
		cfg:    cfg,
		policy: "fr-fcfs",
		descs:  []sim.KernelDesc{{GPU: &prof, SMs: sim.SomeSMs(cfg, sms), Scale: scale}},
	}, nil
}

func pimAloneJob(cfg config.Config, scale float64, pimID string) (simJob, error) {
	prof, err := workload.PIMProfileByID(pimID)
	if err != nil {
		return simJob{}, err
	}
	cfg.NoC.Mode = config.VC1
	_, pimSMs := sim.GPUAndPIMSMs(cfg)
	return simJob{
		id:     "alone/" + pimID,
		cfg:    cfg,
		policy: "fr-fcfs",
		descs:  []sim.KernelDesc{{PIM: &prof, SMs: pimSMs, Scale: scale, Base: pimBase}},
	}, nil
}

func coRunJob(cfg config.Config, scale float64, gpuID, pimID, policy string, mode config.VCMode) (simJob, error) {
	gProf, err := workload.GPUProfileByID(gpuID)
	if err != nil {
		return simJob{}, err
	}
	pProf, err := workload.PIMProfileByID(pimID)
	if err != nil {
		return simJob{}, err
	}
	cfg.NoC.Mode = mode
	gpuSMs, pimSMs := sim.GPUAndPIMSMs(cfg)
	return simJob{
		id:     fmt.Sprintf("%s+%s/%s/%s", gpuID, pimID, policy, mode),
		cfg:    cfg,
		policy: policy,
		descs: []sim.KernelDesc{
			{GPU: &gProf, SMs: gpuSMs, Scale: scale},
			{PIM: &pProf, SMs: pimSMs, Scale: scale, Base: pimBase},
		},
	}, nil
}

func (j simJob) build() (*sim.System, error) {
	f := core.Factory(j.policy, j.cfg.Sched)
	if f == nil {
		return nil, fmt.Errorf("unknown policy %q", j.policy)
	}
	return sim.New(j.cfg, f, j.descs)
}

// simOut is one finished System: its result, its L2 counters summed over
// channels (hits, misses, merged, writebacks) and its host times.
type simOut struct {
	res        *sim.Result
	l2         [4]uint64
	build, run time.Duration
}

// runJob builds and runs j, recording sim.build and sim.run spans.
func runJob(j simJob, tr *tracer) (simOut, error) {
	var o simOut
	sb := tr.begin("sim.build", 0, j.id)
	t0 := time.Now()
	sys, err := j.build()
	o.build = time.Since(t0)
	tr.end(sb)
	if err != nil {
		return o, fmt.Errorf("%s: %w", j.id, err)
	}
	sr := tr.begin("sim.run", 0, j.id)
	t1 := time.Now()
	res, err := sys.Run()
	o.run = time.Since(t1)
	tr.end(sr)
	if err != nil {
		return o, fmt.Errorf("%s: %w", j.id, err)
	}
	for ch := 0; ch < j.cfg.Memory.Channels; ch++ {
		s := sys.L2(ch)
		o.l2[0] += s.Hits
		o.l2[1] += s.Misses
		o.l2[2] += s.MergedCount
		o.l2[3] += s.Writebacks
	}
	o.res = res
	return o, nil
}

// forEach calls fn(i) for every i in [0, n), on parallel goroutines,
// and returns when every call has.
func forEach(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// runJobs runs jobs on parallel goroutines and returns the outcomes in
// job order. With a tracer (a traced run) the Systems carry telemetry,
// for the registry counters.
func runJobs(jobs []simJob, tr *tracer) ([]simOut, error) {
	if tr != nil {
		telemetry.Enable(true)
		defer telemetry.Enable(false)
	}
	outs := make([]simOut, len(jobs))
	errs := make([]error, len(jobs))
	forEach(len(jobs), func(i int) { outs[i], errs[i] = runJob(jobs[i], tr) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// sameSimulation reports how two runs of one job differ, or "" when
// their simulated statistics and kernel results are bit-identical (the
// tick cross-check).
func sameSimulation(a, b simOut) string {
	switch {
	case !reflect.DeepEqual(a.res.Stats, b.res.Stats):
		return "stats.Sim differs"
	case !reflect.DeepEqual(a.res.Kernels, b.res.Kernels):
		return "kernel results differ"
	case a.res.GPUCycles != b.res.GPUCycles || a.res.DRAMCycles != b.res.DRAMCycles:
		return "run length differs"
	case a.res.Aborted != b.res.Aborted:
		return "abort flag differs"
	case a.l2 != b.l2:
		return "L2 counters differ"
	}
	return ""
}

// cellFigures are the paper's per-cell metrics of one co-run (the
// fields experiments.Pair and serve.CompetitiveResult both carry).
type cellFigures struct {
	GPUSpeedup, PIMSpeedup float64
	Fairness, Throughput   float64
	MemArrivalNorm         float64
	Switches               uint64
	ConflictsPerSwitch     float64
	DrainPerSwitch         float64
	AvgMemQ, AvgPIMQ       float64
	Aborted                bool
}

func speedup(alone, contended uint64) float64 {
	if contended == 0 {
		return 0
	}
	return float64(alone) / float64(contended)
}

// figuresOf computes a co-run's figures from the two standalone
// baselines and the contended run, by the definitions of Sec. III-C.
func figuresOf(gAlone, pAlone, co *sim.Result) cellFigures {
	tc := co.Stats.TotalChannel()
	f := cellFigures{
		GPUSpeedup:         speedup(gAlone.Kernels[0].FirstFinish, co.Kernels[0].EstFinish),
		PIMSpeedup:         speedup(pAlone.Kernels[0].FirstFinish, co.Kernels[1].EstFinish),
		Switches:           tc.Switches,
		ConflictsPerSwitch: tc.ConflictsPerSwitch(),
		DrainPerSwitch:     tc.DrainPerSwitch(),
		AvgMemQ:            tc.AvgMemQ(),
		AvgPIMQ:            tc.AvgPIMQ(),
		Aborted:            co.Aborted,
	}
	f.Fairness = stats.FairnessIndex(f.GPUSpeedup, f.PIMSpeedup)
	f.Throughput = stats.SystemThroughput(f.GPUSpeedup, f.PIMSpeedup)
	if r := gAlone.Stats.MCArrivalRate(0); r > 0 {
		f.MemArrivalNorm = co.Stats.MCArrivalRate(0) / r
	}
	return f
}

// simReqs counts the DRAM requests a run serviced: MEM column commands
// plus PIM operations.
func simReqs(res *sim.Result) uint64 {
	tc := res.Stats.TotalChannel()
	return tc.MemReads + tc.MemWrites + tc.PIMOps
}

// channelProblems checks the per-channel accounting identities every
// run must satisfy: each PIM op is a row hit or a row miss, and every
// MEM column command was classified (refresh-closed rows can add
// misses, never remove them).
func channelProblems(id string, res *sim.Result) []string {
	var out []string
	for ch, c := range res.Stats.Channels {
		if c.PIMRowHits+c.PIMRowMisses != c.PIMOps {
			out = append(out, fmt.Sprintf("%s ch%d: PIM row hits %d + misses %d != PIM ops %d",
				id, ch, c.PIMRowHits, c.PIMRowMisses, c.PIMOps))
		}
		if c.RowHits+c.RowMisses < c.MemReads+c.MemWrites {
			out = append(out, fmt.Sprintf("%s ch%d: row hits %d + misses %d < MEM columns %d",
				id, ch, c.RowHits, c.RowMisses, c.MemReads+c.MemWrites))
		}
	}
	return out
}

// layerCounts sums the simulated counts of a set of runs, as the
// per-layer metrics report them.
type layerCounts struct {
	gpuIssued, gpuStall      uint64
	nocInjected, nocRejected uint64
	l2                       [4]uint64
	mcArrived                uint64
	memQSum, pimQSum         uint64
	sampled, switches        uint64
	drainCycles              uint64
	memModeCycles            uint64
	pimModeCycles            uint64
	memCols, pimOps          uint64
	rowHits, rowMisses       uint64
	activeCycles, bankBusy   uint64
	activates, precharges    uint64
	gpuCycles                uint64
	build, run               time.Duration
}

func (c *layerCounts) add(o simOut) {
	res := o.res
	for _, a := range res.Stats.Apps {
		c.gpuIssued += a.NoCInjected
		c.mcArrived += a.MCArrived
	}
	for _, k := range res.Kernels {
		c.gpuStall += k.StallCycles
	}
	for i := range c.l2 {
		c.l2[i] += o.l2[i]
	}
	tc := res.Stats.TotalChannel()
	c.memQSum += tc.MemQOccupancySum
	c.pimQSum += tc.PIMQOccupancySum
	c.sampled += tc.SampledCycles
	c.switches += tc.Switches
	c.memCols += tc.MemReads + tc.MemWrites
	c.pimOps += tc.PIMOps
	c.rowHits += tc.RowHits
	c.rowMisses += tc.RowMisses
	c.activeCycles += tc.ActiveCycles
	c.bankBusy += tc.BankBusySum
	c.gpuCycles += res.GPUCycles
	c.build += o.build
	c.run += o.run
	if res.Telemetry == nil {
		return
	}
	for _, m := range res.Telemetry.Registry.Export() {
		v := uint64(m.Value)
		switch {
		case m.Name == "noc/injected":
			c.nocInjected += v
		case m.Name == "noc/rejected":
			c.nocRejected += v
		case !strings.HasPrefix(m.Name, "mc") || m.Kind != "counter":
		case strings.HasSuffix(m.Name, "/drain_cycles"):
			c.drainCycles += v
		case strings.HasSuffix(m.Name, "/mem_mode_cycles"):
			c.memModeCycles += v
		case strings.HasSuffix(m.Name, "/pim_mode_cycles"):
			c.pimModeCycles += v
		case strings.HasSuffix(m.Name, "/activates"):
			c.activates += v
		case strings.HasSuffix(m.Name, "/precharges"):
			c.precharges += v
		}
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the counts as per-layer metrics.
func (c *layerCounts) metrics(set func(name string, v float64)) {
	set("gpu.issued", float64(c.gpuIssued))
	set("gpu.stall_cycles", float64(c.gpuStall))
	set("noc.injected", float64(c.nocInjected))
	set("noc.rejected", float64(c.nocRejected))
	set("l2.hits", float64(c.l2[0]))
	set("l2.misses", float64(c.l2[1]))
	set("l2.merged", float64(c.l2[2]))
	set("l2.writebacks", float64(c.l2[3]))
	set("l2.hit_ratio", ratio(c.l2[0], c.l2[0]+c.l2[1]+c.l2[2]))
	set("mc.arrived", float64(c.mcArrived))
	set("mc.avg_memq", ratio(c.memQSum, c.sampled))
	set("mc.avg_pimq", ratio(c.pimQSum, c.sampled))
	set("mc.switches", float64(c.switches))
	set("mc.drain_cycles", float64(c.drainCycles))
	set("mc.mem_mode_cycles", float64(c.memModeCycles))
	set("mc.pim_mode_cycles", float64(c.pimModeCycles))
	set("dram.mem_cols", float64(c.memCols))
	set("dram.pim_ops", float64(c.pimOps))
	set("dram.rbhr", ratio(c.rowHits, c.rowHits+c.rowMisses))
	set("dram.blp", ratio(c.bankBusy, c.activeCycles))
	set("dram.activates", float64(c.activates))
	set("dram.precharges", float64(c.precharges))
	set("sim.gpu_cycles", float64(c.gpuCycles))
	nsPerCycle := 0.0
	if c.gpuCycles > 0 {
		nsPerCycle = float64(c.run.Nanoseconds()) / float64(c.gpuCycles)
	}
	set("sim.ns_per_gpu_cycle", nsPerCycle)
	set("sim.build_s", c.build.Seconds())
	set("sim.run_s", c.run.Seconds())
}
