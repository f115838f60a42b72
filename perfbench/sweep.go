package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// sweep-saturated: a competitive co-run sweep of memory-intensive GPU
// kernels against PIM kernels through experiments.Runner.RunSweep. A
// DRAM cycle is live almost every cycle, so memctrl, noc, dram and the
// L2 do the work and the event engine's skip-ahead does almost none.
var (
	sweepGPUs     = []string{"G4", "G6", "G11", "G15"}
	sweepPIMs     = []string{"P1", "P4"}
	sweepPolicies = []string{"fr-fcfs", "fr-rr-fcfs", "gather-issue", "f3fs"}
	sweepModes    = []config.VCMode{config.VC1, config.VC2}
)

const sweepScale = 0.1

// sweepTickCells are re-simulated on the other engine, outside the
// timed region, and must match bit for bit.
var sweepTickCells = []struct {
	gpu, pim, policy string
	mode             config.VCMode
}{
	{"G4", "P1", "f3fs", config.VC2},
	{"G15", "P4", "fr-rr-fcfs", config.VC1},
}

// setupPasses is how many times a simulator workload's set-up is
// repeated per run. A burst of page faults or a collection can slow
// several passes in a row, so the median needs many of them; a pass
// costs 7 ms (standalone-sparse) to 90 ms (sweep-saturated).
const setupPasses = 25

// sweepCell locates one co-run and its baselines in a plan's jobs.
type sweepCell struct {
	gpu, pim, policy string
	mode             config.VCMode
	job, gAlone      int
	pAlone           int
}

// sweepPlan lists every System one sweep round runs: the standalone
// baselines, then the cells.
type sweepPlan struct {
	jobs  []simJob
	cells []sweepCell
}

func workloadConfig(o options) config.Config {
	cfg := config.Scaled()
	cfg.Seed = simSeed(o.seed)
	cfg.Engine = o.engine
	return cfg
}

func newSweepPlan(cfg config.Config) (*sweepPlan, error) {
	p := &sweepPlan{}
	gIdx, pIdx := map[string]int{}, map[string]int{}
	for _, g := range sweepGPUs {
		j, err := gpuAloneJob(cfg, sweepScale, g, cfg.GPU.NumSMs)
		if err != nil {
			return nil, err
		}
		gIdx[g] = len(p.jobs)
		p.jobs = append(p.jobs, j)
	}
	for _, pim := range sweepPIMs {
		j, err := pimAloneJob(cfg, sweepScale, pim)
		if err != nil {
			return nil, err
		}
		pIdx[pim] = len(p.jobs)
		p.jobs = append(p.jobs, j)
	}
	for _, mode := range sweepModes {
		for _, pol := range sweepPolicies {
			for _, g := range sweepGPUs {
				for _, pim := range sweepPIMs {
					j, err := coRunJob(cfg, sweepScale, g, pim, pol, mode)
					if err != nil {
						return nil, err
					}
					p.cells = append(p.cells, sweepCell{gpu: g, pim: pim, policy: pol, mode: mode,
						job: len(p.jobs), gAlone: gIdx[g], pAlone: pIdx[pim]})
					p.jobs = append(p.jobs, j)
				}
			}
		}
	}
	return p, nil
}

// setupTime times setupPasses construction passes over jobs and returns
// setup_s: the sum over jobs of each job's median construction time.
// Taking each job's median keeps a garbage collection or page-fault
// burst in one pass from moving the figure. It also returns each pass's
// total, for the result file.
func setupTime(jobs []simJob) (float64, []float64, error) {
	per := make([][]float64, len(jobs))
	var passes []float64
	for i := -1; i < setupPasses; i++ {
		runtime.GC()
		total := 0.0
		for j, job := range jobs {
			t0 := time.Now()
			if _, err := job.build(); err != nil {
				return 0, nil, fmt.Errorf("%s: %w", job.id, err)
			}
			d := time.Since(t0).Seconds()
			if i >= 0 { // pass -1 warms the heap
				per[j] = append(per[j], d)
			}
			total += d
		}
		if i >= 0 {
			passes = append(passes, total)
		}
	}
	sum := 0.0
	for _, xs := range per {
		sum += median(xs)
	}
	return sum, passes, nil
}

// sweepRound runs the whole sweep once through a fresh runner, so every
// round computes its own baselines.
func sweepRound(cfg config.Config, tr *tracer) (round, *experiments.Sweep) {
	r := experiments.NewRunner(cfg, sweepScale)
	r.Parallel = parallel
	var sims atomic.Int64
	r.Observe = func(string, *sim.System) { sims.Add(1) }
	cells := len(sweepGPUs) * len(sweepPIMs) * len(sweepPolicies) * len(sweepModes)
	id := tr.begin("experiments.sweep", 0, "sweep")
	t0 := time.Now()
	s, err := r.RunSweep(sweepGPUs, sweepPIMs, sweepPolicies, sweepModes)
	wall := time.Since(t0)
	tr.end(id)
	rd := round{wall: wall, ops: []time.Duration{wall}, attempted: cells, sims: int(sims.Load())}
	if err != nil {
		rd.failed = cells
		return rd, nil
	}
	rd.failed = len(s.Failed)
	return rd, s
}

func pairFigures(p experiments.Pair) cellFigures {
	return cellFigures{
		GPUSpeedup: p.GPUSpeedup, PIMSpeedup: p.PIMSpeedup,
		Fairness: p.Fairness, Throughput: p.Throughput,
		MemArrivalNorm:     p.MemArrivalNorm,
		Switches:           p.Switches,
		ConflictsPerSwitch: p.ConflictsPerSwitch,
		DrainPerSwitch:     p.DrainPerSwitch,
		AvgMemQ:            p.AvgMemQ, AvgPIMQ: p.AvgPIMQ,
		Aborted: p.Aborted,
	}
}

func runSweep(o options) (*report, error) {
	cfg := workloadConfig(o)
	plan, err := newSweepPlan(cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	setup, passes, err := setupTime(plan.jobs)
	if err != nil {
		return nil, err
	}
	// last is the last untraced round's sweep, lastTraced the traced one's.
	var last, lastTraced *experiments.Sweep
	rounds, traced, tr, err := timedRounds(o, rep, func(tr *tracer) (round, error) {
		rd, s := sweepRound(cfg, tr)
		switch {
		case s == nil:
		case tr == nil:
			last = s
		default:
			lastTraced = s
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	if last == nil {
		rep.tally(append(rounds, traced...))
		rep.check(false, "no sweep round completed")
		return rep, nil
	}
	if o.trace {
		rep.check(lastTraced != nil && sameSweepFigures(last, lastTraced),
			"traced sweep figures differ from the untraced sweep's")
	}

	// Outside the timed region: the same Systems, driven directly, for
	// the request count, the per-cell properties and the figures.
	outs, err := runJobs(plan.jobs, tr)
	if err != nil {
		return nil, err
	}
	var counts layerCounts
	var reqs uint64
	for _, out := range outs {
		counts.add(out)
		reqs += simReqs(out.res)
	}
	rep.SimDigest = simDigest(outs)
	sweepChecks(rep, plan, outs, last)
	tickCheck(rep, cfg, o, outs, plan)
	return rep, rep.finish(o, setup, passes, rounds, traced, reqs, &counts, tr)
}

func sameSweepFigures(a, b *experiments.Sweep) bool {
	for _, mode := range sweepModes {
		for _, pol := range sweepPolicies {
			for _, g := range sweepGPUs {
				for _, p := range sweepPIMs {
					if pairFigures(a.Pairs[mode][pol][g][p]) != pairFigures(b.Pairs[mode][pol][g][p]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// sweepChecks checks the sweep's outputs: every cell's accounting and
// completion, the runner's figures against ones computed here from the
// directly driven runs, and the paper's headline property.
func sweepChecks(rep *report, plan *sweepPlan, outs []simOut, s *experiments.Sweep) {
	for i, j := range plan.jobs {
		rep.problems(channelProblems(j.id, outs[i].res))
		for _, k := range outs[i].res.Kernels {
			rep.check(k.Finished, "%s: %s did not finish its first run", j.id, k.Label)
		}
		rep.check(!outs[i].res.Aborted, "%s: run aborted", j.id)
	}
	rep.check(len(s.Failed) == 0, "%d sweep cells failed", len(s.Failed))
	for _, c := range plan.cells {
		want := figuresOf(outs[c.gAlone].res, outs[c.pAlone].res, outs[c.job].res)
		got := pairFigures(s.Pairs[c.mode][c.policy][c.gpu][c.pim])
		rep.check(got == want, "%s: runner figures %+v, direct %+v", plan.jobs[c.job].id, got, want)
		rep.check(want.Fairness >= 0 && want.Fairness <= 1, "%s: fairness %v outside [0, 1]", plan.jobs[c.job].id, want.Fairness)
	}
	ft := s.FairnessThroughput()
	for _, mode := range sweepModes {
		best := ft.AvgThroughput[mode]["f3fs"]
		for _, pol := range sweepPolicies {
			if pol != "f3fs" {
				rep.check(best > ft.AvgThroughput[mode][pol],
					"%s: F3FS mean throughput %.3f not above %s's %.3f", mode, best, pol, ft.AvgThroughput[mode][pol])
			}
		}
	}
}

// otherEngine is the engine the cross-check re-simulates on.
func otherEngine(e config.Engine) config.Engine {
	if e == config.EngineTick {
		return config.EngineEvent
	}
	return config.EngineTick
}

// tickCheck re-simulates a fixed subset of the sweep's cells on the
// other engine and requires bit-identical results.
func tickCheck(rep *report, cfg config.Config, o options, outs []simOut, plan *sweepPlan) {
	for _, tc := range sweepTickCells {
		for _, c := range plan.cells {
			if c.gpu != tc.gpu || c.pim != tc.pim || c.policy != tc.policy || c.mode != tc.mode {
				continue
			}
			j := plan.jobs[c.job]
			j.cfg.Engine = otherEngine(o.engine)
			out, err := runJob(j, nil)
			if err != nil {
				rep.check(false, "%s on %s: %v", j.id, j.cfg.Engine, err)
				continue
			}
			if d := sameSimulation(outs[c.job], out); d != "" {
				rep.check(false, "%s: %s on the %s engine", j.id, d, j.cfg.Engine)
			}
		}
	}
}

// simDigest hashes every run's simulated statistics and kernel results,
// so the traced and untraced runs of one seed can be compared exactly.
func simDigest(outs []simOut) string {
	h := sha256.New()
	for _, o := range outs {
		data, err := json.Marshal(struct {
			Stats   any
			Kernels any
			L2      [4]uint64
		}{o.res.Stats, o.res.Kernels, o.l2})
		if err != nil {
			return fmt.Sprintf("unhashable: %v", err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
