package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// standalone-sparse: standalone runs of the compute-bound kernels
// through experiments.Runner.StandaloneGPUOn, on the PIM-SM count and on
// all SMs. The event engine jumps over the long idle stretches between
// issue slots (the tick engine is about four times slower here), so this
// is the workload where an engine regression shows. Its CPU is spread
// over memctrl, the Go runtime, the L2, sim, noc and dram; README.md has
// the measured split.
var aloneGPUs = []string{"G7", "G10", "G12"}

// aloneScale gives each run seconds of simulated work (G7 on 2 SMs is
// 2.4M GPU cycles).
const aloneScale = 8

// aloneTickCell is re-simulated on the other engine and must match bit
// for bit.
const aloneTickCell = "alone/G12/20sm"

type aloneOp struct {
	gpu string
	sms int
}

func aloneOps(cfg config.Config) []aloneOp {
	var ops []aloneOp
	for _, sms := range []int{cfg.GPU.PIMSMs, cfg.GPU.NumSMs} {
		for _, g := range aloneGPUs {
			ops = append(ops, aloneOp{g, sms})
		}
	}
	return ops
}

// aloneRound runs every op once through a fresh runner on parallel
// goroutines.
func aloneRound(cfg config.Config, ops []aloneOp, tr *tracer) (round, []experiments.Standalone) {
	r := experiments.NewRunner(cfg, aloneScale)
	var sims atomic.Int64
	r.Observe = func(string, *sim.System) { sims.Add(1) }
	outs := make([]experiments.Standalone, len(ops))
	lat := make([]time.Duration, len(ops))
	failed := make([]bool, len(ops))
	t0 := time.Now()
	forEach(len(ops), func(i int) {
		id := tr.begin("experiments.standalone", 0, ops[i].gpu)
		s := time.Now()
		st, err := r.StandaloneGPUOn(ops[i].gpu, ops[i].sms)
		lat[i] = time.Since(s)
		tr.end(id)
		outs[i], failed[i] = st, err != nil
	})
	rd := round{wall: time.Since(t0), ops: lat, attempted: len(ops), sims: int(sims.Load())}
	for _, f := range failed {
		if f {
			rd.failed++
		}
	}
	return rd, outs
}

func runStandalone(o options) (*report, error) {
	cfg := workloadConfig(o)
	ops := aloneOps(cfg)
	var jobs []simJob
	for _, op := range ops {
		j, err := gpuAloneJob(cfg, aloneScale, op.gpu, op.sms)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	rep := newReport()
	setup, passes, err := setupTime(jobs)
	if err != nil {
		return nil, err
	}
	// last holds the last untraced round's baselines, lastTraced the
	// traced one's.
	var last, lastTraced []experiments.Standalone
	rounds, traced, tr, err := timedRounds(o, rep, func(tr *tracer) (round, error) {
		rd, outs := aloneRound(cfg, ops, tr)
		if tr == nil {
			last = outs
		} else {
			lastTraced = outs
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range lastTraced {
		rep.check(lastTraced[i] == last[i], "%s: traced result %+v, untraced %+v", jobs[i].id, lastTraced[i], last[i])
	}

	outs, err := runJobs(jobs, tr)
	if err != nil {
		return nil, err
	}
	var counts layerCounts
	var reqs uint64
	for i, out := range outs {
		counts.add(out)
		reqs += simReqs(out.res)
		aloneChecks(rep, jobs[i], ops[i], out, last[i])
	}
	rep.SimDigest = simDigest(outs)
	for i, j := range jobs {
		if j.id != aloneTickCell {
			continue
		}
		j.cfg.Engine = otherEngine(o.engine)
		ref, err := runJob(j, nil)
		if err != nil {
			rep.check(false, "%s on %s: %v", j.id, j.cfg.Engine, err)
		} else if d := sameSimulation(outs[i], ref); d != "" {
			rep.check(false, "%s: %s on the %s engine", j.id, d, j.cfg.Engine)
		}
	}
	return rep, rep.finish(o, setup, passes, rounds, traced, reqs, &counts, tr)
}

// aloneChecks checks one standalone run: the runner's baseline equals
// the one computed here from the directly driven run, and the run length
// is within 1% of the issue-interval bound a compute-bound kernel must
// approach: Requests x scale x Interval / SMs.
func aloneChecks(rep *report, j simJob, op aloneOp, out simOut, got experiments.Standalone) {
	rep.problems(channelProblems(j.id, out.res))
	k := out.res.Kernels[0]
	rep.check(k.Finished && !out.res.Aborted, "%s: did not finish", j.id)
	tc := out.res.Stats.TotalChannel()
	want := experiments.Standalone{
		Cycles:  k.FirstFinish,
		NoCRate: out.res.Stats.NoCArrivalRate(0),
		MCRate:  out.res.Stats.MCArrivalRate(0),
		BLP:     tc.BLP(),
		RBHR:    tc.RBHR(),
	}
	rep.check(got == want, "%s: runner baseline %+v, direct %+v", j.id, got, want)
	prof, err := workload.GPUProfileByID(op.gpu)
	if err != nil {
		rep.check(false, "%s: %v", j.id, err)
		return
	}
	bound := float64(prof.Requests) * aloneScale * float64(prof.Interval) / float64(op.sms)
	rep.check(math.Abs(float64(got.Cycles)-bound) <= 0.01*bound,
		"%s: %d cycles, issue-interval bound %.0f", j.id, got.Cycles, bound)
}
