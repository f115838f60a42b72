package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
	"repro/internal/serve/store"
	"repro/internal/workload"
)

// serve-mixed: pimserve in-process behind a loopback HTTP listener, with
// the fsync'd persistent store on, loaded closed-loop by parallel clients
// (client 0 sends interactive requests, client 1 bulk).
// Hot requests repeat a small set and are cache hits (reads); cold
// requests are drawn without repetition from a policy x VC-mode x
// F3FS-CAP grid, and each one simulates and appends to the journal
// (writes). The server runs one worker, so cold requests of the two
// classes queue behind each other and the priority queue does work.
const (
	serveScale       = 0.01
	serveHot         = 8    // distinct hot requests, computed once per round
	serveHotRequests = 1000 // cache-hit requests per round: ten beyond p99
	serveCold        = 208  // distinct cold requests per round: ten beyond p95
	servePrefill     = 4000 // store records the schedule never requests
	serveWorkers     = 1
	serveColdPairs   = 8
	serveSetupPasses = 25 // server boots per run; setup_s is their median
)

var (
	serveGPUs = []string{"G2", "G3", "G5", "G8", "G9", "G13", "G16", "G17", "G18", "G20"}
	servePIMs = []string{"P1", "P2", "P3", "P4"}
	// pim-first, its and weis are left out: their starved GPU kernels
	// make a cell 10-50x slower than the rest, so a handful of them would
	// set the round's length.
	servePolicies = []string{"fcfs", "mem-first", "fr-fcfs", "fr-fcfs-cap", "bliss",
		"fr-rr-fcfs", "gather-issue", "f3fs", "sms-batch", "mode-cap-fr-fcfs"}
	serveCaps = [][2]int{{64, 64}, {128, 512}, {512, 128}}
)

// serveItem is one request of the schedule.
type serveItem struct {
	body   []byte
	digest string // computed here through serve.Canonicalize
	hot    bool
}

// serveSchedule is one round's requests: the warm-up of the hot set,
// sent first by client 0, then one closed-loop list per client.
type serveSchedule struct {
	warm    []serveItem
	clients [][]serveItem
	canon   map[string]serve.Canonical // every digest the round computes
	cold    []string
	reqs    []serve.Request // every request, for the canonicalization timing
}

func newServeSchedule(seed uint64, clients int) (*serveSchedule, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e77e))
	s := &serveSchedule{canon: map[string]serve.Canonical{}, clients: make([][]serveItem, clients)}
	sim := simSeed(seed)

	add := func(req serve.Request, hot bool) (serveItem, error) {
		c, err := serve.Canonicalize(req)
		if err != nil {
			return serveItem{}, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return serveItem{}, err
		}
		s.reqs = append(s.reqs, req)
		return serveItem{body: body, digest: c.Digest(), hot: hot}, nil
	}
	classOf := func(client int) string {
		if client%2 == 0 {
			return serve.PriorityInteractive
		}
		return serve.PriorityBulk
	}

	// The kernel pairs are fixed, so every seed asks for the same amount
	// of simulation; the seed moves the simulated address streams, the
	// order of the requests and how the hot ones are spelled.
	var coldReqs []serve.Request
	for i, g := range serveGPUs[:serveColdPairs] {
		pim := servePIMs[i%len(servePIMs)]
		for _, mode := range []string{"VC1", "VC2"} {
			for _, pol := range servePolicies {
				coldReqs = append(coldReqs, serve.Request{GPU: g, PIM: pim, Policy: pol, Mode: mode, Scale: serveScale, Seed: sim})
			}
			for _, caps := range serveCaps {
				coldReqs = append(coldReqs, serve.Request{GPU: g, PIM: pim, Policy: "f3fs", Mode: mode,
					Scale: serveScale, Seed: sim, MemCap: caps[0], PIMCap: caps[1]})
			}
		}
	}
	rng.Shuffle(len(coldReqs), func(i, j int) { coldReqs[i], coldReqs[j] = coldReqs[j], coldReqs[i] })

	// Hot: the remaining GPU kernels, so no hot request is also cold.
	hotGPUs := serveGPUs[serveColdPairs:]
	var hotReqs []serve.Request
	for i := 0; i < serveHot; i++ {
		mode, pol := "VC1", "fr-fcfs"
		if i%2 == 1 {
			mode, pol = "VC2", "f3fs"
		}
		hotReqs = append(hotReqs, serve.Request{GPU: hotGPUs[i%len(hotGPUs)], PIM: servePIMs[(i+i/len(hotGPUs))%len(servePIMs)],
			Policy: pol, Mode: mode, Scale: serveScale, Seed: sim})
	}
	for _, req := range hotReqs {
		req.Priority = serve.PriorityInteractive
		it, err := add(req, true)
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, it)
	}
	for i, req := range coldReqs {
		req.Priority = classOf(i % clients)
		it, err := add(req, false)
		if err != nil {
			return nil, err
		}
		s.cold = append(s.cold, it.digest)
		s.clients[i%clients] = append(s.clients[i%clients], it)
	}
	for i := 0; i < serveHotRequests; i++ {
		req := spell(hotReqs[rng.IntN(len(hotReqs))], rng)
		req.Priority = classOf(i % clients)
		it, err := add(req, true)
		if err != nil {
			return nil, err
		}
		s.clients[i%clients] = append(s.clients[i%clients], it)
	}
	for _, c := range s.clients {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	for _, req := range append(hotReqs, coldReqs...) {
		c, err := serve.Canonicalize(req)
		if err != nil {
			return nil, err
		}
		s.canon[c.Digest()] = c
	}
	if len(s.canon) != serveHot+serveCold {
		return nil, fmt.Errorf("serve schedule: %d distinct digests, want %d", len(s.canon), serveHot+serveCold)
	}
	return s, nil
}

// spell rewrites a request into one of the equivalent spellings
// serve.Canonicalize folds together: case, benchmark names, defaults
// written out.
func spell(req serve.Request, rng *rand.Rand) serve.Request {
	switch rng.IntN(4) {
	case 1:
		req.GPU, req.PIM = strings.ToLower(req.GPU), strings.ToLower(req.PIM)
		req.Policy, req.Mode = strings.ToUpper(req.Policy), strings.ToLower(req.Mode)
	case 2:
		if p, err := workload.GPUProfileByID(req.GPU); err == nil {
			req.GPU = p.Name
		}
		req.Kind = serve.KindCompetitive
	case 3:
		def := config.Scaled()
		req.MaxGPUCycles = def.MaxGPUCycles
		req.MemCap, req.PIMCap = def.Sched.F3FSMemCap, def.Sched.F3FSPIMCap
		req.Engine = "event"
	}
	return req
}

// serveBench holds one run's serve state across rounds.
type serveBench struct {
	o        options
	sched    *serveSchedule
	template string // pre-filled store, copied for every server
	results  map[string][]byte
	rounds   int
}

// prefill writes the store every server starts from: servePrefill
// verified records of requests the schedule never makes.
func prefill(dir string, seed uint64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0xf111))
	for i := 0; i < servePrefill; i++ {
		req := serve.Request{Kind: serve.KindStandaloneGPU, GPU: serveGPUs[i%len(serveGPUs)],
			Scale: serveScale, Seed: simSeed(seed) + 1_000_000 + int64(i)}
		c, err := serve.Canonicalize(req)
		if err != nil {
			st.Close()
			return err
		}
		canon, err := json.Marshal(c)
		if err != nil {
			st.Close()
			return err
		}
		res, err := json.Marshal(serve.Result{Digest: c.Digest(), Kind: c.Kind, GPU: c.GPUID, Mode: c.Mode, Scale: c.Scale,
			Standalone: &serve.StandaloneResult{Cycles: uint64(1e5 + rng.IntN(1e6)), NoCRate: rng.Float64(),
				MCRate: rng.Float64(), BLP: 8 * rng.Float64(), RBHR: rng.Float64()}})
		if err != nil {
			st.Close()
			return err
		}
		if !st.Put(c.Digest(), canon, res) {
			st.Close()
			return fmt.Errorf("prefill: store dropped record %d", i)
		}
	}
	st.Close()
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// startServer boots a server over a fresh copy of the pre-filled store
// and returns it with the host time from serve.New to Ready().
func (b *serveBench) startServer(dir string) (*serve.Server, time.Duration, error) {
	if err := copyDir(b.template, dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Options{Workers: serveWorkers, StoreDir: dir, CacheEntries: 2 * servePrefill})
	if err != nil {
		return nil, 0, err
	}
	for !srv.Ready() {
		time.Sleep(50 * time.Microsecond)
	}
	return srv, time.Since(t0), nil
}

// serveResp is one request's outcome as the client saw it.
type serveResp struct {
	item       *serveItem
	start, end time.Time
	view       serve.JobView
	err        error
}

func post(client *http.Client, url string, it *serveItem) serveResp {
	r := serveResp{item: it, start: time.Now()}
	resp, err := client.Post(url+"/v1/simulate?wait=1", "application/json", bytes.NewReader(it.body))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		default:
			err = json.Unmarshal(body, &r.view)
		}
	}
	if err == nil && r.view.Status != serve.StatusDone {
		err = fmt.Errorf("job %s: status %s: %s", r.view.ID, r.view.Status, r.view.Error)
	}
	r.end, r.err = time.Now(), err
	return r
}

// serveRoundOut is what one round leaves for the checks and metrics.
type serveRoundOut struct {
	resps   []serveResp
	metrics serve.Metrics
}

// round runs the schedule once against a fresh server and checks what
// the round alone can show.
func (b *serveBench) round(rep *report, tr *tracer) (round, serveRoundOut, error) {
	n := b.rounds
	b.rounds++
	dir := filepath.Join(outDir, "serve", fmt.Sprintf("round-%d", n))
	srv, _, err := b.startServer(dir)
	if err != nil {
		return round{}, serveRoundOut{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return round{}, serveRoundOut{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	clients := make([]*http.Client, len(b.sched.clients))
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}

	t0 := time.Now()
	var resps []serveResp
	for i := range b.sched.warm {
		resps = append(resps, post(clients[0], url, &b.sched.warm[i]))
	}
	perClient := make([][]serveResp, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range b.sched.clients[c] {
				perClient[c] = append(perClient[c], post(clients[c], url, &b.sched.clients[c][i]))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	var out serveRoundOut
	out.metrics, err = getMetrics(clients[0], url)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	shutErr := hs.Shutdown(ctx)
	cancel()
	srv.Close()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if serveErr := <-served; !errors.Is(serveErr, http.ErrServerClosed) {
		return round{}, out, serveErr
	}
	if err != nil {
		return round{}, out, err
	}
	if shutErr != nil {
		return round{}, out, shutErr
	}

	for c := range perClient {
		resps = append(resps, perClient[c]...)
	}
	out.resps = resps
	rd := round{wall: wall, attempted: len(resps)}
	uncached := 0
	for i, r := range resps {
		rd.ops = append(rd.ops, r.end.Sub(r.start))
		if r.err != nil {
			rd.failed++
			rep.check(false, "round %d: request %s: %v", n, r.item.digest[:12], r.err)
			continue
		}
		if !r.view.Cached {
			uncached++
		}
		b.record(rep, r)
		if tr != nil {
			run := fmt.Sprintf("r%d/%d", n, i)
			id := tr.add("serve.request", 0, run, r.start, r.end)
			queued := r.start.Add(time.Duration(r.view.QueuedMS) * time.Millisecond)
			tr.add("serve.queue", id, run, r.start, queued)
			tr.add("serve.run", id, run, queued, queued.Add(time.Duration(r.view.RunMS)*time.Millisecond))
		}
	}
	rep.check(uncached == len(b.sched.canon), "round %d: %d uncached responses, %d distinct digests",
		n, uncached, len(b.sched.canon))
	b.checkStore(rep, dir, n)
	return rd, out, os.RemoveAll(dir)
}

// record checks one response against the schedule and against every
// earlier response for its digest: identical bytes, always.
func (b *serveBench) record(rep *report, r serveResp) {
	rep.check(r.view.Digest == r.item.digest, "server digest %s, canonicalized here %s", r.view.Digest, r.item.digest)
	if prev, ok := b.results[r.view.Digest]; ok {
		rep.check(bytes.Equal(prev, r.view.Result), "digest %s: responses differ", r.view.Digest[:12])
	} else {
		b.results[r.view.Digest] = append([]byte(nil), r.view.Result...)
	}
}

// checkStore reopens a shut-down server's store and requires one
// verified record per computed digest beside the pre-fill.
func (b *serveBench) checkStore(rep *report, dir string, n int) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		rep.check(false, "round %d: reopen store: %v", n, err)
		return
	}
	defer st.Close()
	seen := map[string]int{}
	st.Each(func(r store.Record) {
		if err := r.Verify(); err != nil {
			rep.check(false, "round %d: store record %s: %v", n, r.Digest[:12], err)
		}
		seen[r.Digest]++
	})
	for d := range b.sched.canon {
		rep.check(seen[d] == 1, "round %d: store holds %d records of %s", n, seen[d], d[:12])
	}
	s := st.Stats()
	rep.check(s.SkippedCorrupt == 0 && s.SkippedVerify == 0, "round %d: store skipped %d corrupt, %d unverified records",
		n, s.SkippedCorrupt, s.SkippedVerify)
	rep.check(st.Len() == servePrefill+len(b.sched.canon), "round %d: store holds %d records, want %d",
		n, st.Len(), servePrefill+len(b.sched.canon))
}

func getMetrics(client *http.Client, url string) (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func runServe(o options) (*report, error) {
	sched, err := newServeSchedule(o.seed, parallel)
	if err != nil {
		return nil, err
	}
	b := &serveBench{o: o, sched: sched, template: filepath.Join(outDir, "serve", "prefill"), results: map[string][]byte{}}
	if err := prefill(b.template, o.seed); err != nil {
		return nil, fmt.Errorf("prefill store: %w", err)
	}
	rep := newReport()
	var setup []float64
	for i := 0; i < serveSetupPasses; i++ {
		runtime.GC()
		dir := filepath.Join(outDir, "serve", "setup")
		srv, d, err := b.startServer(dir)
		if err != nil {
			return nil, err
		}
		srv.Close()
		setup = append(setup, d.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	var last serveRoundOut
	rounds, traced, tr, err := timedRounds(o, rep, func(tr *tracer) (round, error) {
		rd, out, err := b.round(rep, tr)
		last = out
		return rd, err
	})
	if err != nil {
		return nil, err
	}

	// Outside the timed region: every computed result, recomputed here.
	counts, reqs, err := b.recompute(rep, tr)
	if err != nil {
		return nil, err
	}
	if o.trace {
		b.serveLayers(rep, last)
	}
	return rep, rep.finish(o, median(setup), setup, rounds, traced, reqs, &counts, tr)
}

// recompute simulates every digest the schedule computes directly
// through sim.New and requires the server's competitive result to
// match, field for field. It returns the counts of the distinct Systems
// one round needs, each co-run and each baseline once, and the DRAM
// requests they service. That is the work a round must do, not what
// the server ran: Server.execute simulates both baselines again for
// every job, and a server that shares them does the same work in less
// time.
func (b *serveBench) recompute(rep *report, tr *tracer) (layerCounts, uint64, error) {
	type cellJobs struct{ g, p, co int }
	var jobs []simJob
	baseIdx := map[string]int{}
	baseline := func(j simJob) (int, error) {
		key, err := json.Marshal(j.cfg)
		if err != nil {
			return 0, err
		}
		k := j.id + string(key) + fmt.Sprint(j.descs[0].Scale)
		if i, ok := baseIdx[k]; ok {
			return i, nil
		}
		baseIdx[k] = len(jobs)
		jobs = append(jobs, j)
		return len(jobs) - 1, nil
	}
	// Digests in sorted order, so the jobs, and the digest of their
	// results, do not depend on map iteration.
	var digests []string
	for d := range b.sched.canon {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	cells := map[string]cellJobs{}
	def := config.Scaled().Sched
	for _, d := range digests {
		c := b.sched.canon[d]
		cfg := c.Cfg
		cfg.Engine = b.o.engine
		// Baselines run under FR-FCFS, which has no use for F3FS's caps,
		// so requests that differ only in caps share them, as the cap
		// cells of experiments' collaborative runs do; the field-for-field
		// check below holds the server's results to that.
		base := cfg
		base.Sched.F3FSMemCap, base.Sched.F3FSPIMCap = def.F3FSMemCap, def.F3FSPIMCap
		gj, err := gpuAloneJob(base, c.Scale, c.GPUID, cfg.GPU.NumSMs)
		if err != nil {
			return layerCounts{}, 0, err
		}
		pj, err := pimAloneJob(base, c.Scale, c.PIMID)
		if err != nil {
			return layerCounts{}, 0, err
		}
		cj, err := coRunJob(cfg, c.Scale, c.GPUID, c.PIMID, c.Policy, c.VCMode())
		if err != nil {
			return layerCounts{}, 0, err
		}
		var cell cellJobs
		if cell.g, err = baseline(gj); err != nil {
			return layerCounts{}, 0, err
		}
		if cell.p, err = baseline(pj); err != nil {
			return layerCounts{}, 0, err
		}
		cell.co = len(jobs)
		jobs = append(jobs, cj)
		cells[d] = cell
	}
	outs, err := runJobs(jobs, tr)
	if err != nil {
		return layerCounts{}, 0, err
	}
	var counts layerCounts
	var reqs uint64
	for _, out := range outs {
		counts.add(out)
		reqs += simReqs(out.res)
	}
	for _, d := range digests {
		cell := cells[d]
		var res serve.Result
		if err := json.Unmarshal(b.results[d], &res); err != nil || res.Competitive == nil {
			rep.check(false, "digest %s: no competitive result (%v)", d[:12], err)
			continue
		}
		c := res.Competitive
		got := cellFigures{
			GPUSpeedup: c.GPUSpeedup, PIMSpeedup: c.PIMSpeedup, Fairness: c.Fairness, Throughput: c.Throughput,
			MemArrivalNorm: c.MemArrivalNorm, Switches: c.Switches, ConflictsPerSwitch: c.ConflictsPerSwitch,
			DrainPerSwitch: c.DrainPerSwitch, AvgMemQ: c.AvgMemQ, AvgPIMQ: c.AvgPIMQ, Aborted: c.Aborted,
		}
		want := figuresOf(outs[cell.g].res, outs[cell.p].res, outs[cell.co].res)
		rep.check(got == want, "digest %s (%s): served %+v, recomputed %+v", d[:12], jobs[cell.co].id, got, want)
		rep.check(res.Digest == d && c.Faults == nil, "digest %s: result names %s", d[:12], res.Digest)
	}
	for i, j := range jobs {
		rep.problems(channelProblems(j.id, outs[i].res))
	}
	rep.SimDigest = simDigest(outs)
	return counts, reqs, nil
}

// serveLayers fills the serve layer's metrics from the traced rounds.
func (b *serveBench) serveLayers(rep *report, last serveRoundOut) {
	var hit, cold, queued, run []float64
	for _, r := range last.resps {
		if r.err != nil {
			continue
		}
		ms := float64(r.end.Sub(r.start).Nanoseconds()) / 1e6
		if r.view.Cached {
			hit = append(hit, ms)
		} else {
			cold = append(cold, ms)
			queued = append(queued, float64(r.view.QueuedMS))
			run = append(run, float64(r.view.RunMS))
		}
	}
	rep.check(tailPerMille(len(hit)) >= 990 && tailPerMille(len(cold)) >= 950,
		"%d hits and %d cold requests are too few for p99 and p95", len(hit), len(cold))
	rep.setLayer("serve.hit_p50_ms", percentile(hit, 500))
	rep.setLayer("serve.hit_p99_ms", percentile(hit, 990))
	rep.setLayer("serve.cold_p50_ms", percentile(cold, 500))
	rep.setLayer("serve.cold_p95_ms", percentile(cold, 950))
	rep.setLayer("serve.queue_ms", median(queued))
	rep.setLayer("serve.run_ms", median(run))
	cs := last.metrics.Cache
	rep.setLayer("serve.cache_hits", float64(cs.Hits))
	rep.setLayer("serve.cache_joins", float64(cs.Joins))
	rep.setLayer("serve.cache_misses", float64(cs.Misses))
	rep.setLayer("serve.hit_ratio", cs.HitRate)

	// Canonicalization over the whole schedule, per request.
	var canon []float64
	for pass := 0; pass < serveSetupPasses; pass++ {
		t0 := time.Now()
		for _, req := range b.sched.reqs {
			if c, err := serve.Canonicalize(req); err == nil {
				_ = c.Digest()
			}
		}
		canon = append(canon, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(b.sched.reqs)))
	}
	rep.setLayer("serve.canon_us", median(canon))

	// store.Put of this run's own cold results on a throwaway store.
	dir := filepath.Join(outDir, "serve", "persist")
	if err := os.RemoveAll(dir); err != nil {
		rep.check(false, "persist store: %v", err)
		return
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: true})
	if err != nil {
		rep.check(false, "persist store: %v", err)
		return
	}
	var puts []float64
	for _, d := range b.sched.cold {
		canonBytes, err := json.Marshal(b.sched.canon[d])
		if err != nil {
			continue
		}
		t0 := time.Now()
		ok := st.Put(d, canonBytes, b.results[d])
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e6)
		rep.check(ok, "persist store: record %s dropped", d[:12])
	}
	st.Close()
	rep.setLayer("serve.persist_ms", median(puts))
	if err := os.RemoveAll(dir); err != nil {
		rep.check(false, "persist store: %v", err)
	}
}
