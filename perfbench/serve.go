package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/serve"
)

// serveSpec is one daemon workload: open-loop Poisson arrivals at rate
// requests per second, drawing creatives from a repeating pool of pool
// entries, or never repeating one when pool is 0.
type serveSpec struct {
	rate  float64
	pool  int
	fleet bool
}

var (
	serveRotation = serveSpec{rate: 40, pool: 132}
	fleetCold     = serveSpec{rate: 6, fleet: true}
)

const readyTimeout = 150 * time.Second

// daemonArgs are the flags every daemon of the benchmark runs with.
var daemonArgs = []string{"-res", "224", "-pretrained"}

// stream is the seeded request stream of one load phase.
type stream struct {
	bodies [][]byte // encoded creatives
	items  []int    // items[i]: the creative request i sends
	warm   []int    // creatives sent once, untimed, before the loop
}

// newStream draws n requests. A pool workload sends pool entries drawn
// uniformly with rng and warms the whole pool first; a cold workload sends
// creative i as request i and warms the connections with conns extra
// creatives.
func newStream(creativeSeed int64, spec serveSpec, n, conns int, rng *rand.Rand) (*stream, error) {
	s := &stream{items: make([]int, n)}
	var err error
	if spec.pool > 0 {
		s.bodies, err = makeCreatives(creativeSeed, spec.pool)
		for i := range s.items {
			s.items[i] = rng.Intn(spec.pool)
		}
		for k := 0; k < spec.pool; k++ {
			s.warm = append(s.warm, k)
		}
		return s, err
	}
	s.bodies, err = makeCreatives(creativeSeed, n+conns)
	for i := range s.items {
		s.items[i] = i
	}
	for k := n; k < n+conns; k++ {
		s.warm = append(s.warm, k)
	}
	return s, err
}

// fleetDaemons is a running workload topology: front answers /classify,
// peers serve a fleet front over the socket wire.
type fleetDaemons struct {
	front *daemon
	peers []*daemon
}

func (f fleetDaemons) all() []*daemon { return append([]*daemon{f.front}, f.peers...) }

// startTopology launches the workload's daemons and returns once the front
// can serve, with the set-up time corrected for steal.
func startTopology(rc *runCtx, spec serveSpec) (fleetDaemons, float64, error) {
	var top fleetDaemons
	start := time.Now()
	if spec.fleet {
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("peer%d", k)
			d, err := startDaemon(rc.serveBin, name, filepath.Join(rc.dir, name+".log"),
				append(daemonArgs, "-wire-listen", "127.0.0.1:0")...)
			if err != nil {
				return top, 0, err
			}
			top.peers = append(top.peers, d)
		}
		for _, d := range top.peers {
			if err := d.waitReady(readyTimeout); err != nil {
				return top, 0, err
			}
		}
	}
	args := daemonArgs
	if spec.fleet {
		args = append(args, "-peers", top.peers[0].addr+","+top.peers[1].addr)
	}
	front, err := startDaemon(rc.serveBin, "front", filepath.Join(rc.dir, "front.log"), args...)
	if err != nil {
		return top, 0, err
	}
	top.front = front
	if err := front.waitReady(readyTimeout); err != nil {
		return top, 0, err
	}
	ready := time.Now()
	return top, rc.clock.correct(ready.Sub(start).Seconds(), start, ready), nil
}

// warmUp sends the stream's warm-up creatives over conns connections,
// untimed.
func warmUp(client *classifyClient, st *stream, conns int) error {
	next := make(chan int, len(st.warm)) // sized to the number of sends
	for _, k := range st.warm {
		next <- k
	}
	close(next)
	errs := make(chan error, conns) // one result per worker
	for w := 0; w < conns; w++ {
		go func() {
			for k := range next {
				if _, _, err := client.classify(st.bodies[k]); err != nil {
					errs <- fmt.Errorf("warm-up request: %w", err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counterDeltas is the change of every daemon's /metrics over the load.
type counterDeltas struct {
	before, after []promSnapshot
}

// front is the delta of one metric on the front daemon.
func (c counterDeltas) front(name string) float64 {
	return c.after[0].sum(name) - c.before[0].sum(name)
}

// peers is the delta of one metric summed over the peer daemons.
func (c counterDeltas) peers(name string) float64 {
	total := 0.0
	for k := 1; k < len(c.after); k++ {
		total += c.after[k].sum(name) - c.before[k].sum(name)
	}
	return total
}

func scrapeAll(ds []*daemon) ([]promSnapshot, error) {
	out := make([]promSnapshot, len(ds))
	for i, d := range ds {
		snap, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = snap
	}
	return out, nil
}

func runServe(rc *runCtx, spec serveSpec) (*report, error) {
	rep := newReport()
	defer stopAll()
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(rc.seed))
	sched := poissonSchedule(rng, spec.rate, rc.seconds)
	if len(sched) == 0 {
		return nil, errors.New("the schedule is empty; raise --seconds")
	}
	st, err := newStream(rc.seed, spec, len(sched), conns, rng)
	if err != nil {
		return nil, err
	}

	top, setup, err := startTopology(rc, spec)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	client := newClassifyClient(top.front.url("/classify"), conns)
	defer client.close()
	if err := warmUp(client, st, conns); err != nil {
		return nil, err
	}
	var cd counterDeltas
	if cd.before, err = scrapeAll(top.all()); err != nil {
		return nil, err
	}
	var httpTr *Tracer
	if rc.trace {
		httpTr = newTracer()
	}
	out, loopStart := openLoop(sched, conns, func(i int) (float64, string, error) {
		s := httpTr.begin("http.POST /classify", 0, int64(i))
		defer httpTr.end(s)
		return client.classify(st.bodies[st.items[i]])
	})
	if rc.trace {
		if err := writeTrace(filepath.Join(rc.dir, "daemon"), httpTr.Spans()); err != nil {
			return nil, err
		}
	}
	if cd.after, err = scrapeAll(top.all()); err != nil {
		return nil, err
	}
	rss := 0.0
	for _, d := range top.all() {
		mb, err := d.peakRSS()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	rep.set("peak_rss_mb", rss)
	daemonLoad := summariseLoad(out, loopStart, rc.clock)
	rep.details["daemon_load"] = daemonLoad
	rep.set("latency_p50_ms", daemonLoad.P50MS)
	rep.set("latency_p90_ms", daemonLoad.P90MS)
	rep.set("load.send_delay_p90_ms", daemonLoad.DelayP90)
	rep.set("load.send_delay_max_ms", daemonLoad.DelayMax)
	reportCounters(rep, spec, cd)

	// The traced run replays the stream in-process: the daemon is opaque,
	// so the benchmark makes the calls /classify makes and times them.
	// A fleet replay dials the same peers, so only the front stops.
	var replays []replayPhase
	if rc.trace {
		top.front.stop()
		if replays, err = replay(rc, rep, spec, st, sched, top.peers); err != nil {
			return nil, err
		}
		rep.set("edge.http_overhead_ms", daemonLoad.P50MS-replays[0].load.P50MS)
		rep.set("trace.overhead_pct", 100*ratio(replays[1].load.P50MS-replays[0].load.P50MS, replays[0].load.P50MS))
	}
	stopAll()

	// Every verdict must equal core.Classify on the same decoded frame.
	svc, err := paperService()
	if err != nil {
		return nil, err
	}
	var refTracer *Tracer
	if rc.trace {
		refTracer = newTracer()
	}
	refs, err := referenceScores(svc, st.bodies, conns, refTracer)
	if err != nil {
		return nil, err
	}
	check(rep, "daemon", out, st.items, refs)
	for _, ph := range replays {
		phaseRefs := refs
		if ph.st != st {
			if phaseRefs, err = referenceScores(svc, ph.st.bodies, conns, nil); err != nil {
				return nil, err
			}
		}
		check(rep, ph.name, ph.out, ph.st.items, phaseRefs)
	}
	if rc.trace {
		sum := summarise(refTracer.Spans())
		rep.set("imaging.decode_ms", sum["imaging.Decode"].WallMS)
		rep.set("imaging.hash_ms", sum["imaging.ContentKey"].WallMS)
		rep.set("imaging.resize_ms", sum["imaging.ResizeBilinearInto"].WallMS)
		rep.set("engine.infer_batch_ms", sum["engine.InferBatchInto"].WallMS)
		if err := writeTrace(filepath.Join(rc.dir, "reference"), refTracer.Spans()); err != nil {
			return nil, err
		}
		if err := measureKernels(rep, filepath.Join(rc.dir, "kernels")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// check compares each answer with the reference score of its creative,
// bit for bit, and counts the requests. A mismatch is a failed request and
// makes the run incorrect.
func check(rep *report, phase string, out []sent, items []int, refs []float64) {
	mismatches := 0
	for i, o := range out {
		rep.attempted++
		switch {
		case o.err != nil:
			rep.fail("%s request %d: %v", phase, i, o.err)
		case o.score != refs[items[i]]:
			mismatches++
			rep.fail("%s request %d scored %v, reference %v", phase, i, o.score, refs[items[i]])
		}
	}
	if mismatches > 0 {
		rep.problem("%s: %d scores differ from the reference", phase, mismatches)
	}
}

// reportCounters turns the daemons' /metrics deltas into per-layer counts
// and asserts that the workload exercised what it claims to.
func reportCounters(rep *report, spec serveSpec, cd counterDeltas) {
	submitted := cd.front("percival_serve_submitted_total")
	hits := cd.front("percival_serve_cache_hits_total")
	coalesced := cd.front("percival_serve_coalesced_total")
	classified := cd.front("percival_serve_classified_total")
	batches := cd.front("percival_serve_batches_total")
	rep.set("serve.submitted", submitted)
	rep.set("serve.cache_hits", hits)
	rep.set("serve.coalesced", coalesced)
	rep.set("serve.classified", classified)
	rep.set("serve.batches", batches)
	rep.set("serve.shed", cd.front("percival_serve_shed_total"))
	rep.set("serve.cache_hit_ratio", ratio(hits, submitted))
	rep.set("serve.coalesced_ratio", ratio(coalesced, submitted))
	rep.set("serve.batch_fill_mean", ratio(classified, batches))
	rep.set("engine.errors", cd.front("percival_engine_errors_total")+cd.peers("percival_engine_errors_total"))
	rep.set("engine.hedges", cd.front("percival_fleet_hedges_total"))
	rep.set("engine.fallbacks", cd.front("percival_fleet_fallbacks_total"))
	rep.set("wire.probe_hits", cd.peers("percival_wire_sock_probe_hits_total"))
	rep.set("wire.bytes", cd.peers("percival_wire_sock_bytes_in_total")+cd.peers("percival_wire_sock_bytes_out_total"))
	pix := cd.front("percival_fleet_peer_wire_frames_pixels_total")
	dedup := cd.front("percival_fleet_peer_wire_frames_dedup_total")
	wireBytes := cd.front("percival_fleet_peer_wire_bytes_out_total") + cd.front("percival_fleet_peer_wire_bytes_in_total")
	rep.set("engine.wire_bytes_per_frame", ratio(wireBytes, pix+dedup))
	rep.set("engine.dedup_ratio", ratio(dedup, pix+dedup))

	share := ratio(hits, submitted)
	switch {
	case spec.pool > 0 && share < 0.99:
		rep.problem("serve_rotation cache-hit share %.4f < 0.99: the pool did not stay cached", share)
	case spec.pool == 0 && share > 0.01:
		rep.problem("cold workload cache-hit share %.4f > 0.01: creatives repeated", share)
	}
	if spec.fleet {
		labels := cd.after[0].labelled("percival_fleet_peer_wire_bytes_out_total")
		socket := 0
		for _, l := range labels {
			if strings.Contains(l, `transport="socket"`) {
				socket++
			}
		}
		if len(labels) != 2 || socket != 2 {
			rep.problem("fleet front should reach 2 peers over the socket wire, /metrics shows %v", labels)
		}
		if f := cd.front("percival_fleet_fallbacks_total"); f != 0 {
			rep.problem("fleet front fell back to its local model %v times", f)
		}
	}
}

// replayPhase is one in-process replay of the stream.
type replayPhase struct {
	name string
	st   *stream
	out  []sent
	load loadSummary
}

// replay runs the stream through the calls /classify makes —
// imaging.Decode, then serve.Server.Submit — on a serve.Server built with
// the daemon's default options, first untraced and then traced. A cold
// workload replays fresh creatives from the same generator, because the
// fleet peers' verdict caches already hold the daemon phase's ones.
func replay(rc *runCtx, rep *report, spec serveSpec, st *stream, sched []time.Duration, peers []*daemon) ([]replayPhase, error) {
	conns := runtime.NumCPU()
	svc, err := paperService()
	if err != nil {
		return nil, err
	}
	var backend engine.Backend = svc.Engine()
	timer := &batchTimer{span: "engine.InferBatchInto"}
	shards := 1
	if spec.fleet {
		// the daemon's -peers defaults: auto wire, 5 s timeout, 2 retries,
		// static routing, the local model as fallback, one shard per peer
		var remotes []*engine.RemoteBackend
		for _, p := range peers {
			rb, err := engine.NewRemote(p.addr, engine.RemoteOptions{Timeout: 5 * time.Second, Retries: 2, ExpectRes: svc.InputRes()})
			if err != nil {
				return nil, err
			}
			remotes = append(remotes, rb)
		}
		fleet, err := engine.NewFleet(remotes, engine.FleetOptions{
			EvictAfter: 3, RedialMax: 15 * time.Second, HedgeQuantile: 0.99, Fallback: svc.Engine(),
		})
		if err != nil {
			return nil, err
		}
		defer fleet.Close()
		backend = fleet
		timer.span = "engine.Fleet.InferBatchInto"
		shards = len(remotes)
	}
	srv, err := serve.New(svc, serve.Options{
		MaxBatch:  16,
		Linger:    2 * time.Millisecond,
		Deadline:  500 * time.Millisecond,
		CacheSize: 4096,
		Shards:    shards,
		Backend:   timedBackend{Backend: backend, t: timer},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.Warm()

	var phases []replayPhase
	for k, traced := range []bool{false, true} {
		ph := replayPhase{name: "replay", st: st}
		var tr *Tracer
		if traced {
			ph.name, tr = "traced_replay", newTracer()
		}
		if spec.pool == 0 {
			if ph.st, err = newStream(rc.seed+int64(k+1)*1_000_003, spec, len(sched), conns, nil); err != nil {
				return nil, err
			}
		}
		srv.ResetCache()
		for _, i := range ph.st.warm {
			frame, _, err := imaging.Decode(ph.st.bodies[i])
			if err != nil {
				return nil, err
			}
			srv.Submit(frame)
		}
		timer.reset(tr)
		var loopStart time.Time
		ph.out, loopStart = openLoop(sched, conns, func(i int) (float64, string, error) {
			return replayOne(srv, timer, tr, int64(i), ph.st.bodies[ph.st.items[i]])
		})
		ph.load = summariseLoad(ph.out, loopStart, rc.clock)
		rep.details[ph.name+"_load"] = ph.load
		phases = append(phases, ph)
		if traced {
			if err := tracedLayers(rc, rep, timer, tr, spec); err != nil {
				return nil, err
			}
		}
	}
	return phases, nil
}

// replayOne is one /classify request without the HTTP edge.
func replayOne(srv *serve.Server, timer *batchTimer, tr *Tracer, req int64, body []byte) (float64, string, error) {
	root := tr.begin("edge.request", 0, req)
	defer tr.end(root)
	s := tr.begin("imaging.Decode", root.id, req)
	frame, _, err := imaging.Decode(body)
	tr.end(s)
	if err != nil {
		return 0, "", err
	}
	s = tr.begin("serve.Submit", root.id, req)
	if tr != nil {
		timer.owners.Store(frame, s)
	}
	res := srv.Submit(frame)
	if tr != nil {
		timer.owners.Delete(frame)
	}
	tr.end(s)
	if res.Status == serve.StatusShed {
		return 0, res.Status.String(), errors.New("shed")
	}
	return res.Score, res.Status.String(), nil
}

// batchTimer is shared by every replica of a timedBackend: it times each
// batch and, when tracing, records one span per frame under the Submit
// span that frame belongs to.
type batchTimer struct {
	span   string
	owners sync.Map // *imaging.Bitmap -> openSpan of its Submit

	mu      sync.Mutex
	tr      *Tracer
	batchMS []float64
	frames  int
}

func (t *batchTimer) reset(tr *Tracer) {
	t.mu.Lock()
	t.tr, t.batchMS, t.frames = tr, nil, 0
	t.mu.Unlock()
}

// timedBackend wraps the backend serve dispatches to. It forwards the
// fleet's health and window reports so serve sees the same backend it sees
// in the daemon.
type timedBackend struct {
	engine.Backend
	t *batchTimer
}

func (b timedBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	start := time.Now()
	out = b.Backend.InferBatchInto(frames, out)
	end := time.Now()
	b.t.mu.Lock()
	b.t.batchMS = append(b.t.batchMS, float64(end.Sub(start))/1e6)
	b.t.frames += len(frames)
	tr := b.t.tr
	b.t.mu.Unlock()
	if tr != nil {
		for _, f := range frames {
			if v, ok := b.t.owners.Load(f); ok {
				o := v.(openSpan)
				tr.record(b.t.span, o.id, o.req, start, end)
			}
		}
	}
	return out
}

func (b timedBackend) Replicate() engine.Backend {
	return timedBackend{Backend: b.Backend.Replicate(), t: b.t}
}

// PeerHealth implements engine.HealthReporter.
func (b timedBackend) PeerHealth() []engine.PeerHealthInfo {
	if hr, ok := b.Backend.(engine.HealthReporter); ok {
		return hr.PeerHealth()
	}
	return nil
}

// WindowStats implements engine.WindowReporter.
func (b timedBackend) WindowStats() []engine.WindowStat {
	if wr, ok := b.Backend.(engine.WindowReporter); ok {
		return wr.WindowStats()
	}
	return nil
}

// tracedLayers derives the serve and engine rows from the traced replay.
func tracedLayers(rc *runCtx, rep *report, timer *batchTimer, tr *Tracer, spec serveSpec) error {
	spans := tr.Spans()
	sub := summarise(spans)["serve.Submit"]
	rep.set("serve.submit_ms", sub.WallMS)
	rep.set("serve.self_ms", sub.SelfMS)
	timer.mu.Lock()
	rep.set("engine.frames_per_batch", ratio(float64(timer.frames), float64(len(timer.batchMS))))
	if spec.fleet {
		rep.set("engine.fleet_dispatch_ms", quantile(timer.batchMS, 0.5))
	}
	timer.mu.Unlock()
	return writeTrace(filepath.Join(rc.dir, "replay"), spans)
}
