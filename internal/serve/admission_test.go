package serve

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// admClock drives an AdmissionController's time source deterministically.
type admClock struct {
	mu sync.Mutex
	t  time.Time
}

func newAdmClock() *admClock {
	return &admClock{t: time.Unix(1700000000, 0)}
}

func (c *admClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testController builds a ladder-armed controller (1ms linger, 1s
// deadline, batch cap 16 unless opts sets them) on a fake clock, with
// 50ms enter and exit holds.
func testController(opts Options, windows engine.WindowReporter) (*AdmissionController, *admClock) {
	if opts.Linger == 0 {
		opts.Linger = time.Millisecond
	}
	if opts.Deadline == 0 {
		opts.Deadline = time.Second
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 16
	}
	c := newAdmissionController(opts, windows)
	c.enterHold, c.exitHold = 50*time.Millisecond, 50*time.Millisecond
	clk := newAdmClock()
	c.now = clk.now
	return c, clk
}

// drive feeds n full-pressure (or zero-pressure) admissions with dt between
// them.
func drive(c *AdmissionController, clk *admClock, n int, qlen, qcap int, dt time.Duration) {
	for i := 0; i < n; i++ {
		clk.advance(dt)
		c.admit(qlen, qcap)
	}
}

func TestAdmissionLadderEscalatesAndReleases(t *testing.T) {
	c, clk := testController(Options{}, nil)
	if c.Stage() != BrownoutNormal {
		t.Fatalf("fresh controller at stage %v", c.Stage())
	}
	// sustained full queue: the ladder climbs one stage per EnterHold
	drive(c, clk, 200, 64, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutShed {
		t.Fatalf("stage after sustained overload = %v, want %v", c.Stage(), BrownoutShed)
	}
	// load drops: the ladder steps back down to normal, one ExitHold each
	drive(c, clk, 400, 0, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutNormal {
		t.Fatalf("stage after load drop = %v, want %v", c.Stage(), BrownoutNormal)
	}
	if c.Transitions() < 6 {
		t.Fatalf("transitions = %d, want >= 6 (3 up + 3 down)", c.Transitions())
	}
}

func TestAdmissionLadderHysteresis(t *testing.T) {
	c, clk := testController(Options{}, nil)
	// a short burst (shorter than EnterHold) must not move the ladder
	drive(c, clk, 100, 64, 64, 100*time.Microsecond)
	if c.Stage() != BrownoutNormal {
		t.Fatalf("ladder moved on a sub-hold burst: %v", c.Stage())
	}
	// climb a stage or two, then sit inside the hysteresis band: the stage
	// holds — neither climbing (below enter) nor releasing (above exit)
	drive(c, clk, 15, 64, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutCacheOnly && c.Stage() != BrownoutDegraded {
		t.Fatalf("stage after overload = %v, want cache-only or degraded", c.Stage())
	}
	st := c.Stage()
	// drop the EWMA straight into the band (its natural decay from ~1.0
	// would spend another EnterHold above the threshold — a real step, not
	// drift), then hold occupancy there
	c.pressure.Store(pressureBits(0.56))
	drive(c, clk, 500, 36, 64, 5*time.Millisecond) // occupancy 0.56: between exit and enter
	if c.Stage() != st {
		t.Fatalf("stage drifted inside the hysteresis band: %v -> %v", st, c.Stage())
	}
}

func TestAdmissionStageAdjustedKnobs(t *testing.T) {
	c, _ := testController(Options{Linger: 4 * time.Millisecond}, nil)
	if got := c.batchCap(); got != 16 {
		t.Fatalf("stage-0 batch cap = %d, want 16", got)
	}
	if got := c.shedDeadline(); got != time.Second {
		t.Fatalf("stage-0 deadline = %v, want 1s", got)
	}
	if got := c.linger(); got != 4*time.Millisecond {
		t.Fatalf("stage-0 linger = %v, want the configured 4ms", got)
	}
	c.stage.Store(int32(BrownoutDegraded))
	if got := c.batchCap(); got != 8 {
		t.Fatalf("degraded batch cap = %d, want 8", got)
	}
	if got := c.shedDeadline(); got != 500*time.Millisecond {
		t.Fatalf("degraded deadline = %v, want 500ms", got)
	}
	if got := c.linger(); got != lingerFloor {
		t.Fatalf("degraded linger = %v, want the %v floor", got, lingerFloor)
	}

	one, _ := testController(Options{MaxBatch: 1, Linger: 50 * time.Microsecond}, nil)
	one.stage.Store(int32(BrownoutDegraded))
	if got := one.batchCap(); got != 1 {
		t.Fatalf("degraded batch cap floor = %d, want 1", got)
	}
	if got := one.linger(); got != 50*time.Microsecond {
		t.Fatalf("degraded linger = %v, want the configured 50µs (below the floor)", got)
	}

	off := newAdmissionController(Options{Linger: time.Millisecond, MaxBatch: 16}, nil)
	off.stage.Store(int32(BrownoutDegraded))
	if got := off.shedDeadline(); got != 0 {
		t.Fatalf("disabled deadline must stay disabled, got %v", got)
	}
}

// TestAdmissionLadderMovesOnBatchPressure: dispatch waits alone — no
// leader admission in between — must move the ladder. A worker-saturated
// shard keeps reporting batches whose oldest member waited its whole
// deadline, and that pressure has to engage brownout on its own.
func TestAdmissionLadderMovesOnBatchPressure(t *testing.T) {
	c, clk := testController(Options{Deadline: 100 * time.Millisecond}, nil)
	for i := 0; i < 100; i++ {
		clk.advance(5 * time.Millisecond)
		c.observeBatch(100 * time.Millisecond)
	}
	if c.Stage() < BrownoutCacheOnly {
		t.Fatalf("saturated dispatch waits left the ladder at %v (pressure %.2f)",
			c.Stage(), c.Pressure())
	}
	// and quiet batches alone walk it back down
	for i := 0; i < 400; i++ {
		clk.advance(5 * time.Millisecond)
		c.observeBatch(0)
	}
	if c.Stage() != BrownoutNormal {
		t.Fatalf("quiet dispatch waits left the ladder at %v (pressure %.2f)",
			c.Stage(), c.Pressure())
	}
}

// stubWindows is a WindowReporter pinned at a fixed saturation.
type stubWindows struct{ stats []engine.WindowStat }

func (s stubWindows) WindowStats() []engine.WindowStat { return s.stats }

// pressureBits encodes a pressure value for direct injection into the
// controller's EWMA word.
func pressureBits(p float64) uint64 { return math.Float64bits(p) }

// slowBackend is an engine.Backend that sleeps per batch — the jammed-
// pipeline stand-in for admission tests.
type slowBackend struct {
	d   time.Duration
	res int
}

func (b slowBackend) Name() string              { return "slow-test" }
func (b slowBackend) InputRes() int             { return b.res }
func (b slowBackend) Replicate() engine.Backend { return b }
func (b slowBackend) Warm(int)                  {}
func (b slowBackend) Close()                    {}
func (b slowBackend) Stats() engine.Stats       { return engine.Stats{} }

func (b slowBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	time.Sleep(b.d)
	out = out[:len(frames)]
	for i := range out {
		out[i] = 0.5
	}
	return out
}

func TestAdmissionRemoteSaturationSignal(t *testing.T) {
	// every peer pinned at its window: remote congestion alone must push
	// pressure past EnterPressure even though the local queue is empty
	c, clk := testController(Options{}, stubWindows{stats: []engine.WindowStat{
		{Peer: "a", Cwnd: 1, InFlight: 1},
		{Peer: "b", Cwnd: 2, InFlight: 2},
	}})
	drive(c, clk, 100, 0, 64, 5*time.Millisecond)
	if c.Stage() < BrownoutCacheOnly {
		t.Fatalf("remote saturation did not engage brownout: stage %v, pressure %.2f",
			c.Stage(), c.Pressure())
	}
}

// TestAdmissionCoalescedPressureSignals covers the two signals that make
// overload visible in a coalescing service, where queue occupancy alone is
// structurally capped by the distinct-creative count: per-pop dispatch ages
// and mass-weighted deadline sheds.
func TestAdmissionCoalescedPressureSignals(t *testing.T) {
	newC := func() *AdmissionController {
		c, _ := testController(Options{Deadline: 100 * time.Millisecond}, nil)
		return c
	}

	// a leader popped at exactly its shed deadline is a full-pressure sample
	c := newC()
	c.observeDispatchWait(100 * time.Millisecond)
	if want := admAlpha * 1.0; math.Abs(c.Pressure()-want) > 1e-9 {
		t.Fatalf("deadline-age dispatch wait moved pressure to %.4f, want %.4f",
			c.Pressure(), want)
	}

	// a pathological age is clamped: one sample can't inject more than 1.25
	c = newC()
	c.observeDispatchWait(10 * time.Second)
	if want := admAlpha * 1.25; math.Abs(c.Pressure()-want) > 1e-9 {
		t.Fatalf("clamped dispatch wait moved pressure to %.4f, want %.4f",
			c.Pressure(), want)
	}

	// a deadline shed carries its follower mass: one resolution that strands
	// 64 coalesced clients must move pressure like the crowd it shed, not
	// like one EWMA sample
	lone, crowd := newC(), newC()
	lone.observeOverloadShed(1)
	crowd.observeOverloadShed(64)
	if want := admAlpha * 1.25; math.Abs(lone.Pressure()-want) > 1e-9 {
		t.Fatalf("mass-1 shed moved pressure to %.4f, want %.4f", lone.Pressure(), want)
	}
	if crowd.Pressure() < 1.0 {
		t.Fatalf("mass-64 shed moved pressure to %.4f, want near the 1.25 ceiling",
			crowd.Pressure())
	}

	// ladder-driven sheds stay excluded — at stage 3 every leader sheds, and
	// feeding those back in would hold the ladder up after the load is gone
	c = newC()
	c.observeShed()
	if c.Pressure() != 0 {
		t.Fatalf("ladder shed moved pressure to %.4f, want 0", c.Pressure())
	}
	if c.AdmissionSheds() != 1 {
		t.Fatalf("AdmissionSheds = %d, want 1", c.AdmissionSheds())
	}
}

// TestServeStage3ShedsAtEdgeButServesCache drives a real server pinned at
// stage 3: fresh leaders shed at admission without occupying queue
// capacity, while verdicts already cached keep being answered.
func TestServeStage3ShedsAtEdgeButServesCache(t *testing.T) {
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 4, Workers: 1, Shards: 1, Linger: time.Millisecond,
		Deadline: time.Second,
	})
	ac := s.Admission()
	frames := synth.SampleFrames(3, 5)
	// warm a verdict into the cache at stage 0
	if res := s.Submit(frames[0]); res.Status != StatusClassified {
		t.Fatalf("warm submit resolved %v", res.Status)
	}
	ac.stage.Store(int32(BrownoutShed))
	// hold the pressure at the ceiling so admit's evaluate cannot
	// release the pinned stage mid-test
	ac.pressure.Store(pressureBits(1.0))
	if res := s.Submit(frames[0]); res.Status != StatusCached {
		t.Fatalf("cached verdict at stage 3 resolved %v, want cached", res.Status)
	}
	if res := s.Submit(frames[1]); res.Status != StatusShed {
		t.Fatalf("fresh leader at stage 3 resolved %v, want shed", res.Status)
	}
	if got := ac.AdmissionSheds(); got < 1 {
		t.Fatalf("admission sheds = %d, want >= 1", got)
	}
	// shed waits land in the shed histogram, not the latency histogram
	if n := s.Metrics().ShedWaitMS.N(); n < 1 {
		t.Fatalf("shed wait histogram empty after an admission shed")
	}
	lat := s.Metrics().LatencyMS.N()
	if res := s.Submit(frames[2]); res.Status != StatusShed {
		t.Fatalf("second fresh leader resolved %v, want shed", res.Status)
	}
	if got := s.Metrics().LatencyMS.N(); got != lat {
		t.Fatalf("shed resolution leaked into LatencyMS: %d -> %d", lat, got)
	}
}

// TestServeAdmissionDeadlineShedsBlockedSubmitter covers the
// deadline-at-admission bugfix: a submitter blocked on a full queue past
// the shed deadline sheds instead of waiting to be shed at dispatch.
func TestServeAdmissionDeadlineShedsBlockedSubmitter(t *testing.T) {
	// a backend this slow with queue depth 1 jams the lone shard instantly
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 1, Workers: 1, Shards: 1, QueueDepth: 1,
		Deadline: 30 * time.Millisecond,
		Backend:  slowBackend{d: 300 * time.Millisecond, res: 16},
	})
	frames := synth.SampleFrames(6, 9)
	var wg sync.WaitGroup
	sheds := make(chan time.Duration, len(frames))
	for _, f := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if res := s.Submit(f); res.Status == StatusShed {
				sheds <- time.Since(start)
			}
		}()
	}
	wg.Wait()
	close(sheds)
	n, fast := 0, 0
	for took := range sheds {
		n++
		if took < 250*time.Millisecond {
			fast++
		}
	}
	if n == 0 {
		t.Fatal("no submission shed despite a jammed queue")
	}
	// requests already inside the pipeline legitimately shed late at
	// dispatch; the admission fix is about the ones still blocked at the
	// queue door — they must resolve around one deadline, not after the
	// pipeline drains (a model pass is 10x the deadline here). The old
	// dispatch-only shedding resolved every one of these at >= 300ms.
	if fast < 2 {
		t.Fatalf("only %d/%d sheds resolved within 250ms — submitters blocked past the admission deadline", fast, n)
	}
}

func TestAdmissionExpose(t *testing.T) {
	c, _ := testController(Options{}, nil)
	out := c.Expose()
	for _, want := range []string{
		"percival_serve_brownout_stage 0",
		"percival_serve_admission_pressure",
		"percival_serve_brownout_transitions_total 0",
		"percival_serve_admission_sheds_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Expose output missing %q:\n%s", want, out)
		}
	}
}

// TestAdaptiveServerServes: a multi-shard server with the admission ladder
// armed still produces the synchronous classifier's verdicts, and under
// no load the controller holds stage 0 and the configured linger.
func TestAdaptiveServerServes(t *testing.T) {
	svc := testCore(t, core.Options{})
	s, err := New(svc, Options{
		Shards: 2, Workers: 2, MaxBatch: 4, Linger: 200 * time.Microsecond,
		Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := synth.SampleFrames(71, 24)
	for i, f := range frames {
		r := s.Submit(f)
		if r.Status == StatusShed {
			t.Fatalf("frame %d shed with no load", i)
		}
		if want := svc.Classify(f); r.Score != want {
			t.Fatalf("frame %d: served score %v, sync %v", i, r.Score, want)
		}
	}
	if st := s.Admission().Stage(); st != BrownoutNormal {
		t.Fatalf("ladder at %v with no load", st)
	}
	if got := s.Admission().linger(); got != 200*time.Microsecond {
		t.Fatalf("linger %v, want the configured 200µs", got)
	}
}

// TestNoDeadlineNeverSheds: Deadline 0 means "never shed", and that holds
// for the ladder too — a saturated closed loop (a jammed one-slot queue in
// front of a slow model) blocks its submitters but never leaves
// BrownoutNormal, moves the pressure signal, or sheds a request.
func TestNoDeadlineNeverSheds(t *testing.T) {
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 1, Workers: 1, Shards: 1, QueueDepth: 1,
		Backend: slowBackend{d: 20 * time.Millisecond, res: 16},
	})
	frames := synth.SampleFrames(73, 8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if r := s.Submit(frames[(c+i)%len(frames)]); r.Status == StatusShed {
					t.Error("request shed with Deadline 0")
				}
				s.ResetCache()
			}
		}(c)
	}
	wg.Wait()
	adm := s.Admission()
	if adm.Stage() != BrownoutNormal || adm.Transitions() != 0 || adm.Pressure() != 0 {
		t.Fatalf("ladder moved with Deadline 0: stage %v, %d transitions, pressure %.2f",
			adm.Stage(), adm.Transitions(), adm.Pressure())
	}
	if n := s.Metrics().Shed.Load(); n != 0 {
		t.Fatalf("%d requests shed with Deadline 0", n)
	}
}

// panicBackend is slowBackend without the sleep, panicking on one sentinel
// frame — a backend bug the serving edge must contain.
type panicBackend struct {
	slowBackend
	poison *imaging.Bitmap
}

func (b panicBackend) Replicate() engine.Backend { return b }

func (b panicBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	for _, f := range frames {
		if f == b.poison {
			panic("poisoned frame")
		}
	}
	return b.slowBackend.InferBatchInto(frames, out)
}

// TestWorkerRecoversBackendPanic: a panic inside the backend's forward
// pass sheds only the batch it hit — counted in WorkerPanics — and the
// same worker goes on to score the next frame.
func TestWorkerRecoversBackendPanic(t *testing.T) {
	frames := synth.SampleFrames(79, 2)
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 1, Workers: 1, Shards: 1,
		Backend: panicBackend{slowBackend: slowBackend{res: 16}, poison: frames[0]},
	})
	if r := s.Submit(frames[0]); r.Status != StatusShed || r.Ad {
		t.Fatalf("poisoned frame resolved %+v, want a fail-open shed", r)
	}
	if r := s.Submit(frames[1]); r.Status != StatusClassified || r.Score != 0.5 {
		t.Fatalf("frame after the panic resolved %+v, want classified at 0.5", r)
	}
	m := s.Metrics()
	if n := m.WorkerPanics.Load(); n != 1 {
		t.Fatalf("WorkerPanics = %d, want 1", n)
	}
	if !strings.Contains(m.Expose(), "percival_serve_worker_panics_total 1") {
		t.Fatal("worker panics missing from the metrics exposition")
	}
	// the poisoned frame's verdict must not have been memoized
	if r := s.Submit(frames[0]); r.Status != StatusShed {
		t.Fatalf("poisoned frame resubmitted resolved %v, want shed again", r.Status)
	}
}
