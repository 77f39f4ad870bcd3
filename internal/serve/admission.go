package serve

// AdmissionController is the serving edge's one batching and overload
// controller: it sets the three levers the edge has — linger (how long a
// coalescer holds an underfull batch), batch cap (how much work one
// dispatch bites off), and admission itself (whether a new leader request
// may enter the bounded queue at all) — from one smoothed pressure signal.
// serve.New always builds one from Options.
//
// The linger is Options.Linger. The ladder below, its pressure signal and
// the stage-adjusted cap and deadline act only when Options.Deadline > 0:
// a zero deadline means "never shed", so the controller is then a fixed
// linger and nothing else.
//
// Pressure folds the signals the stack already produces into one EWMA in
// [0, ~1.25]:
//
//   - queue occupancy: every leader admission observes len(queue)/cap —
//     the direct "are we keeping up" signal;
//   - dispatch wait: every dispatched batch and every leader popped off the
//     queue observes its pre-dispatch wait over the shed deadline — catches
//     worker saturation while queues still look shallow;
//   - deadline sheds: a leader that aged out counts at the ceiling,
//     weighted by the followers coalesced behind it;
//   - remote congestion: when the backend gates peers with CUBIC windows
//     (engine.WindowReporter), mean in-flight/cwnd saturation is sampled —
//     catches a congested fleet before the local queue backs up.
//
// The pressure drives a graded brownout ladder with hysteresis:
//
//   stage 0 normal     — blocking admission (bounded by the shed deadline),
//                        configured linger, full batch cap;
//   stage 1 cache-only — over-budget requests get cache/coalesce service
//                        only: admission stops blocking, a full queue sheds
//                        immediately instead of queueing doomed work;
//   stage 2 degraded   — batch cap and shed deadline halve and linger drops
//                        to the floor: smaller bites, tighter deadlines,
//                        no waiting for fill;
//   stage 3 shed       — new leader work is shed at the edge; cache and
//                        coalesce hits are still answered (repeats are the
//                        common case — the cache IS the brownout capacity).
//
// Transitions move one stage at a time and are evaluated after every
// pressure sample: escalate after pressure has held above admEnter for the
// enter hold, release after it has held below admExit for the exit hold.
// The gap between the two thresholds plus the hold times is the hysteresis
// that keeps the ladder from flapping on a bursty boundary load.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/engine"
	"percival/internal/metrics"
)

// BrownoutStage is the admission controller's position on the overload
// ladder.
type BrownoutStage int32

// Ladder stages, mildest first.
const (
	BrownoutNormal    BrownoutStage = iota // full service
	BrownoutCacheOnly                      // over-budget requests: cache/coalesce only
	BrownoutDegraded                       // halved batch cap, tightened deadline, floor linger
	BrownoutShed                           // new leader work shed at the edge
)

// String names the stage for /healthz and logs.
func (st BrownoutStage) String() string {
	switch st {
	case BrownoutNormal:
		return "normal"
	case BrownoutCacheOnly:
		return "cache-only"
	case BrownoutDegraded:
		return "degraded"
	case BrownoutShed:
		return "shed"
	}
	return fmt.Sprintf("stage(%d)", int32(st))
}

// Controller constants.
const (
	// admEnter / admExit bound the hysteresis band: escalate above the
	// first, release below the second.
	admEnter = 0.75
	admExit  = 0.35
	// admEnterHold / admExitHold are how long pressure must sit past a
	// threshold before the ladder moves one stage — brownout engages faster
	// than it releases.
	admEnterHold = 100 * time.Millisecond
	admExitHold  = 300 * time.Millisecond
	// admAlpha is the pressure EWMA smoothing factor.
	admAlpha = 0.1
	// admCeiling caps one pressure sample, so a pathological wait cannot
	// inject more than a saturated queue does.
	admCeiling = 1.25
	// admWindowPeriod rate-limits remote-window sampling.
	admWindowPeriod = 25 * time.Millisecond
	// admWindowWeight discounts the remote-saturation signal: a pipeline
	// briefly running at its window is normal; only sustained saturation
	// should push past admEnter.
	admWindowWeight = 0.9
	// lingerFloor caps the linger under degraded brownout: with queues this
	// deep, batches fill on their own and holding them open is pure added
	// latency.
	lingerFloor = 200 * time.Microsecond
)

// AdmissionController is the unified batching and overload controller (see
// the comment above the type set). Safe for concurrent use from every
// shard's submitters, coalescers, and workers.
type AdmissionController struct {
	hold     time.Duration         // Options.Linger
	deadline time.Duration         // Options.Deadline; 0 leaves the ladder off
	maxBatch int                   // Options.MaxBatch
	windows  engine.WindowReporter // remote congestion feed, nil for none

	// enterHold / exitHold are admEnterHold / admExitHold; tests shorten them.
	enterHold, exitHold time.Duration

	stage    atomic.Int32
	pressure atomic.Uint64 // math.Float64bits of the EWMA

	// ladder/bookkeeping state, TryLock'd from the hot path: a sample that
	// loses the race simply leaves the evaluation to the winner.
	mu      sync.Mutex
	above   time.Time // since when pressure has sat above admEnter
	below   time.Time // since when pressure has sat below admExit
	lastWin time.Time // last windows sample
	winSat  float64   // last sampled mean in-flight/cwnd over peers

	transitions metrics.Counter // ladder moves, either direction
	admSheds    metrics.Counter // requests shed by the ladder at admission

	now func() time.Time // test clock hook
}

// newAdmissionController builds a controller at stage 0 from defaulted
// Options, reading congestion from windows (nil for none).
func newAdmissionController(opts Options, windows engine.WindowReporter) *AdmissionController {
	return &AdmissionController{
		hold:      opts.Linger,
		deadline:  opts.Deadline,
		maxBatch:  opts.MaxBatch,
		windows:   windows,
		enterHold: admEnterHold,
		exitHold:  admExitHold,
		now:       time.Now,
	}
}

// Stage returns the ladder's current stage.
func (c *AdmissionController) Stage() BrownoutStage {
	return BrownoutStage(c.stage.Load())
}

// Pressure returns the smoothed pressure signal.
func (c *AdmissionController) Pressure() float64 {
	return math.Float64frombits(c.pressure.Load())
}

// Transitions reports ladder moves in either direction.
func (c *AdmissionController) Transitions() int64 { return c.transitions.Load() }

// AdmissionSheds reports requests the ladder shed at admission (stage >= 1
// queue-full rejections and stage-3 edge sheds) — dispatch-time deadline
// sheds are not included.
func (c *AdmissionController) AdmissionSheds() int64 { return c.admSheds.Load() }

// sample folds one pressure reading x into the EWMA with weight w (CAS
// loop: the hot path never blocks on a lock for this), then advances the
// ladder. A no-op with the ladder off.
func (c *AdmissionController) sample(x, w float64) {
	if c.deadline <= 0 {
		return
	}
	if x > admCeiling {
		x = admCeiling
	}
	for {
		old := c.pressure.Load()
		p := math.Float64frombits(old)
		p += w * (x - p)
		if c.pressure.CompareAndSwap(old, math.Float64bits(p)) {
			break
		}
	}
	c.evaluate(c.now())
}

// waitPressure normalizes a wait by the shed deadline.
func (c *AdmissionController) waitPressure(wait time.Duration) float64 {
	return float64(wait) / float64(c.deadline)
}

// admit is called once per leader admission with the shard queue's
// occupancy. It feeds the pressure signal, advances the ladder, and returns
// the stage the submission must obey.
func (c *AdmissionController) admit(qlen, qcap int) BrownoutStage {
	if c.deadline <= 0 {
		return BrownoutNormal
	}
	x := 0.0
	if qcap > 0 {
		x = float64(qlen) / float64(qcap)
	}
	if c.windows != nil {
		if sat := c.sampleWindows(); sat*admWindowWeight > x {
			x = sat * admWindowWeight
		}
	}
	c.sample(x, admAlpha)
	return c.Stage()
}

// sampleWindows refreshes the remote-saturation reading at most once per
// admWindowPeriod and returns the latest value: the mean, over peers, of
// in-flight depth against the congestion window. A fleet pinned at its
// windows is congested no matter how shallow the local queues are. The
// reporter's rows cover only peers that can take traffic (the fleet
// excludes evicted and draining peers — see Fleet.WindowStats), so a
// mid-drain topology change neither dilutes the mean with a quiescing
// window nor spikes it with a collapsed one; an empty row set (no routable
// peer, dispatch on the local fallback) reads as zero remote saturation.
func (c *AdmissionController) sampleWindows() float64 {
	now := c.now()
	if !c.mu.TryLock() {
		return 0 // a concurrent sampler owns the fresh value this instant
	}
	defer c.mu.Unlock()
	if now.Sub(c.lastWin) >= admWindowPeriod {
		c.lastWin = now
		stats := c.windows.WindowStats()
		sat := 0.0
		for _, st := range stats {
			limit := st.Cwnd
			if limit < 1 {
				limit = 1
			}
			f := float64(st.InFlight) / limit
			if f > 1 {
				f = 1
			}
			sat += f
		}
		if len(stats) > 0 {
			sat /= float64(len(stats))
		}
		c.winSat = sat
	}
	return c.winSat
}

// evaluate advances the hysteresis ladder: one stage per enter hold above
// admEnter, one stage back per exit hold below admExit. TryLock —
// concurrent samples race to evaluate and only one needs to win.
func (c *AdmissionController) evaluate(now time.Time) {
	if !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	p := c.Pressure()
	st := c.stage.Load()
	switch {
	case p >= admEnter:
		c.below = time.Time{}
		if c.above.IsZero() {
			c.above = now
		}
		if st < int32(BrownoutShed) && now.Sub(c.above) >= c.enterHold {
			c.stage.Store(st + 1)
			c.transitions.Inc()
			c.above = now // the next step needs its own sustained hold
		}
	case p <= admExit:
		c.above = time.Time{}
		if c.below.IsZero() {
			c.below = now
		}
		if st > int32(BrownoutNormal) && now.Sub(c.below) >= c.exitHold {
			c.stage.Store(st - 1)
			c.transitions.Inc()
			c.below = now
		}
	default:
		// inside the hysteresis band: hold the stage, restart both clocks
		c.above, c.below = time.Time{}, time.Time{}
	}
}

// linger is the coalescer's batch hold: Options.Linger, capped at the
// floor under degraded brownout.
func (c *AdmissionController) linger() time.Duration {
	if c.hold > lingerFloor && c.Stage() >= BrownoutDegraded {
		return lingerFloor
	}
	return c.hold
}

// batchCap is the stage-adjusted dispatch bite: Options.MaxBatch normally,
// half (floor 1) under degraded brownout.
func (c *AdmissionController) batchCap() int {
	if c.maxBatch >= 2 && c.Stage() >= BrownoutDegraded {
		return c.maxBatch / 2
	}
	return c.maxBatch
}

// shedDeadline is the stage-adjusted shed deadline: Options.Deadline
// normally, halved under degraded brownout (0 stays 0 — disabled is
// disabled).
func (c *AdmissionController) shedDeadline() time.Duration {
	if c.Stage() >= BrownoutDegraded {
		return c.deadline / 2
	}
	return c.deadline
}

// observeBatch feeds one dispatched batch's pre-dispatch wait (the oldest
// member's queue + linger time, normalized by the shed deadline) into
// pressure — the signal that catches saturated workers behind shallow
// queues.
func (c *AdmissionController) observeBatch(wait time.Duration) {
	c.sample(c.waitPressure(wait), admAlpha)
}

// observeShed counts one ladder-driven admission shed. Deliberately not a
// pressure input: at stage 3 every leader sheds, and feeding those back in
// would pin the pressure high after the load is gone — the ladder could
// never release. Occupancy and dispatch waits are the ground truth.
func (c *AdmissionController) observeShed() { c.admSheds.Inc() }

// observeDispatchWait feeds one leader's queue age (sampled as it leaves
// the queue) into the pressure signal, normalized by the shed deadline. In
// a coalescing service the queue can stay structurally shallow — the leader
// population is bounded by the distinct-creative count — while every leader
// still ages toward the deadline; this per-pop sample is what reads
// saturation when occupancy cannot. Rate-matched with the per-admission
// occupancy samples, so neither signal drowns the other in the shared EWMA.
// Stage 3 sheds leaders at the edge, so no pops happen there and the signal
// naturally decays — the ladder can always release.
func (c *AdmissionController) observeDispatchWait(age time.Duration) {
	c.sample(c.waitPressure(age), admAlpha)
}

// observeOverloadShed feeds one deadline-driven shed — a leader that aged
// out at the queue door or at dispatch — into the pressure signal at the
// saturation ceiling, weighted by the whole request mass it took down (the
// leader plus every follower coalesced behind it). Mass matters: in a
// coalescing service one stalled leader can carry hundreds of submissions,
// and counting it as a single sample lets the high-rate low-pressure
// admission samples drown the event. This is NOT the ladder's own shedding
// (observeShed): ladder sheds are the controller's output and feeding them
// back would pin the pressure at stage 3 forever; deadline sheds only
// happen when dispatch genuinely cannot keep up.
func (c *AdmissionController) observeOverloadShed(mass int) {
	if mass < 1 {
		mass = 1
	}
	// equivalent to mass consecutive samples at the ceiling
	c.sample(admCeiling, 1-math.Pow(1-admAlpha, float64(mass)))
}

// Expose renders the controller's gauges in Prometheus text exposition
// format (the daemon's /metrics appends this).
func (c *AdmissionController) Expose() string {
	return fmt.Sprintf("percival_serve_brownout_stage %d\n", c.Stage()) +
		fmt.Sprintf("percival_serve_admission_pressure %.4f\n", c.Pressure()) +
		metrics.ExposeCounter("percival_serve_brownout_transitions_total", &c.transitions) +
		metrics.ExposeCounter("percival_serve_admission_sheds_total", &c.admSheds)
}
