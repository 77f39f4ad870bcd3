// Package faultinject is a reusable fault-injection harness for the serving
// tier: an http.Handler middleware for the /modelz handshake and a
// net.Listener wrapper for the socket wire, both injecting added latency,
// synthetic errors and blackholes — either under manual control (Set) or
// on a timed schedule of phases (SetSchedule), which is how tests and
// benchmarks script a flapping peer (up -> blackhole -> up) without
// touching the code under test.
//
// The classifier sits inline in the rendering path, so the fleet layer's
// contract is "never block a page under any backend condition"; this
// package is how that contract is exercised: internal/engine's fleet tests,
// the ServeChaos8x2 benchmark row, and the `make chaos` CI smoke all drive
// their peers through an Injector. A faulty peer wraps both of its
// surfaces with the same Injector, so a blackholed peer also blackholes the
// handshake its fleet redials with.
package faultinject

import (
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// Fault is one fault configuration. The zero value injects nothing.
type Fault struct {
	// Latency is added to affected requests before they proceed (bounded by
	// the request context, so a canceled caller never waits it out).
	Latency time.Duration
	// LatencyRate is the fraction of requests Latency applies to; 0 with a
	// non-zero Latency means every request (a uniformly slow peer), values
	// in (0, 1) model a peer whose tail is poisoned (a "20% slow" peer).
	LatencyRate float64
	// ErrorRate is the fraction of requests answered with a synthetic
	// failure: a 503 from Middleware, a connection reset from Listener
	// (the wire has no error reply). Both are retryable in
	// engine.RemoteBackend's classification.
	ErrorRate float64
	// Blackhole swallows affected requests entirely: no response until the
	// caller's context expires — the failure mode of a dead host, as opposed
	// to ErrorRate's fast failure of a live-but-broken one.
	Blackhole bool
}

// Phase is one step of a timed schedule.
type Phase struct {
	// Fault applies for the phase's duration.
	Fault Fault
	// For is how long the phase lasts. The final phase of a non-cycling
	// schedule holds forever once reached.
	For time.Duration
}

// Injector decides the fault applied to each request. Safe for concurrent
// use; the zero value injects nothing. Deterministic given a seed: the rate
// rolls come from a private PRNG, not the global one.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	manual Fault
	phases []Phase
	cycle  bool
	start  time.Time
}

// NewInjector returns an injector that injects nothing until Set or
// SetSchedule configures it.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Set pins the current fault, clearing any schedule. Set(Fault{}) heals.
func (in *Injector) Set(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.manual = f
	in.phases = nil
}

// SetSchedule starts a timed schedule from now. With cycle the phases
// repeat (a flapping peer); without it the last phase holds once reached.
func (in *Injector) SetSchedule(cycle bool, phases ...Phase) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.manual = Fault{}
	in.phases = append([]Phase(nil), phases...)
	in.cycle = cycle
	in.start = time.Now()
}

// Fault returns the fault in effect right now.
func (in *Injector) Fault() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.phases) == 0 {
		return in.manual
	}
	elapsed := time.Since(in.start)
	if in.cycle {
		var total time.Duration
		for _, p := range in.phases {
			total += p.For
		}
		if total > 0 {
			elapsed %= total
		}
	}
	for _, p := range in.phases {
		if elapsed < p.For {
			return p.Fault
		}
		elapsed -= p.For
	}
	return in.phases[len(in.phases)-1].Fault
}

// roll reports whether an event with the given rate fires.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < rate
}

// decide resolves the per-request actions from the current fault.
func (in *Injector) decide() (delay time.Duration, fail, blackhole bool) {
	f := in.Fault()
	if f.Blackhole {
		return 0, false, true
	}
	if f.Latency > 0 && (f.LatencyRate == 0 || in.roll(f.LatencyRate)) {
		delay = f.Latency
	}
	return delay, in.roll(f.ErrorRate), false
}

// Middleware wraps a server-side handler with the Injector's current fault:
// blackholed requests hang until the client gives up, delayed requests wait
// out the added latency, failed requests answer 503.
func Middleware(in *Injector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, fail, blackhole := in.decide()
		if blackhole {
			// No response at all: the client's per-attempt timeout is what
			// ends this request, exactly like a dead host holding a socket.
			// The body must be drained first — with unread body bytes the
			// HTTP/1.x server never starts the background read that detects
			// the client abort, and r.Context() would never fire.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
				return
			}
		}
		if fail {
			http.Error(w, "faultinject: injected error", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Listener wraps a socket-wire listener so every message written to an
// accepted connection takes the Injector's current fault. The wire server
// writes each response message with one Write call, so each probe or pixel
// request is faulted on its own, like an HTTP request under Middleware:
//   - a blackholed response is swallowed — the client's per-attempt
//     timeout is what ends the request, exactly like a dead host;
//   - a delayed response is written after the added latency from its own
//     timer, so it never holds up the responses queued behind it (the wire
//     multiplexes by request ID, and responses may arrive in any order);
//   - a failed response resets the connection, failing every request in
//     flight on it — the wire's only fast failure.
func Listener(in *Injector, ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, inj: in}
}

type faultListener struct {
	net.Listener
	inj *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, inj: l.inj}, nil
}

// faultConn applies the fault per Write; mu keeps a delayed message from
// interleaving with one written directly.
type faultConn struct {
	net.Conn
	inj *Injector
	mu  sync.Mutex
}

func (c *faultConn) Write(p []byte) (int, error) {
	delay, fail, blackhole := c.inj.decide()
	switch {
	case blackhole:
		return len(p), nil
	case delay > 0:
		msg := append([]byte(nil), p...)
		time.AfterFunc(delay, func() {
			if fail {
				c.Conn.Close()
				return
			}
			c.write(msg) // a broken conn surfaces on the client's read side
		})
		return len(p), nil
	case fail:
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.write(p)
}

func (c *faultConn) write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conn.Write(p)
}
