package engine

import (
	"fmt"
	"sync/atomic"
)

// Router is the fleet's placement seam. Before it existed the placement
// decision was smeared across three layers that each half-owned it: serve
// pinned shards to peers at construction (fixed round-robin), Fleet's
// dispatch loop rotated a failover scan when the pin was out, and
// RemoteBackend's retry loop re-sent to whatever peer it was handed. The
// Router pulls all three decisions — lane pinning, per-chunk peer choice,
// hedge-arm choice — behind one interface, so a policy swap changes every
// layer at once and the layers stop disagreeing about who places work.
//
// Two policies ship:
//
//   - static: the pre-router behaviour, bit-for-bit. Lanes pin round-robin
//     (lane i prefers peer i mod N, shard-per-peer like RemotePool), a
//     chunk whose preferred peer is out rotates the failover scan start so
//     displaced traffic spreads across survivors, and the hedge arm is the
//     next routable peer after the preference.
//
//   - weighted: least-loaded by congestion-window headroom over latency.
//     Each routable peer scores free_window/latency_ewma — free CUBIC
//     window headroom (how many more chunks the peer has proven it can
//     absorb right now) divided by its smoothed round-trip time — and the
//     chunk goes to the best score. A slow or saturated peer's score decays
//     on both axes (its window shrinks, its EWMA inflates), so load drains
//     away from it without waiting for eviction; the 100ms-slow peer in
//     ServeReroute8x2 keeps serving, just proportionally less.
//
// Routers only ever see routable (healthy, non-draining) peers filtered by
// the fleet; health state, eviction and redial stay the fleet's job. The
// fleet's dispatch loop trusts Pick to return nil only when no routable
// un-tried peer exists.
type Router interface {
	// Name identifies the policy for /admin/topology and logs.
	Name() string
	// Pin maps a dispatch lane ordinal to its preferred peer index given
	// the current fleet size. Called per chunk (membership is live), so it
	// must be cheap and stateless.
	Pin(lane, npeers int) int
	// Pick chooses the peer to serve a chunk. pref is the lane's preferred
	// index (already < npeers), tried reports peers that already failed
	// this chunk, and first is true on the chunk's first try. Returns nil
	// when no routable un-tried peer remains.
	Pick(peers []*fleetPeer, pref int, tried func(*fleetPeer) bool, first bool) *fleetPeer
	// Hedge chooses the second arm for a hedged chunk — any routable peer
	// other than primary, or nil to skip the hedge.
	Hedge(peers []*fleetPeer, pref int, primary *fleetPeer) *fleetPeer
}

// NewRouter resolves a policy name ("static", "weighted", or "" for the
// default) — the -route flag's parser.
func NewRouter(policy string) (Router, error) {
	switch policy {
	case "", "static":
		return &StaticRouter{}, nil
	case "weighted":
		return &WeightedRouter{}, nil
	}
	return nil, fmt.Errorf("engine: unknown router policy %q (want static or weighted)", policy)
}

// StaticRouter is the default-compatible policy: fixed round-robin lane
// pins with a rotating failover scan for displaced traffic.
type StaticRouter struct {
	// reroute spreads displaced-lane traffic across survivors. A fixed
	// forward scan would re-route every displaced lane to the same next
	// peer — with the first peer down that doubles one survivor's load
	// while the spare sits idle.
	reroute atomic.Int64
}

// Name identifies the policy.
func (r *StaticRouter) Name() string { return "static" }

// Pin assigns lanes round-robin: N serve shards over N peers yields one
// dispatch lane per peer, exactly like RemotePool.
func (r *StaticRouter) Pin(lane, npeers int) int {
	if npeers <= 0 {
		return 0
	}
	return lane % npeers
}

// Pick prefers the pinned peer; once it is out (or already failed this
// chunk) the scan start rotates so displaced traffic spreads.
func (r *StaticRouter) Pick(peers []*fleetPeer, pref int, tried func(*fleetPeer) bool, first bool) *fleetPeer {
	n := len(peers)
	if n == 0 {
		return nil
	}
	start := pref % n
	if !first || !peers[start].routable() {
		start = int(r.reroute.Add(1) - 1)
	}
	for i := 0; i < n; i++ {
		c := peers[(start%n+n+i)%n]
		if c.routable() && !tried(c) {
			return c
		}
	}
	return nil
}

// Hedge scans forward from the preference for any other routable peer.
func (r *StaticRouter) Hedge(peers []*fleetPeer, pref int, primary *fleetPeer) *fleetPeer {
	n := len(peers)
	for i := 0; i < n; i++ {
		p := peers[(pref+1+i)%n]
		if p != primary && p.routable() {
			return p
		}
	}
	return nil
}

// Weighted-router scoring floors. Headroom is floored so a peer whose
// window is momentarily full still scores (it may free a slot before a
// blocked Acquire times out — starving it entirely would pin its EWMA
// stale forever); latency is floored so a sub-millisecond loopback peer
// cannot divide the score to infinity on estimator noise.
const (
	routeMinHeadroom  = 0.25
	routeMinLatencyMS = 0.05
)

// WeightedRouter scores every routable peer by free congestion-window
// headroom over its latency EWMA and routes to the best — least-loaded
// placement off signals the fleet already maintains. Stateless: both
// inputs are live shared state (the CUBIC window and the RTT estimator),
// so every lane sees one load picture per peer.
type WeightedRouter struct{}

// Name identifies the policy.
func (r *WeightedRouter) Name() string { return "weighted" }

// Pin spreads lane preferences round-robin like the static policy; under
// weighted routing the pin only breaks scoring ties (deterministic lane
// spread when all peers look identical, e.g. at cold start).
func (r *WeightedRouter) Pin(lane, npeers int) int {
	if npeers <= 0 {
		return 0
	}
	return lane % npeers
}

// Pick routes to the routable un-tried peer with the best weight, breaking
// ties toward the lane preference.
func (r *WeightedRouter) Pick(peers []*fleetPeer, pref int, tried func(*fleetPeer) bool, first bool) *fleetPeer {
	n := len(peers)
	if n == 0 {
		return nil
	}
	var best *fleetPeer
	bestW := 0.0
	for i := 0; i < n; i++ {
		p := peers[(pref+i)%n]
		if !p.routable() || tried(p) {
			continue
		}
		if w := routeWeight(p); best == nil || w > bestW {
			best, bestW = p, w
		}
	}
	return best
}

// Hedge picks the best-scoring routable peer other than the primary — the
// hedge should land where the spare capacity is.
func (r *WeightedRouter) Hedge(peers []*fleetPeer, pref int, primary *fleetPeer) *fleetPeer {
	return r.Pick(peers, pref, func(p *fleetPeer) bool { return p == primary }, false)
}

// routeWeight is the weighted policy's score: free window headroom over
// smoothed latency, both floored. A cold peer (no latency samples yet —
// rare, since dial and re-admission both seed the EWMA from the handshake
// round trip) scores optimistically at the latency floor so it attracts
// probe traffic and converges.
func routeWeight(p *fleetPeer) float64 {
	st := p.b.win.Stat()
	head := st.Cwnd - float64(st.InFlight)
	if head < routeMinHeadroom {
		head = routeMinHeadroom
	}
	lat := p.lat.Value()
	if p.lat.N() == 0 || lat < routeMinLatencyMS {
		lat = routeMinLatencyMS
	}
	return head / lat
}
