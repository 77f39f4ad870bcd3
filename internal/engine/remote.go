package engine

// RemoteBackend proxies InferBatchInto to another percival-serve over the
// socket wire (sockwire.go), so one daemon can front a fleet of model
// processes: the front keeps the serving edge (decode, batching, verdict
// cache, shedding) and the peers keep the arenas and the weights. It is an
// ordinary Backend — serve shards replicate it exactly like the in-process
// engines. The only HTTP request it sends is the GET /modelz handshake
// (modelz.go).
//
// Failure semantics are fail-open: classification guards rendering, so a
// peer that cannot be reached within the retry budget must never block or
// break the page. A failed chunk resolves every frame to score 0 ("not an
// ad", render it) and counts one Stats.Errors — the same contract as
// serve's StatusShed, applied at the transport layer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
)

// RemoteOptions tunes a RemoteBackend. The zero value gets defaults from
// NewRemote.
type RemoteOptions struct {
	// Timeout bounds each attempt, handshake included (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed batch attempt is re-sent before
	// the chunk fails open. The zero value means no retries — the value
	// given is the value used (percival-serve's -peer-retries flag carries
	// the daemon default of 2); negative values are treated as 0.
	Retries int
	// RetryBackoff is the base delay before the first retry; further
	// attempts back off exponentially (base, 2x, 4x, ...) with +/-50%
	// jitter so a struggling peer is never hammered by an instant retry
	// storm (default 10ms). Capped at RetryBackoffMax (default 250ms).
	// A retry whose backoff would outlive the chunk's overall deadline is
	// skipped — the chunk fails over immediately instead of sleeping into
	// a guaranteed timeout.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// ExpectRes, when non-zero, rejects a peer whose input resolution
	// differs — the proxy's frames would be pre-processed for the wrong
	// network.
	ExpectRes int
	// WindowMax caps the peer's adaptive in-flight congestion window
	// (default 64 chunks). The window starts small, grows CUBIC-style on
	// RTT-sample success, and backs off multiplicatively on timeouts and
	// hedge fires — see CubicWindow. All replicas of one backend share one
	// window, so every lane sees one congestion picture per peer.
	WindowMax int
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 250 * time.Millisecond
	}
	if o.WindowMax <= 0 {
		o.WindowMax = windowDefaultMax
	}
	return o
}

// RemoteBackend is a Backend whose forward passes run on a peer
// percival-serve reached over the socket wire. Safe for concurrent use.
type RemoteBackend struct {
	peer       string // normalized base URL ("http://host:port")
	modelzURL  string // GET handshake target
	name       string
	instanceID string // peer daemon's per-process identity (may be "")
	res        int
	timeout    time.Duration
	retries    int
	backoff    time.Duration
	backoffMax time.Duration
	tr         *sockTransport // shared across replicas, like win
	chunks     *chunkPool     // shared across replicas: amortized chunk state
	win        *CubicWindow   // shared across replicas: one window per peer

	batches atomic.Int64
	frames  atomic.Int64
	errors  atomic.Int64
}

// NewRemote dials peer ("host:port" or a full URL), performs the GET
// /modelz handshake to learn the engine name, input resolution and wire
// listener, and returns the proxy backend. The handshake must succeed and
// pass checkHandshake: registering an unreachable, mismatched or
// listener-less peer is a deployment error, not a runtime condition to
// fail open on.
func NewRemote(peer string, opts RemoteOptions) (*RemoteBackend, error) {
	opts = opts.withDefaults()
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	u, err := url.Parse(peer)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("engine: remote peer %q: invalid address", peer)
	}
	base := u.Scheme + "://" + u.Host
	b := &RemoteBackend{
		peer:       base,
		modelzURL:  base + "/modelz",
		timeout:    opts.Timeout,
		retries:    opts.Retries,
		backoff:    opts.RetryBackoff,
		backoffMax: opts.RetryBackoffMax,
		chunks:     &chunkPool{},
		win:        NewCubicWindow(WindowOptions{Max: float64(opts.WindowMax)}),
	}
	dialStart := time.Now()
	info, err := b.handshake()
	if err == nil {
		err = checkHandshake(info, opts.ExpectRes)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: remote peer %s: %w", u.Host, err)
	}
	// the handshake round trip seeds the latency EWMA so the peer enters
	// the fleet warm — the weighted router and hedging would otherwise fly
	// blind until dispatch samples converge (see CubicWindow.SeedRTT)
	b.win.SeedRTT(time.Since(dialStart))
	b.res = info.InputRes
	b.instanceID = info.InstanceID
	b.name = "remote:" + info.Engine + "@" + u.Host
	b.tr = newSockTransport(resolveWireAddr(u.Host, info.WireAddr), base)
	return b, nil
}

// checkHandshake validates a peer's /modelz document against what a front
// needs from it, at dial time and at every fleet re-admission: this wire
// version exactly (a skewed peer would fail every chunk open while looking
// healthy), a socket listener to carry the traffic, and — when res > 0 —
// the front's input resolution.
func checkHandshake(info ModelzInfo, res int) error {
	if info.WireVersion != wireVersion {
		return fmt.Errorf("speaks wire version %d, want %d", info.WireVersion, wireVersion)
	}
	if info.WireAddr == "" {
		return fmt.Errorf("advertises no wire listener (start the peer with -wire-listen)")
	}
	if info.InputRes <= 0 {
		return fmt.Errorf("input resolution %d", info.InputRes)
	}
	if res > 0 && info.InputRes != res {
		return fmt.Errorf("serves res %d, want %d", info.InputRes, res)
	}
	return nil
}

// handshake fetches and decodes the peer's /modelz document.
func (b *RemoteBackend) handshake() (ModelzInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.modelzURL, nil)
	if err != nil {
		return ModelzInfo{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ModelzInfo{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ModelzInfo{}, fmt.Errorf("modelz: %s", resp.Status)
	}
	var info ModelzInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return ModelzInfo{}, fmt.Errorf("modelz: %w", err)
	}
	return info, nil
}

// Name identifies the proxied engine and its peer
// ("remote:fp32@10.0.0.7:8093").
func (b *RemoteBackend) Name() string { return b.name }

// Peer returns the normalized peer base URL.
func (b *RemoteBackend) Peer() string { return b.peer }

// InstanceID returns the peer daemon's per-process identity from the dial
// handshake ("" when the peer predates the field). Dialers use it to
// reject self-dials: a -peers or /admin/peers address that loops back to
// the dialing daemon would score every chunk through an infinite proxy
// recursion.
func (b *RemoteBackend) InstanceID() string { return b.instanceID }

// InputRes is the peer's network input resolution (from the handshake).
func (b *RemoteBackend) InputRes() int { return b.res }

// Stats reports proxied batches/frames and the fail-open error count.
func (b *RemoteBackend) Stats() Stats {
	return Stats{Batches: b.batches.Load(), Frames: b.frames.Load(), Errors: b.errors.Load()}
}

// InferBatchInto proxies frames to the peer in BatchChunk-sized requests —
// one forward pass per request on the peer — and fails open (score 0) for
// any chunk still failing after the retry budget.
func (b *RemoteBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	if len(frames) == 0 {
		return out[:0]
	}
	out = out[:len(frames)]
	for lo := 0; lo < len(frames); lo += BatchChunk {
		hi := lo + BatchChunk
		if hi > len(frames) {
			hi = len(frames)
		}
		b.inferChunk(frames[lo:hi], out[lo:hi])
	}
	b.frames.Add(int64(len(frames)))
	return out
}

func (b *RemoteBackend) inferChunk(frames []*imaging.Bitmap, out []float64) {
	chunk := b.chunks.get(frames)
	defer b.chunks.put(chunk)
	// overall chunk budget: one per-attempt timeout per attempt; backoff
	// sleeps spend from the same budget, so a retry that cannot finish in
	// time is abandoned early rather than slept into
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout*time.Duration(b.retries+1))
	defer cancel()
	if err := b.tryChunk(ctx, chunk, out); err != nil {
		// Fail open: the peer cannot score this chunk and the verdict is
		// unknown. Score 0 renders the frame — the serving edge's shed
		// semantics, applied here.
		for i := range out {
			out[i] = 0
		}
		b.errors.Add(1)
	}
}

// tryChunk runs the retry loop of one encoded chunk against this peer:
// bounded exponential backoff with jitter between attempts, bailing out as
// soon as ctx's deadline would be exceeded. Unlike inferChunk it reports
// failure instead of failing open — the fleet layer re-routes a failed
// chunk to another replica before giving up on a verdict.
//
// The whole try holds one slot of the peer's congestion window: a peer
// whose window has shrunk takes proportionally fewer chunks in flight, and
// every attempt's round trip feeds the window (growth on success, backoff
// on a failed attempt) so the in-flight bound tracks what the peer can
// actually absorb.
func (b *RemoteBackend) tryChunk(ctx context.Context, chunk *wireChunk, out []float64) error {
	if !b.win.Acquire(ctx) {
		// the window never opened within the chunk budget: the peer is
		// saturated, which the caller treats like any other chunk failure
		// (the fleet fails over; standalone use fails open)
		return fmt.Errorf("engine: peer %s: congestion window saturated: %w", b.peer, ctx.Err())
	}
	defer b.win.Release()
	var lastErr error
	for attempt := 0; attempt <= b.retries; attempt++ {
		if attempt > 0 {
			delay := backoffDelay(attempt, b.backoff, b.backoffMax)
			if dl, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(dl) {
				return lastErr // the backoff alone would outlive the budget
			}
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return lastErr
			}
		}
		start := time.Now()
		err := b.attempt(ctx, chunk, out)
		if err == nil {
			b.batches.Add(1)
			b.win.OnSuccess(time.Since(start))
			return nil
		}
		if ctx.Err() != context.Canceled {
			// a canceled hedge loser is not a congestion signal — the
			// cancellation raced a possibly-fine request; everything else
			// (timeout, connection error) backs the window off
			b.win.OnLoss()
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// backoffDelay is the exponential retry ladder: base doubled per attempt,
// capped at ceil, with +/-50% jitter so synchronized failures do not retry
// in lockstep.
func backoffDelay(attempt int, base, ceil time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	if d <= 0 {
		return 0
	}
	// uniform in [d/2, 3d/2)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// attempt runs one transport attempt of a chunk, bounded by the RTO-capped
// per-attempt timeout and the caller's context (hedged dispatch cancels the
// losing attempt through it).
func (b *RemoteBackend) attempt(ctx context.Context, chunk *wireChunk, out []float64) error {
	timeout := b.timeout
	if rto := b.win.RTO(); rto > 0 && rto < timeout {
		// adaptive RTO: once the RTT estimator has warmed up, an attempt
		// that has outlived mean+4·dev is almost certainly lost — retry it
		// (or fail over) instead of sleeping out the configured ceiling
		timeout = rto
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return b.tr.roundTrip(ctx, chunk, out)
}

// Window returns the peer's shared congestion window.
func (b *RemoteBackend) Window() *CubicWindow { return b.win }

// WindowStats reports this peer's window state (WindowReporter).
func (b *RemoteBackend) WindowStats() []WindowStat {
	st := b.win.Stat()
	st.Peer = b.peer
	return []WindowStat{st}
}

// TransportStats reports the socket wire's byte and dedup accounting
// (shared across replicas, like the transport itself).
func (b *RemoteBackend) TransportStats() TransportStats { return b.tr.Stats() }

// Replicate returns a proxy to the same peer sharing this backend's
// transport (one connection picture per peer), chunk pool and congestion
// window with its own counters — the per-shard replica serve dispatch
// wants.
func (b *RemoteBackend) Replicate() Backend {
	return &RemoteBackend{
		peer:       b.peer,
		modelzURL:  b.modelzURL,
		name:       b.name,
		instanceID: b.instanceID,
		res:        b.res,
		timeout:    b.timeout,
		retries:    b.retries,
		backoff:    b.backoff,
		backoffMax: b.backoffMax,
		tr:         b.tr,
		chunks:     b.chunks,
		win:        b.win,
	}
}

// Warm pings the peer so a live connection exists before the first real
// dispatch: a /modelz handshake, then the socket wire dials its hot
// connection. The peer warms its own arenas at startup. A peer that is
// already dead at warm time is an operational signal, not a silent no-op:
// the failure is logged and counted in Stats.Errors so it shows up on
// /metrics before the first real dispatch discovers it.
func (b *RemoteBackend) Warm(maxBatch int) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()
	if _, err := b.handshake(); err != nil {
		b.errors.Add(1)
		log.Printf("engine: warm %s: %v", b.peer, err)
	} else if err := b.tr.warm(ctx); err != nil {
		b.errors.Add(1)
		log.Printf("engine: warm %s: %v", b.peer, err)
	}
}

// Close drops the socket wire's connection. The transport is shared and
// non-terminal: sibling replicas stay usable (the next dispatch
// re-establishes what it needs) and Close is idempotent.
func (b *RemoteBackend) Close() { b.tr.Close() }

// drainClose consumes the rest of a handshake response body so the
// connection can be reused, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// RemotePool fronts several remote peers as one Backend: Replicate hands
// out the next peer round-robin; calls on the pool itself round-robin per
// batch. InferBatchInto fails open per peer, so one dead replica sheds
// only the traffic routed to it. Most callers want Fleet instead — same
// round-robin pinning, but with health-gated eviction, failover, redial
// and hedging; the pool remains for the fail-fast-per-lane semantics
// (`percival-serve -peers` builds a Fleet since PR 6).
type RemotePool struct {
	peers []*RemoteBackend
	next  atomic.Int64
}

// NewRemotePool builds a pool over peers, which must all serve the same
// input resolution.
func NewRemotePool(peers []*RemoteBackend) (*RemotePool, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("engine: remote pool needs at least one peer")
	}
	res := peers[0].InputRes()
	for _, p := range peers[1:] {
		if p.InputRes() != res {
			return nil, fmt.Errorf("engine: remote pool mixes resolutions %d and %d (%s)",
				res, p.InputRes(), p.Name())
		}
	}
	return &RemotePool{peers: peers}, nil
}

// Peers returns the pooled backends (stats introspection).
func (p *RemotePool) Peers() []*RemoteBackend { return p.peers }

// WindowStats reports every pooled peer's congestion window state.
func (p *RemotePool) WindowStats() []WindowStat {
	out := make([]WindowStat, len(p.peers))
	for i, b := range p.peers {
		out[i] = b.WindowStats()[0]
	}
	return out
}

// Name identifies the pool and its size.
func (p *RemotePool) Name() string { return fmt.Sprintf("remote-pool(%d)", len(p.peers)) }

// InputRes is the shared peer resolution.
func (p *RemotePool) InputRes() int { return p.peers[0].InputRes() }

func (p *RemotePool) pick() *RemoteBackend {
	return p.peers[int(p.next.Add(1)-1)%len(p.peers)]
}

// InferBatchInto routes the batch to the next peer round-robin.
func (p *RemotePool) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return p.pick().InferBatchInto(frames, out)
}

// Replicate pins the next peer round-robin: N serve shards over N peers
// yields exactly one shard lane per remote replica.
func (p *RemotePool) Replicate() Backend { return p.pick().Replicate() }

// Warm pings every peer.
func (p *RemotePool) Warm(maxBatch int) {
	for _, b := range p.peers {
		b.Warm(maxBatch)
	}
}

// Close releases every peer's idle connections.
func (p *RemotePool) Close() {
	for _, b := range p.peers {
		b.Close()
	}
}

// Stats aggregates the peers' counters.
func (p *RemotePool) Stats() Stats {
	var s Stats
	for _, b := range p.peers {
		ps := b.Stats()
		s.Batches += ps.Batches
		s.Frames += ps.Frames
		s.Errors += ps.Errors
	}
	return s
}
