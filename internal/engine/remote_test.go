package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// pixelRequest encodes frames as one keyed pixel request.
func pixelRequest(frames []*imaging.Bitmap) []byte {
	keys := make([][32]byte, len(frames))
	idx := make([]int, len(frames))
	for i, f := range frames {
		keys[i] = imaging.ContentKey(f)
		idx[i] = i
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writePixels(bw, 1, keys, frames, idx)
	bw.Flush()
	return buf.Bytes()
}

// TestWireFrameRoundTrip: the pixel request encoding must reproduce every
// frame bit-for-bit, and the response encoding every score, plain and
// masked.
func TestWireFrameRoundTrip(t *testing.T) {
	frames := synth.SampleFrames(3, 5)
	req, err := readSockRequest(bytes.NewReader(pixelRequest(frames)))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.frames) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(req.frames), len(frames))
	}
	for i := range frames {
		if req.frames[i].W != frames[i].W || req.frames[i].H != frames[i].H {
			t.Fatalf("frame %d: %dx%d, want %dx%d", i, req.frames[i].W, req.frames[i].H, frames[i].W, frames[i].H)
		}
		if !bytes.Equal(req.frames[i].Pix, frames[i].Pix) {
			t.Fatalf("frame %d: pixel mismatch", i)
		}
	}
	scores := []float64{0, 0.25, 1, math.SmallestNonzeroFloat64}
	resp, err := readSockResponse(bytes.NewReader(scoreMsg(7, 0, len(scores), nil, scores)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.id != 7 || resp.masked || len(resp.scores) != len(scores) {
		t.Fatalf("plain response decoded %+v", resp)
	}
	for i := range scores {
		if resp.scores[i] != scores[i] {
			t.Fatalf("score %d: %v, want %v", i, resp.scores[i], scores[i])
		}
	}
	// a probe answer for 10 entries with hits at 1 and 9
	mask := []byte{0b10, 0b10}
	resp, err = readSockResponse(bytes.NewReader(scoreMsg(8, sockFlagMask, 10, mask, scores[1:3])))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.masked || resp.count != 10 || !bytes.Equal(resp.mask, mask) ||
		resp.scores[0] != scores[1] || resp.scores[1] != scores[2] {
		t.Fatalf("masked response decoded %+v", resp)
	}
}

// TestWireRejectsMalformedBatches: a lying pixel request must error out
// before any pixel buffer is allocated, never over-allocate or succeed
// partially.
func TestWireRejectsMalformedBatches(t *testing.T) {
	good := pixelRequest(synth.SampleFrames(3, 1))
	dims := sockHeaderLen + wireKeyLen
	withHeader := func(off int, v uint32) []byte {
		b := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"bad version":     append(append([]byte(batchMagic), 0xff, 0xff), good[6:]...),
		"zero count":      withHeader(14, 0),
		"huge count":      withHeader(14, 0xffffffff),
		"truncated pix":   good[:len(good)-8],
		"giant frame dim": withHeader(dims, 0x7fffffff),
		"zero frame dim":  withHeader(dims+4, 0),
	}
	for name, enc := range cases {
		if _, err := readSockRequest(bytes.NewReader(enc)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestWireFrameSizeOverflow: regression for a frame-size guard computing
// w*h*4 in int — 32768x32768x4 is exactly 2^32, which wraps to 0 on 32-bit
// platforms and sails past the byte bound. The guard (imaging.CheckFrameSize)
// must do the arithmetic in int64 and reject the frame on every platform.
func TestWireFrameSizeOverflow(t *testing.T) {
	var b [sockHeaderLen + wireKeyLen + 8]byte
	putSockHeader(b[:], batchMagic, 1, 0, 1)
	// both edges at the imaging.MaxFrameEdge limit: the per-edge checks
	// pass, only the (overflow-prone) byte bound can reject it
	binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen:], 1<<15)
	binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen+4:], 1<<15)
	if req, err := readSockRequest(bytes.NewReader(b[:])); err == nil {
		t.Fatalf("2^32-byte frame accepted (%d frames decoded)", len(req.frames))
	}
}

// TestWireServerCounters: the wire listener must account every exchange —
// requests, probe hits and misses, frames scored, bytes each way — since
// its counters are the peer side of /metrics.
func TestWireServerCounters(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, NewVerdictMap(0), nil)
	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(5, 3)
	out := make([]float64, len(frames))
	rb.InferBatchInto(frames, out) // cold: probe (3 misses) + pixels
	rb.InferBatchInto(frames, out) // warm: probe (3 hits)
	st := ws.Stats()
	if st.Conns != 1 || st.Requests != 3 || st.ProbeHits != 3 || st.ProbeMisses != 3 ||
		st.FramesScored != int64(len(frames)) || st.WriteErrors != 0 {
		t.Fatalf("wire server stats %+v", st)
	}
	ct := rb.TransportStats()
	if st.BytesIn != ct.BytesOut || st.BytesOut != ct.BytesIn {
		t.Fatalf("server bytes in/out %d/%d, client out/in %d/%d", st.BytesIn, st.BytesOut, ct.BytesOut, ct.BytesIn)
	}
}

// TestRemoteMatchesLocalBackend is the tentpole's correctness anchor: a
// frame proxied over the wire must score exactly what the peer's backend
// scores locally — same pre-processing, same forward pass, bit-identical
// float64 on the wire.
func TestRemoteMatchesLocalBackend(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if rb.InputRes() != res {
		t.Fatalf("remote res %d, want %d", rb.InputRes(), res)
	}
	if want := "remote:" + FP32Name + "@"; len(rb.Name()) <= len(want) || rb.Name()[:len(want)] != want {
		t.Fatalf("remote name %q", rb.Name())
	}

	// more frames than one chunk, so the client-side chunk loop runs
	frames := synth.SampleFrames(7, BatchChunk+5)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	for i := range frames {
		if got[i] != want[i] {
			t.Fatalf("frame %d: remote %v, local %v", i, got[i], want[i])
		}
	}
	st := rb.Stats()
	if st.Frames != int64(len(frames)) || st.Batches != 2 || st.Errors != 0 {
		t.Fatalf("remote stats %+v", st)
	}
}

// TestRemoteHandshake: construction must reject unreachable peers,
// resolution mismatches, any other wire version, and peers without a wire
// listener — deployment errors, not fail-open conditions.
func TestRemoteHandshake(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil, nil)

	if _, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res + 8}); err == nil {
		t.Fatal("resolution mismatch not rejected")
	}
	if _, err := NewRemote("http://127.0.0.1:1", RemoteOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("unreachable peer not rejected")
	}
	if _, err := NewRemote("://not a url", RemoteOptions{}); err == nil {
		t.Fatal("invalid address not rejected")
	}

	modelz := func(info ModelzInfo) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(info)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	// a version-skewed peer, older or newer, must be refused at dial time,
	// not fail every chunk open at runtime
	for _, v := range []int{wireVersion - 1, wireVersion + 1} {
		skew := modelz(ModelzInfo{WireVersion: v, WireAddr: "127.0.0.1:1", Engine: "fp32", InputRes: res})
		if _, err := NewRemote(skew.URL, RemoteOptions{}); err == nil {
			t.Fatalf("wire version %d not rejected", v)
		}
	}
	// a peer without a wire listener cannot serve a front: the error must
	// tell the operator which flag the peer is missing
	bare := modelz(ModelzInfo{WireVersion: wireVersion, Engine: "fp32", InputRes: res})
	_, err := NewRemote(bare.URL, RemoteOptions{})
	if err == nil || !strings.Contains(err.Error(), "-wire-listen") {
		t.Fatalf("listener-less peer: err %v, want a rejection naming -wire-listen", err)
	}
}

// flakyListener resets an accepted connection instead of writing whenever
// the shared failure budget is positive — a peer whose wire drops answers.
type flakyListener struct {
	net.Listener
	fails *atomic.Int64
}

func (l flakyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return flakyConn{c, l.fails}, nil
}

type flakyConn struct {
	net.Conn
	fails *atomic.Int64
}

func (c flakyConn) Write(p []byte) (int, error) {
	if c.fails.Add(-1) >= 0 {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestRemoteRetriesAndFailsOpen: a transient peer error is absorbed by the
// retry budget (the retry redials); a peer that stays down fails the chunk
// open (score 0, Errors counted) instead of blocking or panicking.
func TestRemoteRetriesAndFailsOpen(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()

	var fails atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(WireServerOptions{Backend: local})
	go ws.Serve(flakyListener{ln, &fails})
	defer ws.Close()
	ts := httptest.NewServer(ModelzHandlerID(nil, local, 0.5, ln.Addr().String(), ""))
	defer ts.Close()

	rb, err := NewRemote(ts.URL, RemoteOptions{Retries: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(7, 2)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	// one dropped answer, then the retry succeeds
	fails.Store(1)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("retry did not recover: %v, want %v", got, want)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("transient flake counted as failure: %+v", st)
	}
	if d := rb.TransportStats().Dials; d != 2 {
		t.Fatalf("%d dials, want the retry to redial once", d)
	}

	// peer stays down: every attempt fails, the chunk fails open
	fails.Store(1 << 30)
	got[0], got[1] = 0.9, 0.9
	rb.InferBatchInto(frames, got)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("failed chunk must score 0 (fail open), got %v", got)
	}
	if st := rb.Stats(); st.Errors != 1 {
		t.Fatalf("fail-open not counted: %+v", st)
	}
}

// TestRemotePoolRoundRobin: Replicate must pin successive replicas to
// successive peers (shard-per-peer), and pool stats must aggregate.
func TestRemotePoolRoundRobin(t *testing.T) {
	net, res := testNet(t, 16)
	remotes := make([]*RemoteBackend, 2)
	for i := range remotes {
		b := NewFP32(net, res)
		defer b.Close()
		ts, _ := newWirePeer(t, b, nil, nil)
		rb, err := NewRemote(ts.URL, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	pool, err := NewRemotePool(remotes)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	r0 := pool.Replicate().(*RemoteBackend)
	r1 := pool.Replicate().(*RemoteBackend)
	r2 := pool.Replicate().(*RemoteBackend)
	if r0.Peer() == r1.Peer() {
		t.Fatalf("consecutive replicas share peer %s", r0.Peer())
	}
	if r2.Peer() != r0.Peer() {
		t.Fatalf("replica 2 on %s, want wraparound to %s", r2.Peer(), r0.Peer())
	}

	// dispatch on the pool round-robins batches across peers, and the pool
	// aggregates the peers' counters (replicas keep their own, like every
	// other Replicate)
	frames := synth.SampleFrames(7, 4)
	out := make([]float64, len(frames))
	pool.InferBatchInto(frames, out)
	pool.InferBatchInto(frames, out)
	if st := pool.Stats(); st.Frames != 2*int64(len(frames)) {
		t.Fatalf("pool stats %+v, want %d frames aggregated", st, 2*len(frames))
	}
	if remotes[0].Stats().Frames == 0 || remotes[1].Stats().Frames == 0 {
		t.Fatalf("pool dispatch not spread: %+v / %+v", remotes[0].Stats(), remotes[1].Stats())
	}
	r1out := make([]float64, 1)
	r1.InferBatchInto(frames[:1], r1out)
	if r1.Stats().Frames != 1 {
		t.Fatalf("replica stats %+v, want its own counters", r1.Stats())
	}
	if _, err := NewRemotePool(nil); err == nil {
		t.Fatal("empty pool not rejected")
	}
}

// TestRemoteConcurrentDispatch exercises the shared chunk pool and
// counters from concurrent submitters (meaningful under -race, which
// `make race` runs over this package).
func TestRemoteConcurrentDispatch(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil, nil)
	rb, err := NewRemote(ts.URL, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(7, 4)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(frames))
			for i := 0; i < 8; i++ {
				rb.InferBatchInto(frames, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("concurrent dispatch: frame %d scored %v, want %v", j, out[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := rb.Stats(); st.Frames != 4*8*int64(len(frames)) || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
}
