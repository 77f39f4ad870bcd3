package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/serve"
	"percival/internal/synth"
)

// testService builds the daemon's classifier the way main does, at smoke
// scale (deterministic untrained weights — the tests exercise the serving
// edge, not verdict quality).
func testService(t testing.TB) *core.Percival {
	t.Helper()
	svc, err := buildService(16, "", true, 0, 0, 1, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// testFrontend stands up the daemon's HTTP surface over a serve.Server the
// way main wires it. fleet is nil unless the backend is a supervised fleet.
func testFrontend(t testing.TB, svc *core.Percival, srv *serve.Server, reg *engine.Registry, backend engine.Backend, fleet *engine.Fleet) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", classifyHandler(srv, reg, backend))
	mux.Handle("GET /modelz", engine.ModelzHandlerID(reg, backend, svc.Threshold(), "", ""))
	mux.HandleFunc("GET /healthz", healthHandler(srv, reg, backend.Name(), nil))
	mux.HandleFunc("GET /metrics", metricsHandler(srv, reg, fleet, nil))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// wirePeer is a backend daemon as `percival-serve -wire-listen` mounts it:
// the socket-wire listener plus the /modelz handshake advertising it.
type wirePeer struct {
	URL  string // the -peers address
	wire *engine.WireServer
	http *httptest.Server
}

// Close takes both of the peer's surfaces down.
func (p *wirePeer) Close() {
	p.wire.Close()
	p.http.Close()
}

// startWirePeer starts a wire peer scoring on a fresh replica of svc's
// engine. With a non-nil inj both surfaces take its faults, so a
// blackholed peer also blackholes the handshake a fleet redials with.
func startWirePeer(t testing.TB, svc *core.Percival, inj *faultinject.Injector) *wirePeer {
	t.Helper()
	rep := svc.Engine().Replicate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var modelz http.Handler = engine.ModelzHandlerID(nil, rep, svc.Threshold(), ln.Addr().String(), "")
	if inj != nil {
		ln = faultinject.Listener(inj, ln)
		modelz = faultinject.Middleware(inj, modelz)
	}
	p := &wirePeer{wire: engine.NewWireServer(engine.WireServerOptions{Backend: rep})}
	go p.wire.Serve(ln)
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", modelz)
	p.http = httptest.NewServer(mux)
	p.URL = p.http.URL
	t.Cleanup(p.Close)
	return p
}

func postFrame(t testing.TB, url string, contentType string, body []byte) (*http.Response, verdict) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v verdict
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode verdict: %v", err)
		}
	}
	return resp, v
}

// TestDecodeFrameContentTypeParameters: a raw-RGBA upload whose
// Content-Type carries parameters ("application/octet-stream;
// charset=binary") must be treated as raw RGBA, not fall through to image
// sniffing and 400. Regression for the == comparison on the raw header.
func TestDecodeFrameContentTypeParameters(t *testing.T) {
	frame := synth.SampleFrames(3, 1)[0]
	for _, ct := range []string{
		"application/octet-stream",
		"application/octet-stream; charset=binary",
		"APPLICATION/OCTET-STREAM; x=y",
	} {
		r := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/classify?w=%d&h=%d", frame.W, frame.H), nil)
		r.Header.Set("Content-Type", ct)
		got, err := decodeFrame(r, frame.Pix)
		if err != nil {
			t.Fatalf("Content-Type %q: %v", ct, err)
		}
		if got.W != frame.W || got.H != frame.H || !bytes.Equal(got.Pix, frame.Pix) {
			t.Fatalf("Content-Type %q: frame not decoded as raw RGBA", ct)
		}
	}
	// encoded images still sniff
	png, err := imaging.Encode(frame, imaging.PNG)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/classify", nil)
	r.Header.Set("Content-Type", "image/png")
	if _, err := decodeFrame(r, png); err != nil {
		t.Fatalf("encoded image: %v", err)
	}
}

// TestDecodeFrameRejectsMalformedDims: dimension parsing must reject
// trailing garbage instead of silently truncating it. Regression for
// fmt.Sscan accepting "?w=64abc" as 64.
func TestDecodeFrameRejectsMalformedDims(t *testing.T) {
	frame := synth.SampleFrames(3, 1)[0]
	good := fmt.Sprintf("w=%d&h=%d", frame.W, frame.H)
	for _, q := range []string{
		fmt.Sprintf("w=%dabc&h=%d", frame.W, frame.H),
		fmt.Sprintf("w=%d%%20&h=%d", frame.W, frame.H), // "64 "
		fmt.Sprintf("w=0x10&h=%d", frame.H),
		fmt.Sprintf("w=&h=%d", frame.H),
		"w=-4&h=-4",
	} {
		r := httptest.NewRequest(http.MethodPost, "/classify?"+q, nil)
		r.Header.Set("Content-Type", "application/octet-stream")
		if _, err := decodeFrame(r, frame.Pix); err == nil {
			t.Errorf("query %q accepted, want rejection", q)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/classify?"+good, nil)
	r.Header.Set("Content-Type", "application/octet-stream")
	if _, err := decodeFrame(r, frame.Pix); err != nil {
		t.Fatalf("well-formed dims rejected: %v", err)
	}
}

// TestTwoTierMatchesInProcessDispatch is the acceptance anchor: a front
// daemon whose dispatch shards proxy to two backend daemons over the
// socket wire must answer /classify with verdicts identical to in-process
// dispatch on the same corpus — and fail open when the peers go down.
func TestTwoTierMatchesInProcessDispatch(t *testing.T) {
	svc := testService(t)
	reg := svc.Backends()

	// two backend daemons sharing the front's weights (the deployment would
	// load the same .pcvl on every tier)
	peers := make([]*wirePeer, 2)
	remotes := make([]*engine.RemoteBackend, 2)
	for i := range peers {
		peers[i] = startWirePeer(t, svc, nil)
		rb, err := engine.NewRemote(peers[i].URL, engine.RemoteOptions{
			ExpectRes: svc.InputRes(),
			Timeout:   2 * time.Second,
			Retries:   -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(rb.Name(), rb); err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	pool, err := engine.NewRemotePool(remotes)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 4, Backend: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, reg, pool, nil)

	frames := synth.SampleFrames(41, 8)
	for i, f := range frames {
		resp, v := postFrame(t,
			fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H),
			"application/octet-stream; charset=binary", f.Pix)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, resp.StatusCode)
		}
		want := svc.Classify(f)
		if v.Score != want {
			t.Fatalf("frame %d: proxied score %v, in-process %v", i, v.Score, want)
		}
		if v.Ad != (want >= svc.Threshold()) {
			t.Fatalf("frame %d: verdict mismatch", i)
		}
	}

	// per-request model selection: naming a specific peer routes a direct
	// forward pass through that registry entry
	named := synth.SampleFrames(43, 1)[0]
	resp, v := postFrame(t,
		fmt.Sprintf("%s/classify?model=%s&w=%d&h=%d", front.URL, remotes[1].Name(), named.W, named.H),
		"application/octet-stream", named.Pix)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?model= status %d", resp.StatusCode)
	}
	if want := svc.Classify(named); v.Score != want {
		t.Fatalf("?model= score %v, want %v", v.Score, want)
	}

	// both peers down: the front keeps answering, failing open (score 0,
	// not an ad) instead of erroring or blocking
	for _, p := range peers {
		p.Close()
	}
	down := synth.SampleFrames(47, 1)[0]
	resp, v = postFrame(t,
		fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, down.W, down.H),
		"application/octet-stream", down.Pix)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-down status %d", resp.StatusCode)
	}
	if v.Score != 0 || v.Ad {
		t.Fatalf("peer-down verdict %+v, want fail-open score 0", v)
	}
	if st := pool.Stats(); st.Errors == 0 {
		// replicas own the shard traffic; the direct ?model= path and the
		// pool share the peers' counters
		errs := remotes[0].Stats().Errors + remotes[1].Stats().Errors
		for _, bs := range srv.BackendStats() {
			errs += bs.Errors
		}
		if errs == 0 {
			t.Fatal("peer-down dispatch did not count a fail-open error")
		}
	}

	// the fail-open must be visible to operators: /healthz engine_errors
	// and the per-shard /metrics error counters
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		EngineErrors int64  `json:"engine_errors"`
		Brownout     string `json:"brownout_stage"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.EngineErrors == 0 {
		t.Fatal("healthz engine_errors is 0 after a peer-down fail-open")
	}
	if h.Brownout != "normal" {
		t.Fatalf("healthz brownout_stage %q, want \"normal\"", h.Brownout)
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	_, err = exp.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(exp.Bytes(), []byte("percival_engine_errors_total")) {
		t.Fatal("/metrics does not expose the per-shard engine error counters")
	}
	if !bytes.Contains(exp.Bytes(), []byte("percival_serve_brownout_stage 0")) {
		t.Fatal("/metrics does not expose the brownout stage")
	}
}

// TestWireListenerRejectsGarbage: the daemon's wire listener must drop a
// connection whose stream is not wire framing rather than crash or hang,
// keep serving well-formed clients afterwards, and be advertised by
// /modelz.
func TestWireListenerRejectsGarbage(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wire, wireAddr, err := listenWire("127.0.0.1:0", svc.Engine(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", engine.ModelzHandlerID(svc.Backends(), svc.Engine(), svc.Threshold(), wireAddr, ""))
	peer := httptest.NewServer(mux)
	defer peer.Close()

	conn, err := net.Dial("tcp", wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(conn, "not a wire message, nowhere near one")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("garbage stream: read %v, want EOF (listener must drop the conn)", err)
	}
	conn.Close()

	// the handshake reports the serving engine and the bound listener, and
	// a front dialing it still gets real verdicts
	hresp, err := http.Get(peer.URL + "/modelz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var info engine.ModelzInfo
	if err := json.NewDecoder(hresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Engine != svc.Engine().Name() || info.InputRes != svc.InputRes() || info.WireAddr != wireAddr {
		t.Fatalf("modelz %+v, want engine %q res %d wire %s", info, svc.Engine().Name(), svc.InputRes(), wireAddr)
	}
	rb, err := engine.NewRemote(peer.URL, engine.RemoteOptions{ExpectRes: svc.InputRes(), Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	f := synth.SampleFrames(37, 1)
	var got [1]float64
	rb.InferBatchInto(f, got[:])
	if want := svc.Classify(f[0]); got[0] != want || rb.Stats().Errors != 0 {
		t.Fatalf("wire verdict %v (errors %d), want %v", got[0], rb.Stats().Errors, want)
	}
}

// TestClassifyRejectsWrappingRawDims: regression for the one-request
// crash. w=2^62, h=1 makes w*h*4 wrap to 0, which matched the empty body;
// the shard worker then panicked resizing a 2^62-wide bitmap with no
// pixels and took the daemon down. The request must get a 400, and the
// daemon must still serve afterwards.
func TestClassifyRejectsWrappingRawDims(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, svc.Backends(), svc.Engine(), nil)
	resp, _ := postFrame(t, front.URL+"/classify?w=4611686018427387904&h=1", "application/octet-stream", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrapping dims: status %d, want 400", resp.StatusCode)
	}
	f := synth.SampleFrames(39, 1)[0]
	resp, v := postFrame(t, fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H), "application/octet-stream", f.Pix)
	if resp.StatusCode != http.StatusOK || v.Score != svc.Classify(f) {
		t.Fatalf("after the rejected request: status %d verdict %+v", resp.StatusCode, v)
	}
}

// TestDialPeersNeedsWireListener: at boot, a -peers entry whose handshake
// advertises no wire listener is refused with an error naming the flag the
// peer is missing.
func TestDialPeersNeedsWireListener(t *testing.T) {
	svc := testService(t)
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", engine.ModelzHandlerID(nil, svc.Engine(), svc.Threshold(), "", ""))
	bare := httptest.NewServer(mux)
	defer bare.Close()
	_, err := dialPeers(svc.Backends(), bare.URL, svc.InputRes(), time.Second, 0, 0, "")
	if err == nil || !strings.Contains(err.Error(), "-wire-listen") {
		t.Fatalf("listener-less peer: err %v, want a rejection naming -wire-listen", err)
	}
}

// TestSaveCacheSurvivesRoundTrip: saveCache must leave a snapshot that
// loadCache fully restores (write, sync, atomic rename), and a missing file
// is a clean cold start.
func TestSaveCacheSurvivesRoundTrip(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(53, 5)
	for _, f := range frames {
		srv.Submit(f)
	}
	path := t.TempDir() + "/verdicts.pcvc"
	if n, err := loadCache(srv, path); err != nil || n != 0 {
		t.Fatalf("missing snapshot reported (%d, %v), want clean cold start", n, err)
	}
	n, err := saveCache(srv, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("saved %d verdicts, want %d", n, len(frames))
	}
	srv.Close()

	srv2, err := serve.New(svc, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m, err := loadCache(srv2, path); err != nil || m != n {
		t.Fatalf("restored (%d, %v), want (%d, nil)", m, err, n)
	}
	if r := srv2.Submit(frames[0]); r.Status != serve.StatusCached {
		t.Fatalf("restored verdict status %v, want cached", r.Status)
	}
}

// TestChaosSmokeZeroFailOpen is the daemon-level chaos smoke (`make
// chaos`): a front whose shards dispatch into a supervised fleet of two
// peers, one of them flapping (up -> blackhole -> up) the whole time. Every
// /classify answer must be a real verdict bit-identical to in-process
// classification — zero score-0 fail-opens, zero sheds — and /healthz must
// expose the supervisor's per-peer rows.
func TestChaosSmokeZeroFailOpen(t *testing.T) {
	svc := testService(t)
	reg := svc.Backends()

	remotes := make([]*engine.RemoteBackend, 2)
	var flap *faultinject.Injector
	for i := range remotes {
		inj := faultinject.NewInjector(int64(i))
		peer := startWirePeer(t, svc, inj)
		if i == 1 {
			flap = inj
		}
		rb, err := engine.NewRemote(peer.URL, engine.RemoteOptions{
			ExpectRes: svc.InputRes(),
			Timeout:   200 * time.Millisecond,
			Retries:   0,
		})
		if err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	fleet, err := engine.NewFleet(remotes, engine.FleetOptions{
		EvictAfter: 2,
		RedialBase: 20 * time.Millisecond,
		RedialMax:  100 * time.Millisecond,
		Fallback:   svc.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 4, Backend: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, reg, fleet, fleet)

	// flap peer 1 for the whole test: 150ms up, 400ms dead, repeat
	flap.SetSchedule(true,
		faultinject.Phase{Fault: faultinject.Fault{}, For: 150 * time.Millisecond},
		faultinject.Phase{Fault: faultinject.Fault{Blackhole: true}, For: 400 * time.Millisecond},
	)

	frames := synth.SampleFrames(59, 6)
	deadline := time.Now().Add(1500 * time.Millisecond)
	n := 0
	for time.Now().Before(deadline) {
		f := frames[n%len(frames)]
		resp, v := postFrame(t,
			fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H),
			"application/octet-stream", f.Pix)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (a flapping peer must never surface)", n, resp.StatusCode)
		}
		if want := svc.Classify(f); v.Score != want {
			t.Fatalf("request %d: score %v, want %v (fail-open leaked through the fleet)", n, v.Score, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no requests issued")
	}
	if st := fleet.Stats(); st.Errors != 0 {
		t.Fatalf("fleet failed open under flap: %+v", st)
	}
	for _, bs := range srv.BackendStats() {
		if bs.Errors != 0 {
			t.Fatalf("shard replica failed open under flap: %+v", bs)
		}
	}

	// the supervisor is visible from outside: /healthz carries per-peer rows
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Peers []engine.PeerHealthInfo `json:"peers"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("healthz peers %+v, want 2 rows", h.Peers)
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	if _, err := exp.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !bytes.Contains(exp.Bytes(), []byte("percival_fleet_peer_state")) {
		t.Fatal("/metrics does not expose the fleet supervisor gauges")
	}
}
