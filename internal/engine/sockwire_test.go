package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// newWirePeer stands up a peer the way percival-serve -wire-listen mounts
// it: the socket-wire listener scoring on def (answering probes from cache,
// nil for none) plus the /modelz handshake advertising it. With a non-nil
// inj both surfaces take its faults, so a blackholed peer also blackholes
// the handshake a fleet redials with.
func newWirePeer(t testing.TB, def Backend, cache VerdictCache, inj *faultinject.Injector) (*httptest.Server, *WireServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var modelz http.Handler = ModelzHandlerID(nil, def, 0.5, addr, "")
	if inj != nil {
		ln = faultinject.Listener(inj, ln)
		modelz = faultinject.Middleware(inj, modelz)
	}
	ws := NewWireServer(WireServerOptions{Backend: def, Cache: cache})
	go ws.Serve(ln)
	t.Cleanup(ws.Close)
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", modelz)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, ws
}

// TestSockWireBitIdentical is the transport's acceptance anchor: verdicts
// over the persistent socket — cold and dedup-warm — must be bit-identical
// to in-process scoring, and the warm pass must travel probe bytes, not
// pixel bytes.
func TestSockWireBitIdentical(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, NewVerdictMap(4096), nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if kind := rb.TransportStats().Kind; kind != "socket" {
		t.Fatalf("transport kind %q, want socket", kind)
	}

	frames := synth.SampleFrames(7, 2*BatchChunk+3)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cold frame %d: socket %v, local %v", i, got[i], want[i])
		}
	}
	cold := rb.TransportStats()
	if cold.FramesPixels != int64(len(frames)) {
		t.Fatalf("cold pass sent %d pixel frames, want %d", cold.FramesPixels, len(frames))
	}

	// warm pass: the peer's verdict cache knows every frame, so the probes
	// answer everything and no pixels travel
	for i := range got {
		got[i] = -1
	}
	rb.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm frame %d: socket %v, local %v", i, got[i], want[i])
		}
	}
	warm := rb.TransportStats()
	if warm.FramesPixels != cold.FramesPixels {
		t.Fatalf("warm pass re-sent pixels (%d -> %d)", cold.FramesPixels, warm.FramesPixels)
	}
	if warm.FramesDedup != int64(len(frames)) {
		t.Fatalf("warm pass deduped %d frames, want %d", warm.FramesDedup, len(frames))
	}
	warmBytes := warm.BytesOut - cold.BytesOut
	if warmBytes <= 0 || warmBytes*10 > cold.BytesOut {
		t.Fatalf("warm pass cost %d bytes vs cold %d, want >=10x cut", warmBytes, cold.BytesOut)
	}
	if st := ws.Stats(); st.ProbeHits == 0 || st.FramesScored != int64(len(frames)) {
		t.Fatalf("wire server stats %+v", st)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("socket wire failed open: %+v", st)
	}
}

// TestSockWireSkipsProbesWithoutCache: a peer with no verdict cache says
// so in its first probe answer, and the client then sends pixels without
// a probe — one round trip per chunk — until it redials.
func TestSockWireSkipsProbesWithoutCache(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, nil, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(29, 2)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	got := make([]float64, len(frames))
	for _, wantReqs := range []int64{2, 3} { // probe + pixels, then pixels only
		rb.InferBatchInto(frames, got)
		if st := ws.Stats(); st.Requests != wantReqs {
			t.Fatalf("peer saw %d requests, want %d", st.Requests, wantReqs)
		}
	}
	rb.Close() // a redial may reach a peer that came back with a cache
	rb.InferBatchInto(frames, got)
	if st := ws.Stats(); st.Requests != 5 || st.ProbeMisses != 2*int64(len(frames)) {
		t.Fatalf("after redial the peer saw %+v, want a fresh probe", st)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSockWireRedialsAfterClose: Close drops the hot connection but is not
// terminal — sibling replicas share the transport, so the next dispatch
// must redial instead of failing.
func TestSockWireRedialsAfterClose(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(13, 3)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	got := make([]float64, len(frames))

	rep := rb.Replicate().(*RemoteBackend)
	rb.InferBatchInto(frames, got)
	dials := rb.TransportStats().Dials
	rb.Close() // replica rep still holds the transport
	rep.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-Close frame %d: %v, want %v", i, got[i], want[i])
		}
	}
	if st := rep.Stats(); st.Errors != 0 {
		t.Fatalf("replica failed open after sibling Close: %+v", st)
	}
	if d := rb.TransportStats().Dials; d != dials+1 {
		t.Fatalf("dials %d -> %d, want one redial", dials, d)
	}
}

// TestSockWireConcurrent: the multiplexed connection must carry many
// concurrent chunks (out-of-order responses, shared pending table) with
// every verdict bit-identical. Run under -race this is the transport's
// synchronization gate.
func TestSockWireConcurrent(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, NewVerdictMap(4096), nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(17, 24)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := rb.Replicate()
			got := make([]float64, len(frames))
			for iter := 0; iter < 5; iter++ {
				rep.InferBatchInto(frames, got)
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("worker %d iter %d frame %d: %v, want %v", w, iter, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("concurrent socket dispatch failed open: %+v", st)
	}
}

// TestSockWireFailsOpenWhenDown: a wire peer whose socket listener dies
// mid-life must not wedge the proxy — chunks fail open within the retry
// budget like any dead peer.
func TestSockWireFailsOpenWhenDown(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, nil, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{
		ExpectRes: res, Timeout: 300 * time.Millisecond, Retries: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(19, 2)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got) // healthy pass establishes the conn
	ws.Close()                     // socket listener dies; /modelz stays up
	rb.InferBatchInto(frames, got)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("frame %d scored %v after wire death, want fail-open 0", i, v)
		}
	}
	if st := rb.Stats(); st.Errors == 0 {
		t.Fatal("wire death did not count a fail-open error")
	}
}

// TestWireServerRejectsGarbage: a stream that breaks framing must close —
// a byte stream that lost sync cannot recover — and must do so without
// wedging or crashing the listener.
func TestWireServerRejectsGarbage(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(WireServerOptions{Backend: local})
	go ws.Serve(ln)
	defer ws.Close()

	for _, msg := range [][]byte{
		[]byte("not a wire message, nowhere near one......."),
		// right magic, wrong version
		func() []byte {
			var b [sockHeaderLen]byte
			putSockHeader(b[:], batchMagic, 1, 0, 1)
			binary.LittleEndian.PutUint16(b[4:6], 9)
			return b[:]
		}(),
		// probe with an impossible count
		func() []byte {
			var b [sockHeaderLen]byte
			putSockHeader(b[:], batchMagic, 1, sockFlagProbe, maxWireFrames+1)
			return b[:]
		}(),
		// pixel frame with overflowing dims
		func() []byte {
			var b [sockHeaderLen + wireKeyLen + 8]byte
			putSockHeader(b[:], batchMagic, 1, 0, 1)
			binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen:], 1<<15)
			binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen+4:], 1<<15)
			return b[:]
		}(),
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("write %q: %v", msg[:4], err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("garbage %x: conn read %v, want EOF (server must drop the conn)", msg[:8], err)
		}
		conn.Close()
	}
}

// TestSockRequestRoundTrip: the wire request/response codecs must reproduce
// probes, keyed pixel batches and masked responses bit-for-bit.
func TestSockRequestRoundTrip(t *testing.T) {
	frames := synth.SampleFrames(23, 3)
	keys := make([][32]byte, len(frames))
	phash := make([]uint64, len(frames))
	for i, f := range frames {
		keys[i] = imaging.ContentKey(f)
		phash[i] = imaging.PerceptualHash(f)
	}

	// probe
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeProbe(bw, 42, keys, phash)
	bw.Flush()
	req, err := readSockRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !req.probe || req.id != 42 || len(req.keys) != len(keys) {
		t.Fatalf("probe decoded %+v", req)
	}
	for i := range keys {
		if req.keys[i] != keys[i] || req.phash[i] != phash[i] {
			t.Fatalf("probe entry %d mismatch", i)
		}
	}

	// keyed pixels, a subset in caller order
	buf.Reset()
	idx := []int{2, 0}
	writePixels(bw, 43, keys, frames, idx)
	bw.Flush()
	req, err = readSockRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if req.probe || req.id != 43 || len(req.frames) != len(idx) {
		t.Fatalf("pixel request decoded %+v", req)
	}
	for j, i := range idx {
		f := frames[i]
		if req.keys[j] != keys[i] || req.frames[j].W != f.W || req.frames[j].H != f.H || !bytes.Equal(req.frames[j].Pix, f.Pix) {
			t.Fatalf("pixel frame %d mismatch", i)
		}
	}

	// masked response with bits set past count must be rejected
	var hdr [sockHeaderLen]byte
	buf.Reset()
	putSockHeader(hdr[:], scoreMagic, 44, sockFlagMask, 3)
	buf.Write(hdr[:])
	buf.WriteByte(0xFF) // 8 bits set for 3 entries
	resp, err := readSockResponse(&buf)
	if err == nil {
		t.Fatalf("overfull mask accepted: %+v", resp)
	}
}

// TestResolveWireAddr: wildcard and empty listener hosts resolve against
// the handshake host; concrete hosts pass through.
func TestResolveWireAddr(t *testing.T) {
	for _, tc := range []struct{ httpHost, wire, want string }{
		{"10.0.0.7:8093", ":8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "0.0.0.0:8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "[::]:8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "10.0.0.8:8094", "10.0.0.8:8094"},
		{"example.test:8093", ":9", "example.test:9"},
	} {
		if got := resolveWireAddr(tc.httpHost, tc.wire); got != tc.want {
			t.Errorf("resolveWireAddr(%q, %q) = %q, want %q", tc.httpHost, tc.wire, got, tc.want)
		}
	}
}
