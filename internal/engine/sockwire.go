package engine

// The socket wire: the one transport between a front and its peers. One
// hot TCP connection per peer carries multiplexed request/response
// messages, so there is no per-chunk connection or HTTP exchange. Request
// IDs let responses return out of order, so the CUBIC congestion window's
// in-flight chunks really are concurrently in flight on one connection; a
// request that outlives its RTO deadline is abandoned client-side (its ID
// is forgotten; a late response is dropped) and feeds the window as a
// loss.
//
// Every message is a header followed by count entries (little-endian):
//
//	magic   "PCVB" (request) / "PCVS" (response)    4 bytes
//	version uint16                                  2 (wireVersion)
//	id      uint32            request ID, echoed by the response
//	flags   uint32            sockFlagProbe (request) / sockFlagMask (response)
//	count   uint32            entries that follow, 1..maxWireFrames
//
// A request with sockFlagProbe carries count × (32-byte content key +
// 8-byte perceptual hash) — the hash-first dedup tier: the peer answers
// from its verdict cache and never sees the pixels. Its response carries
// sockFlagMask: a ceil(count/8) hit bitmask followed by one float64 score
// per set bit; a peer with no verdict cache also sets sockFlagNoCache, and
// the client then skips probes for the rest of the connection (every one
// would miss). A request without sockFlagProbe carries count ×
// (32-byte content key + w uint32 + h uint32 + w*h*4 RGBA bytes) — pixels
// for the probe misses, keyed so the peer can store the verdicts it scores
// without re-hashing; its response is count × float64 scores. On
// cache-warm traffic a ~200 KB frame costs 40 bytes on the wire. Pixels
// that do travel are written straight from each frame's backing buffer to
// the socket — no per-chunk body assembly.
//
// Peers advertise the listener through the /modelz handshake (modelz.go).
// Frames travel at their original resolution: the peer runs the exact same
// pre-processing (ResizeBilinearInto + ToTensorInto) an in-process backend
// would, so a proxied verdict is bit-identical to local dispatch — and a
// dedup hit is answered from a cache filled by those same model runs, so it
// is bit-identical too.
//
// sockettransport-style stream framing (see ndn-dpdk): the reader is a
// single goroutine per connection that routes responses to waiters by ID;
// writers serialize whole messages under a write lock. A protocol error
// anywhere kills the connection — a byte stream that lost framing cannot
// resync — and the next round trip redials.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
)

const (
	batchMagic  = "PCVB"
	scoreMagic  = "PCVS"
	wireVersion = 2
	// maxWireFrames bounds one message's entry count; a proxy chunks by
	// BatchChunk, so anything near this limit is a misbehaving client, not
	// a big batch.
	maxWireFrames = 4096
	// sockHeaderLen is the message prefix: magic, version, id, flags,
	// count.
	sockHeaderLen = 4 + 2 + 4 + 4 + 4
	// sockFlagProbe marks a request as a hash probe (keys + phashes, no
	// pixels); sockFlagMask marks a response as a probe answer (hit bitmask
	// + scores for the set bits). Any other flag bit is a protocol error.
	sockFlagProbe = 1 << 0
	sockFlagMask  = 1 << 0
	// sockFlagNoCache rides a probe answer from a peer without a verdict
	// cache.
	sockFlagNoCache = 1 << 1
	// wireKeyLen is the content-key length (imaging.ContentKey).
	wireKeyLen = 32
	// probeEntryLen is one probe entry: content key + perceptual hash.
	probeEntryLen = wireKeyLen + 8
	// maxSockPixelBytes bounds one pixel message's total pixel payload:
	// one full chunk of maximum-size frames.
	maxSockPixelBytes = int64(BatchChunk) * imaging.MaxFrameBytes
	// sockBufSize sizes the per-connection read/write buffers.
	sockBufSize = 64 << 10
)

// putSockHeader writes a message header into dst[:sockHeaderLen].
func putSockHeader(dst []byte, magic string, id, flags, count uint32) {
	copy(dst[:4], magic)
	binary.LittleEndian.PutUint16(dst[4:6], wireVersion)
	binary.LittleEndian.PutUint32(dst[6:10], id)
	binary.LittleEndian.PutUint32(dst[10:14], flags)
	binary.LittleEndian.PutUint32(dst[14:18], count)
}

// sockReq is one decoded request: a hash probe (keys+phash) or a keyed
// pixel batch (keys+frames).
type sockReq struct {
	id     uint32
	probe  bool
	keys   [][32]byte
	phash  []uint64
	frames []*imaging.Bitmap
}

// readSockRequest decodes one request message from the stream, validating
// every bound before allocating. This is the server's untrusted-input
// surface (fuzzed by FuzzWireMsg).
func readSockRequest(r io.Reader) (*sockReq, error) {
	var hdr [sockHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("engine: wire request header: %w", err)
	}
	if string(hdr[:4]) != batchMagic {
		return nil, fmt.Errorf("engine: not a wire request (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != wireVersion {
		return nil, fmt.Errorf("engine: wire request version %d, want %d", v, wireVersion)
	}
	req := &sockReq{id: binary.LittleEndian.Uint32(hdr[6:10])}
	flags := binary.LittleEndian.Uint32(hdr[10:14])
	count := binary.LittleEndian.Uint32(hdr[14:18])
	if flags != 0 && flags != sockFlagProbe {
		return nil, fmt.Errorf("engine: wire request flags %#x", flags)
	}
	if count == 0 || count > maxWireFrames {
		return nil, fmt.Errorf("engine: wire request of %d entries (1..%d)", count, maxWireFrames)
	}
	req.keys = make([][32]byte, count)
	if flags&sockFlagProbe != 0 {
		req.probe = true
		req.phash = make([]uint64, count)
		var ent [probeEntryLen]byte
		for i := range req.keys {
			if _, err := io.ReadFull(r, ent[:]); err != nil {
				return nil, fmt.Errorf("engine: probe entry %d: %w", i, err)
			}
			copy(req.keys[i][:], ent[:wireKeyLen])
			req.phash[i] = binary.LittleEndian.Uint64(ent[wireKeyLen:])
		}
		return req, nil
	}
	req.frames = make([]*imaging.Bitmap, 0, count)
	var total int64
	for i := uint32(0); i < count; i++ {
		var fh [wireKeyLen + 8]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return nil, fmt.Errorf("engine: wire frame %d header: %w", i, err)
		}
		copy(req.keys[i][:], fh[:wireKeyLen])
		w := int(binary.LittleEndian.Uint32(fh[wireKeyLen : wireKeyLen+4]))
		h := int(binary.LittleEndian.Uint32(fh[wireKeyLen+4:]))
		if err := imaging.CheckFrameSize(w, h); err != nil {
			return nil, fmt.Errorf("engine: wire frame %d: %w", i, err)
		}
		if total += int64(w) * int64(h) * 4; total > maxSockPixelBytes {
			return nil, fmt.Errorf("engine: wire request pixel payload exceeds %d bytes", maxSockPixelBytes)
		}
		b := imaging.NewBitmap(w, h)
		if _, err := io.ReadFull(r, b.Pix); err != nil {
			return nil, fmt.Errorf("engine: wire frame %d pixels: %w", i, err)
		}
		req.frames = append(req.frames, b)
	}
	return req, nil
}

// sockResp is one decoded response: either plain scores (count of them)
// or a probe answer (hit mask over count entries, scores for the set bits).
type sockResp struct {
	id      uint32
	masked  bool
	noCache bool // the peer has no verdict cache (sockFlagNoCache)
	count   int
	mask    []byte
	scores  []float64
}

// wireSize is the response's on-the-wire byte count (accounting).
func (r sockResp) wireSize() int64 {
	return int64(sockHeaderLen + len(r.mask) + 8*len(r.scores))
}

// readSockResponse decodes one response message from the stream (the
// client side of the fuzzed surface).
func readSockResponse(r io.Reader) (sockResp, error) {
	var hdr [sockHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return sockResp{}, fmt.Errorf("engine: wire response header: %w", err)
	}
	if string(hdr[:4]) != scoreMagic {
		return sockResp{}, fmt.Errorf("engine: not a wire response (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != wireVersion {
		return sockResp{}, fmt.Errorf("engine: wire response version %d, want %d", v, wireVersion)
	}
	resp := sockResp{id: binary.LittleEndian.Uint32(hdr[6:10])}
	flags := binary.LittleEndian.Uint32(hdr[10:14])
	count := binary.LittleEndian.Uint32(hdr[14:18])
	if flags != 0 && flags != sockFlagMask && flags != sockFlagMask|sockFlagNoCache {
		return sockResp{}, fmt.Errorf("engine: wire response flags %#x", flags)
	}
	resp.noCache = flags&sockFlagNoCache != 0
	if count == 0 || count > maxWireFrames {
		return sockResp{}, fmt.Errorf("engine: wire response of %d entries (1..%d)", count, maxWireFrames)
	}
	resp.count = int(count)
	nscores := resp.count
	if flags&sockFlagMask != 0 {
		resp.masked = true
		resp.mask = make([]byte, (count+7)/8)
		if _, err := io.ReadFull(r, resp.mask); err != nil {
			return sockResp{}, fmt.Errorf("engine: wire response mask: %w", err)
		}
		nscores = 0
		for i, m := range resp.mask {
			if i == len(resp.mask)-1 {
				// bits past count must be clear, or the score count is
				// ambiguous
				if extra := len(resp.mask)*8 - resp.count; extra > 0 && m>>(8-extra) != 0 {
					return sockResp{}, fmt.Errorf("engine: wire response mask sets bits past entry %d", count)
				}
			}
			nscores += bits.OnesCount8(m)
		}
	}
	resp.scores = make([]float64, nscores)
	var buf [8]byte
	for i := range resp.scores {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return sockResp{}, fmt.Errorf("engine: wire response score %d: %w", i, err)
		}
		resp.scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return resp, nil
}

// sockResult delivers a response (or the connection's fatal error) to the
// round trip waiting on its request ID.
type sockResult struct {
	resp sockResp
	err  error
}

// sockTransport is the wire client: one hot connection, lazily dialed and
// redialed, multiplexing round trips by request ID. Shared across a peer's
// replicas like the congestion window.
type sockTransport struct {
	addr string // wire listener address, resolved against the peer host
	peer string // peer base URL, for error text

	mu      sync.Mutex // connection lifecycle + pending table + nextID
	wmu     sync.Mutex // serializes whole-message writes (never held with mu)
	conn    net.Conn
	bw      *bufio.Writer
	pending map[uint32]chan sockResult
	nextID  uint32
	// noProbe is set once the current connection's peer has said it has
	// no verdict cache; chunks then send pixels without a probe.
	noProbe atomic.Bool

	stats transportCounters
}

func newSockTransport(addr, peer string) *sockTransport {
	return &sockTransport{
		addr:    addr,
		peer:    peer,
		pending: make(map[uint32]chan sockResult),
	}
}

func (t *sockTransport) Stats() TransportStats { return t.stats.snapshot("socket") }

// Close drops the hot connection, failing the in-flight round trips.
// Sibling replicas sharing the transport stay usable: the next round trip
// redials.
func (t *sockTransport) Close() {
	t.mu.Lock()
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		t.dropConn(conn, net.ErrClosed)
	}
}

// warm pre-dials the connection so the first dispatch pays no setup.
func (t *sockTransport) warm(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		return nil
	}
	return t.dialLocked(ctx)
}

// dialLocked establishes the connection and starts its reader. Caller
// holds t.mu.
func (t *sockTransport) dialLocked(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return fmt.Errorf("engine: peer %s wire dial %s: %w", t.peer, t.addr, err)
	}
	t.conn = conn
	t.bw = bufio.NewWriterSize(conn, sockBufSize)
	t.stats.dials.Add(1)
	go t.readLoop(conn, bufio.NewReaderSize(conn, sockBufSize))
	return nil
}

// dropConn retires a dead connection: in-flight round trips fail with err
// (they retry through the window machinery) and the next call redials. A
// stale conn — already replaced — is just closed.
func (t *sockTransport) dropConn(conn net.Conn, err error) {
	t.mu.Lock()
	if t.conn == conn {
		t.conn, t.bw = nil, nil
		t.noProbe.Store(false) // the redialed peer may come back with a cache
		for id, ch := range t.pending {
			delete(t.pending, id)
			ch <- sockResult{err: err}
		}
	}
	t.mu.Unlock()
	conn.Close()
}

// readLoop is the connection's single reader: it routes responses to their
// waiting round trips by ID. A response whose ID is unknown answers a
// request that already timed out client-side — dropped, the timeout was
// the loss signal.
func (t *sockTransport) readLoop(conn net.Conn, br *bufio.Reader) {
	for {
		resp, err := readSockResponse(br)
		if err != nil {
			t.dropConn(conn, err)
			return
		}
		t.stats.bytesIn.Add(resp.wireSize())
		t.mu.Lock()
		ch := t.pending[resp.id]
		delete(t.pending, resp.id)
		t.mu.Unlock()
		if ch != nil {
			ch <- sockResult{resp: resp}
		}
	}
}

// call runs one request/response exchange: register a pending ID, write
// the message (size bytes, for accounting), await the routed response.
// ctx expiry abandons the ID — in-flight accounting for the congestion
// window stays with the caller, which holds the window slot.
func (t *sockTransport) call(ctx context.Context, size int64, write func(bw *bufio.Writer, id uint32) error) (sockResp, error) {
	t.mu.Lock()
	if t.conn == nil {
		if err := t.dialLocked(ctx); err != nil {
			t.mu.Unlock()
			return sockResp{}, err
		}
	}
	conn, bw := t.conn, t.bw
	t.nextID++
	id := t.nextID
	ch := make(chan sockResult, 1)
	t.pending[id] = ch
	t.mu.Unlock()

	t.wmu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(dl)
	} else {
		conn.SetWriteDeadline(time.Time{})
	}
	err := write(bw, id)
	if err == nil {
		err = bw.Flush()
	}
	t.wmu.Unlock()
	if err != nil {
		t.dropConn(conn, err)
		return sockResp{}, err
	}
	t.stats.bytesOut.Add(size)
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		t.mu.Lock()
		delete(t.pending, id)
		t.mu.Unlock()
		return sockResp{}, ctx.Err()
	}
}

// roundTrip scores one chunk over the socket: hash probe first, then
// pixels for the misses only (all of them, unprobed, once the peer has
// said it keeps no cache). Scores land in out[:len(chunk.frames)]; the
// context carries the attempt's RTO-capped deadline. Every socket failure
// is retryable — the retry redials.
func (t *sockTransport) roundTrip(ctx context.Context, chunk *wireChunk, out []float64) error {
	frames := chunk.frames
	t.stats.chunks.Add(1)
	keys, phash := chunk.contentKeys()
	n := len(keys)
	var missArr [BatchChunk]int
	miss := missArr[:0]
	if t.noProbe.Load() {
		for i := 0; i < n; i++ {
			miss = append(miss, i)
		}
	} else {
		resp, err := t.call(ctx, int64(sockHeaderLen+n*probeEntryLen), func(bw *bufio.Writer, id uint32) error {
			writeProbe(bw, id, keys, phash)
			return nil // write errors are sticky; Flush surfaces them
		})
		if err != nil {
			return err
		}
		if !resp.masked || resp.count != n {
			return fmt.Errorf("engine: peer %s wire: probe answered %d/%v, want %d/mask",
				t.peer, resp.count, resp.masked, n)
		}
		if resp.noCache {
			t.noProbe.Store(true)
		}
		si := 0
		for i := 0; i < n; i++ {
			if resp.mask[i/8]&(1<<(i%8)) != 0 {
				out[i] = resp.scores[si]
				si++
			} else {
				miss = append(miss, i)
			}
		}
		t.stats.framesDedup.Add(int64(n - len(miss)))
		if len(miss) == 0 {
			return nil
		}
	}
	size := int64(sockHeaderLen)
	for _, i := range miss {
		size += wireKeyLen + 8 + int64(len(frames[i].Pix))
	}
	resp, err := t.call(ctx, size, func(bw *bufio.Writer, id uint32) error {
		writePixels(bw, id, keys, frames, miss)
		return nil
	})
	if err != nil {
		return err
	}
	if resp.masked || resp.count != len(miss) {
		return fmt.Errorf("engine: peer %s wire: %d scores for %d frames",
			t.peer, resp.count, len(miss))
	}
	for j, i := range miss {
		out[i] = resp.scores[j]
	}
	t.stats.framesPixels.Add(int64(len(miss)))
	return nil
}

// writeProbe writes a probe request: one content key + perceptual hash
// per frame.
func writeProbe(bw *bufio.Writer, id uint32, keys [][32]byte, phash []uint64) {
	var hdr [sockHeaderLen]byte
	putSockHeader(hdr[:], batchMagic, id, sockFlagProbe, uint32(len(keys)))
	bw.Write(hdr[:])
	var pb [8]byte
	for i := range keys {
		bw.Write(keys[i][:])
		binary.LittleEndian.PutUint64(pb[:], phash[i])
		bw.Write(pb[:])
	}
}

// writePixels writes a keyed pixel request for frames[i], i in idx.
func writePixels(bw *bufio.Writer, id uint32, keys [][32]byte, frames []*imaging.Bitmap, idx []int) {
	var hdr [sockHeaderLen]byte
	putSockHeader(hdr[:], batchMagic, id, 0, uint32(len(idx)))
	bw.Write(hdr[:])
	var dims [8]byte
	for _, i := range idx {
		bw.Write(keys[i][:])
		binary.LittleEndian.PutUint32(dims[0:4], uint32(frames[i].W))
		binary.LittleEndian.PutUint32(dims[4:8], uint32(frames[i].H))
		bw.Write(dims[:])
		// zero-copy: pixels go straight from the frame's backing buffer to
		// the socket (bufio passes large writes through)
		bw.Write(frames[i].Pix)
	}
}

// resolveWireAddr resolves a peer's advertised wire listener against its
// handshake host: an empty or wildcard listener host (":8094", "0.0.0.0:8094",
// "[::]:8094") means "same host as the handshake".
func resolveWireAddr(httpHost, wireAddr string) string {
	host, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if h, _, err := net.SplitHostPort(httpHost); err == nil {
			host = h
		} else {
			host = httpHost
		}
		return net.JoinHostPort(host, port)
	}
	return wireAddr
}

// VerdictCache answers wire hash probes and absorbs wire-scored verdicts.
// serve.Server implements it over the sharded serving cache; VerdictMap is
// the standalone implementation for peers without a serving edge.
type VerdictCache interface {
	// LookupVerdict reports a memoized score by imaging.ContentKey.
	LookupVerdict(key [32]byte) (float64, bool)
	// StoreVerdict memoizes a freshly-scored verdict.
	StoreVerdict(key [32]byte, score float64)
}

// VerdictMap is a bounded FIFO-evicting VerdictCache for wire peers that
// have no serve.Server (benchmarks, bare model processes). Safe for
// concurrent use.
type VerdictMap struct {
	mu    sync.Mutex
	max   int
	m     map[[32]byte]float64
	order [][32]byte
	next  int
}

// NewVerdictMap builds a cache bounded to max entries (default 4096).
func NewVerdictMap(max int) *VerdictMap {
	if max <= 0 {
		max = 4096
	}
	return &VerdictMap{max: max, m: make(map[[32]byte]float64, max)}
}

// LookupVerdict implements VerdictCache.
func (v *VerdictMap) LookupVerdict(key [32]byte) (float64, bool) {
	v.mu.Lock()
	s, ok := v.m[key]
	v.mu.Unlock()
	return s, ok
}

// StoreVerdict implements VerdictCache with FIFO eviction.
func (v *VerdictMap) StoreVerdict(key [32]byte, score float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, exists := v.m[key]; exists {
		v.m[key] = score
		return
	}
	if len(v.m) >= v.max {
		old := v.order[v.next%len(v.order)]
		delete(v.m, old)
		v.order[v.next%len(v.order)] = key
		v.next++
	} else {
		v.order = append(v.order, key)
	}
	v.m[key] = score
}

// Reset drops every memoized verdict (rotation epochs, benchmarks).
func (v *VerdictMap) Reset() {
	v.mu.Lock()
	clear(v.m)
	v.order = v.order[:0]
	v.next = 0
	v.mu.Unlock()
}

// Len reports the number of memoized verdicts.
func (v *VerdictMap) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.m)
}

// WireServerStats is the wire listener's counter snapshot (/metrics).
type WireServerStats struct {
	Conns        int64 `json:"conns"`
	Requests     int64 `json:"requests"`
	ProbeHits    int64 `json:"probe_hits"`
	ProbeMisses  int64 `json:"probe_misses"`
	FramesScored int64 `json:"frames_scored"`
	BytesIn      int64 `json:"bytes_in"`
	BytesOut     int64 `json:"bytes_out"`
	WriteErrors  int64 `json:"write_errors"`
}

// WireServerOptions configures a WireServer.
type WireServerOptions struct {
	// Backend scores the pixel messages (probe misses). Required.
	Backend Backend
	// Cache answers probes and memoizes wire-scored verdicts. Optional:
	// without it every probe misses and nothing is memoized — correct but
	// dedup-blind.
	Cache VerdictCache
	// MaxConcurrent bounds concurrent forward passes across all
	// connections (default 2×GOMAXPROCS): the multiplexed wire would
	// otherwise let one proxy's whole congestion window fan out into
	// unbounded goroutines.
	MaxConcurrent int
}

// WireServer is the peer side of the persistent-socket wire: an accept
// loop over framed wire messages, answering probes from the verdict cache
// inline and scoring pixel batches on the backend (concurrently per
// request ID, so responses overtake each other exactly as the multiplexed
// client expects).
type WireServer struct {
	backend Backend
	cache   VerdictCache
	sem     chan struct{}

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	conns_       atomic.Int64
	requests     atomic.Int64
	probeHits    atomic.Int64
	probeMisses  atomic.Int64
	framesScored atomic.Int64
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	writeErrors  atomic.Int64
}

// NewWireServer builds a wire listener over a backend and optional cache.
func NewWireServer(opts WireServerOptions) *WireServer {
	if opts.Backend == nil {
		panic("engine: WireServer needs a backend")
	}
	maxc := opts.MaxConcurrent
	if maxc <= 0 {
		maxc = 2 * runtime.GOMAXPROCS(0)
	}
	return &WireServer{
		backend: opts.Backend,
		cache:   opts.Cache,
		sem:     make(chan struct{}, maxc),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Stats snapshots the server's wire counters.
func (s *WireServer) Stats() WireServerStats {
	return WireServerStats{
		Conns:        s.conns_.Load(),
		Requests:     s.requests.Load(),
		ProbeHits:    s.probeHits.Load(),
		ProbeMisses:  s.probeMisses.Load(),
		FramesScored: s.framesScored.Load(),
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
		WriteErrors:  s.writeErrors.Load(),
	}
}

// Serve accepts connections on ln until Close (which returns nil) or a
// listener error. Multiple Serve calls on different listeners are allowed.
func (s *WireServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.conns_.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listeners, closes every connection and waits the
// handlers out.
func (s *WireServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handleConn reads requests until the stream breaks: probes are answered
// inline (cache lookups, no model time), pixel batches score on a bounded
// pool of goroutines so a deep client window maps to concurrent forward
// passes without unbounded fan-out. Any protocol error closes the
// connection — framing cannot resync mid-stream.
func (s *WireServer) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(countingReader{r: conn, n: &s.bytesIn}, sockBufSize)
	var wmu sync.Mutex
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		req, err := readSockRequest(br)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && err != io.EOF && !errorIsEOF(err) {
				log.Printf("engine: wire conn %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.requests.Add(1)
		if req.probe {
			s.answerProbe(conn, &wmu, req)
			continue
		}
		reqWG.Add(1)
		s.sem <- struct{}{}
		go func() {
			defer func() { <-s.sem; reqWG.Done() }()
			s.scorePixels(conn, &wmu, req)
		}()
	}
}

// countingReader counts bytes drawn from a connection.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// errorIsEOF reports whether err wraps a clean or mid-header stream end —
// the client closing its hot connection, not a protocol violation worth
// logging.
func errorIsEOF(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == io.EOF || err == io.ErrUnexpectedEOF || err == net.ErrClosed {
			return true
		}
		if ne, ok := err.(*net.OpError); ok {
			err = ne.Err
			continue
		}
	}
	return false
}

func unwrap(err error) error {
	if u, ok := err.(interface{ Unwrap() error }); ok {
		return u.Unwrap()
	}
	return nil
}

// answerProbe replies with the verdict cache's view of the probed keys:
// hit bitmask + scores for the hits.
func (s *WireServer) answerProbe(conn net.Conn, wmu *sync.Mutex, req *sockReq) {
	n := len(req.keys)
	mask := make([]byte, (n+7)/8)
	scores := make([]float64, 0, n)
	if s.cache != nil {
		for i, k := range req.keys {
			if v, ok := s.cache.LookupVerdict(k); ok {
				mask[i/8] |= 1 << (i % 8)
				scores = append(scores, v)
			}
		}
	}
	s.probeHits.Add(int64(len(scores)))
	s.probeMisses.Add(int64(n - len(scores)))
	flags := uint32(sockFlagMask)
	if s.cache == nil {
		flags |= sockFlagNoCache
	}
	s.writeMsg(conn, wmu, scoreMsg(req.id, flags, n, mask, scores))
}

// scorePixels runs the batch on the backend, memoizes the verdicts under
// the client-supplied content keys, and replies with plain scores.
func (s *WireServer) scorePixels(conn net.Conn, wmu *sync.Mutex, req *sockReq) {
	out := make([]float64, len(req.frames))
	s.backend.InferBatchInto(req.frames, out)
	s.framesScored.Add(int64(len(req.frames)))
	if s.cache != nil {
		for i, k := range req.keys[:len(req.frames)] {
			s.cache.StoreVerdict(k, out[i])
		}
	}
	s.writeMsg(conn, wmu, scoreMsg(req.id, 0, len(out), nil, out))
}

// scoreMsg encodes one response over count entries: plain scores (flags
// 0, mask nil) or a probe answer (sockFlagMask: hit mask, then the scores
// of the hits).
func scoreMsg(id, flags uint32, count int, mask []byte, scores []float64) []byte {
	buf := make([]byte, sockHeaderLen, sockHeaderLen+len(mask)+8*len(scores))
	putSockHeader(buf, scoreMagic, id, flags, uint32(count))
	buf = append(buf, mask...)
	for _, v := range scores {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// writeMsg writes one whole response with a single Write under the
// connection's write lock, so a wrapping net.Conn sees one message per
// Write (faultinject.Listener faults each response that way). A failed
// write closes the connection: the client's reader notices and redials.
func (s *WireServer) writeMsg(conn net.Conn, wmu *sync.Mutex, buf []byte) {
	wmu.Lock()
	_, err := conn.Write(buf)
	wmu.Unlock()
	if err != nil {
		s.writeErrors.Add(1)
		conn.Close()
		return
	}
	s.bytesOut.Add(int64(len(buf)))
}
