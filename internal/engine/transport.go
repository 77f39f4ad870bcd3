package engine

// The per-chunk state RemoteBackend hands the socket wire (sockwire.go),
// the pool that recycles it, and the per-peer byte and dedup accounting
// the health surfaces read.

import (
	"sync"
	"sync/atomic"

	"percival/internal/imaging"
)

// wireChunk is one dispatch chunk in flight to a peer: the frames plus
// their content keys and perceptual hashes for the dedup probe, computed
// lazily at most once however many attempts and hedge arms share the
// chunk. Hedged dispatch hands the same *wireChunk to two peers
// concurrently, so the lazy fields are mutex-guarded.
type wireChunk struct {
	frames []*imaging.Bitmap

	mu     sync.Mutex
	keys   [][32]byte // content keys, built on demand for the dedup probe
	phash  []uint64   // perceptual hashes, alongside keys
	hashed bool
}

// reset re-arms a pooled chunk for a new frame set, keeping the amortized
// buffer capacity.
func (c *wireChunk) reset(frames []*imaging.Bitmap) {
	c.frames = frames
	c.keys = c.keys[:0]
	c.phash = c.phash[:0]
	c.hashed = false
}

// contentKeys returns the chunk's content keys and perceptual hashes,
// computing them on first use (zero-alloc per frame once the chunk's slices
// are warm: sha256.Sum256 + the pooled 8×8 downscale).
func (c *wireChunk) contentKeys() ([][32]byte, []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hashed {
		for _, f := range c.frames {
			c.keys = append(c.keys, imaging.ContentKey(f))
			c.phash = append(c.phash, imaging.PerceptualHashPooled(f))
		}
		c.hashed = true
	}
	return c.keys, c.phash
}

// chunkPool pools *wireChunk across dispatches (RemoteBackend and Fleet
// each own one; replicas share their parent's).
type chunkPool struct{ p sync.Pool }

func (cp *chunkPool) get(frames []*imaging.Bitmap) *wireChunk {
	c, _ := cp.p.Get().(*wireChunk)
	if c == nil {
		c = &wireChunk{}
	}
	c.reset(frames)
	return c
}

func (cp *chunkPool) put(c *wireChunk) {
	c.frames = nil
	cp.p.Put(c)
}

// TransportStats is one peer link's byte and dedup accounting — the
// /healthz and /metrics surface for "what is this peer link costing".
type TransportStats struct {
	// Kind names the wire ("socket").
	Kind string `json:"kind"`
	// Chunks counts round trips attempted (per transport attempt, so a
	// retried chunk counts each attempt).
	Chunks int64 `json:"chunks"`
	// BytesOut/BytesIn count wire payload bytes, message framing included.
	BytesOut int64 `json:"bytes_out"`
	BytesIn  int64 `json:"bytes_in"`
	// FramesPixels counts frames whose pixels crossed the wire;
	// FramesDedup counts frames answered by the hash probe alone. Their
	// ratio is the dedup tier's hit rate.
	FramesPixels int64 `json:"frames_pixels"`
	FramesDedup  int64 `json:"frames_dedup"`
	// Dials counts socket (re)connections.
	Dials int64 `json:"dials"`
}

// transportCounters is the live atomic half of TransportStats.
type transportCounters struct {
	chunks       atomic.Int64
	bytesOut     atomic.Int64
	bytesIn      atomic.Int64
	framesPixels atomic.Int64
	framesDedup  atomic.Int64
	dials        atomic.Int64
}

func (t *transportCounters) snapshot(kind string) TransportStats {
	return TransportStats{
		Kind:         kind,
		Chunks:       t.chunks.Load(),
		BytesOut:     t.bytesOut.Load(),
		BytesIn:      t.bytesIn.Load(),
		FramesPixels: t.framesPixels.Load(),
		FramesDedup:  t.framesDedup.Load(),
		Dials:        t.dials.Load(),
	}
}
