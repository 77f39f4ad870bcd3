package main

import (
	"bytes"
	"encoding/hex"
	"net/http"
	"net/url"
	"testing"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// bombPNG is a 65-byte PNG whose IHDR declares a 30000×30000 RGBA image
// (built and explained in internal/imaging's bounds_test.go): decoding it
// without a size check allocates ~3.4 GB.
var bombPNG, _ = hex.DecodeString("89504e470d0a1a0a0000000d49484452000075300000753008060000006627f8ba" +
	"0000000849444154789c030000000001480689d20000000049454e44ae426082")

// FuzzDecodeFrame drives /classify's body decoder — the daemon's
// untrusted-input surface — with arbitrary bytes, as raw RGBA (?w=&h=) and
// as a sniffed PNG/JPEG/GIF. The contract: never panic, never allocate past
// the frame bound, and every frame it accepts is one the shard worker can
// resize (the crash a wrapping w*h*4 used to cause).
func FuzzDecodeFrame(f *testing.F) {
	// the one-request crash and the decode bomb
	f.Add("4611686018427387904", "1", true, []byte{})
	f.Add("", "", false, bombPNG)
	frame := synth.SampleFrames(3, 1)[0]
	f.Add("8", "8", true, make([]byte, 8*8*4))
	for _, format := range []imaging.Format{imaging.PNG, imaging.JPEG, imaging.GIF} {
		enc, err := imaging.Encode(frame, format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("", "", false, enc)
	}
	dst := imaging.NewBitmap(16, 16)
	f.Fuzz(func(t *testing.T, w, h string, raw bool, body []byte) {
		r := &http.Request{
			URL:    &url.URL{RawQuery: url.Values{"w": {w}, "h": {h}}.Encode()},
			Header: http.Header{},
		}
		if raw {
			r.Header.Set("Content-Type", "application/octet-stream")
		}
		b, err := decodeFrame(r, body)
		if err != nil {
			return
		}
		if err := imaging.CheckFrameSize(b.W, b.H); err != nil || len(b.Pix) != b.W*b.H*4 {
			t.Fatalf("accepted a %dx%d frame with %d pixel bytes: %v", b.W, b.H, len(b.Pix), err)
		}
		if raw && !bytes.Equal(b.Pix, body) {
			t.Fatal("raw frame pixels differ from the body")
		}
		imaging.ResizeBilinearInto(b, dst)
	})
}
