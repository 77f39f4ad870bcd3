package imaging

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// bombPNG builds a 65-byte PNG whose IHDR declares a 30000×30000 RGBA
// image: decoding it blindly allocates ~3.4 GB before the empty IDAT fails.
func bombPNG(t testing.TB) []byte {
	t.Helper()
	chunk := func(buf *bytes.Buffer, typ string, data []byte) {
		binary.Write(buf, binary.BigEndian, uint32(len(data)))
		buf.WriteString(typ)
		buf.Write(data)
		binary.Write(buf, binary.BigEndian, crc32.ChecksumIEEE(append([]byte(typ), data...)))
	}
	var ihdr bytes.Buffer
	binary.Write(&ihdr, binary.BigEndian, [2]uint32{30000, 30000})
	ihdr.Write([]byte{8, 6, 0, 0, 0})                              // 8-bit RGBA, no interlace
	idat := []byte{0x78, 0x9c, 0x03, 0x00, 0x00, 0x00, 0x00, 0x01} // zlib of no bytes
	var png bytes.Buffer
	png.WriteString("\x89PNG\r\n\x1a\n")
	chunk(&png, "IHDR", ihdr.Bytes())
	chunk(&png, "IDAT", idat)
	chunk(&png, "IEND", nil)
	if png.Len() != 65 {
		t.Fatalf("bomb PNG is %d bytes, want 65", png.Len())
	}
	return png.Bytes()
}

// TestDecodeRejectsDecompressionBomb: a header declaring a frame past
// CheckFrameSize must fail before the pixel buffer is allocated. The cap is
// 1 MB of heap for the whole call; the unchecked decode allocated ~3.4 GB.
func TestDecodeRejectsDecompressionBomb(t *testing.T) {
	data := bombPNG(t)
	const capBytes = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("30000x30000 PNG header decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > capBytes {
		t.Fatalf("rejecting the bomb allocated %d bytes, want <= %d", got, capBytes)
	}
}

// TestCheckFrameSize: the untrusted-frame bound accepts frames up to each
// limit and rejects everything past one, including products that wrap int.
func TestCheckFrameSize(t *testing.T) {
	for _, ok := range [][2]int{{1, 1}, {224, 224}, {MaxFrameEdge, 64}, {2048, 4096}} {
		if err := CheckFrameSize(ok[0], ok[1]); err != nil {
			t.Errorf("%dx%d rejected: %v", ok[0], ok[1], err)
		}
	}
	for _, bad := range [][2]int{
		{0, 1}, {1, 0}, {-4, -4},
		{MaxFrameEdge + 1, 1},
		{4096, 4096}, // 64 MB
		{MaxFrameEdge, MaxFrameEdge},
		{1 << 62, 1}, // w*h*4 wraps to 0 in int
	} {
		if err := CheckFrameSize(bad[0], bad[1]); err == nil {
			t.Errorf("%dx%d accepted", bad[0], bad[1])
		}
	}
}

// TestNewBitmapRejectsOverflow: a size whose byte count wraps int must
// panic instead of returning a bitmap with a short Pix.
func TestNewBitmapRejectsOverflow(t *testing.T) {
	for _, size := range [][2]int{{1 << 62, 1}, {math.MaxInt, 2}, {1 << 31, 1 << 31}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBitmap(%d, %d) did not panic", size[0], size[1])
				}
			}()
			NewBitmap(size[0], size[1])
		}()
	}
}
