package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"percival/internal/core"
)

// FuzzRestoreCache drives the verdict-cache snapshot decoder with arbitrary
// bytes: -cache-file is read at startup, so a corrupt or hostile snapshot
// must never panic or allocate past the cache's own bound. Whatever does
// restore must snapshot again into a stream that restores cleanly.
func FuzzRestoreCache(f *testing.F) {
	// the one-request crash's empty body, and the 65-byte decode-bomb PNG
	// (see internal/imaging's bounds_test.go)
	bomb, _ := hex.DecodeString("89504e470d0a1a0a0000000d49484452000075300000753008060000006627f8ba" +
		"0000000849444154789c030000000001480689d20000000049454e44ae426082")
	f.Add([]byte{})
	f.Add(bomb)
	var good bytes.Buffer
	good.WriteString(cacheMagic)
	binary.Write(&good, binary.LittleEndian, uint16(cacheVersion))
	binary.Write(&good, binary.LittleEndian, uint32(2))
	good.Write(make([]byte, 2*cacheEntryLn))
	f.Add(good.Bytes())
	huge := append([]byte{}, good.Bytes()[:10]...)
	binary.LittleEndian.PutUint32(huge[6:], 0xffffffff)
	f.Add(huge)

	const capacity = 64
	srv := testServer(f, core.Options{}, Options{Workers: 1, CacheSize: capacity})
	f.Fuzz(func(t *testing.T, data []byte) {
		srv.ResetCache()
		n, err := srv.RestoreCache(bytes.NewReader(data))
		if n < 0 || n > len(data)/cacheEntryLn {
			t.Fatalf("restored %d entries from %d bytes", n, len(data))
		}
		if err != nil {
			return
		}
		if got := srv.CacheLen(); got > capacity || got > n {
			t.Fatalf("cache holds %d entries after restoring %d (capacity %d)", got, n, capacity)
		}
		var snap bytes.Buffer
		m, err := srv.SnapshotCache(&snap)
		if err != nil {
			t.Fatal(err)
		}
		srv.ResetCache()
		if back, err := srv.RestoreCache(&snap); err != nil || back != m {
			t.Fatalf("re-snapshot of %d entries restored (%d, %v)", m, back, err)
		}
	})
}
