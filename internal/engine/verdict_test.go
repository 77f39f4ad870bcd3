package engine

import (
	"encoding/binary"
	"testing"
)

// TestVerdictMap is the table test of the one bounded verdict map, at
// positive, zero and negative capacities. After every insert, through
// several wrap-arounds of the eviction ring, exactly the newest capacity
// keys must be live with their own scores, and Range must list them oldest
// first. An update in place must neither evict nor reorder. A non-positive
// capacity must stay empty without panicking. Reset must empty the map and
// restart the ring.
func TestVerdictMap(t *testing.T) {
	key := func(i int) [32]byte {
		var k [32]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		return k
	}
	for _, capacity := range []int{1, 3, 4, 0, -1, -4096} {
		m := NewVerdictMap(capacity)
		bound := max(capacity, 0)
		// check asserts that exactly keys [lo, hi) are live, oldest first
		check := func(step string, lo, hi int, score func(int) float64) {
			t.Helper()
			if m.Len() != hi-lo {
				t.Fatalf("capacity %d, %s: len %d, want %d", capacity, step, m.Len(), hi-lo)
			}
			for j := 0; j < hi; j++ {
				v, ok := m.LookupVerdict(key(j))
				if ok != (j >= lo) || (ok && v != score(j)) {
					t.Fatalf("capacity %d, %s: key %d = (%v, %v), live range [%d, %d)", capacity, step, j, v, ok, lo, hi)
				}
			}
			var got []int
			m.Range(func(k [32]byte, v float64) {
				got = append(got, int(binary.LittleEndian.Uint64(k[:])))
			})
			for j, k := range got {
				if k != lo+j {
					t.Fatalf("capacity %d, %s: Range order %v, want %d..%d", capacity, step, got, lo, hi-1)
				}
			}
			if len(got) != hi-lo {
				t.Fatalf("capacity %d, %s: Range visited %d entries, want %d", capacity, step, len(got), hi-lo)
			}
		}
		ident := func(j int) float64 { return float64(j) }

		n := 3*max(bound, 1) + 1
		for i := 0; i < n; i++ {
			m.StoreVerdict(key(i), float64(i))
			check("insert", max(0, i+1-bound), i+1, ident)
		}
		if bound > 0 {
			// update the oldest key in place: no eviction, no reorder
			m.StoreVerdict(key(n-bound), -1)
			check("update", n-bound, n, func(j int) float64 {
				if j == n-bound {
					return -1
				}
				return float64(j)
			})
		}

		m.Reset()
		check("reset", 0, 0, ident)
		for i := 0; i <= bound; i++ {
			m.StoreVerdict(key(i), float64(i))
		}
		check("refill", 1, bound+1, ident)
	}
}
