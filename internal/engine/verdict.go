package engine

import "sync"

// VerdictCache answers wire hash probes and absorbs wire-scored verdicts.
// serve.Server implements it over its sharded serving cache; a bare
// VerdictMap serves peers without a serving edge.
type VerdictCache interface {
	// LookupVerdict reports a memoized score by imaging.ContentKey.
	LookupVerdict(key [32]byte) (float64, bool)
	// StoreVerdict memoizes a freshly-scored verdict.
	StoreVerdict(key [32]byte, score float64)
}

// VerdictMap is the one bounded verdict memo: model scores keyed by
// imaging.ContentKey, evicted oldest-first (true LRU order is unnecessary:
// creatives repeat within short windows). core memoizes its in-path
// verdicts in one, each serve cache lock domain holds one, and a bare wire
// peer answers probes from one. A capacity of 0 or less disables
// memoization: lookups miss and stores are dropped. Safe for concurrent
// use.
type VerdictMap struct {
	mu    sync.Mutex
	max   int
	m     map[[32]byte]float64
	order [][32]byte // insertion ring: once full, order[next%max] is the oldest
	next  int
}

// NewVerdictMap builds a map bounded to capacity entries (≤ 0: disabled).
func NewVerdictMap(capacity int) *VerdictMap {
	capacity = max(capacity, 0)
	return &VerdictMap{max: capacity, m: make(map[[32]byte]float64, capacity)}
}

// LookupVerdict implements VerdictCache.
func (v *VerdictMap) LookupVerdict(key [32]byte) (float64, bool) {
	v.mu.Lock()
	s, ok := v.m[key]
	v.mu.Unlock()
	return s, ok
}

// StoreVerdict implements VerdictCache: an existing key is updated in
// place; a new key evicts the oldest entry once the map is full.
func (v *VerdictMap) StoreVerdict(key [32]byte, score float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, exists := v.m[key]; exists {
		v.m[key] = score
		return
	}
	if v.max == 0 {
		return
	}
	if len(v.order) < v.max {
		v.order = append(v.order, key)
	} else {
		slot := v.next % v.max
		delete(v.m, v.order[slot])
		v.order[slot] = key
		v.next++
	}
	v.m[key] = score
}

// Range calls fn on every memoized verdict, oldest first, holding the
// map's lock: fn must not call back into the map.
func (v *VerdictMap) Range(fn func(key [32]byte, score float64)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.order {
		k := v.order[(v.next+i)%len(v.order)]
		fn(k, v.m[k])
	}
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
