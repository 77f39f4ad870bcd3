package serve

import (
	"encoding/binary"
	"sync"

	"percival/internal/engine"
)

// cacheShards is the lock-domain count of each dispatch shard's verdict
// cache.
const cacheShards = 16

// cacheShard is one lock domain of the sharded verdict cache: a slice of
// the bounded verdict map plus the in-flight leader table used for request
// coalescing — a follower submitting a frame that is already being
// classified attaches to the leader instead of queueing a duplicate model
// run. Keys are imaging.ContentKey, shared with the remote-dispatch wire, so
// a peer answers a wire hash probe straight from this cache.
//
// mu makes the verdict check and the pending check in begin, and the store
// and the pending delete in resolve, one atomic step. The map's own lock is
// only ever taken under mu, so it is never contended.
type cacheShard struct {
	mu       sync.Mutex
	verdicts *engine.VerdictMap
	pending  map[[32]byte]*request

	// The shards live by value in one contiguous array, so without padding
	// two neighbours share a cache line: every mu lock/unlock on one shard
	// would invalidate the neighbour's line on another core — false sharing
	// the 8-core sweep surfaced. The pad keeps each header on its own line
	// group.
	_ [64]byte
}

// shardedCache spreads verdict lookups over independently locked shards,
// so many goroutines submitting concurrently do not serialize on one lock.
type shardedCache [cacheShards]cacheShard

// newShardedCache splits a capacity of total verdicts (≤ 0: memoization
// disabled, the pending tables still active) over the lock domains.
func newShardedCache(total int) *shardedCache {
	per := 0
	if total > 0 {
		per = (total + cacheShards - 1) / cacheShards
	}
	c := &shardedCache{}
	for i := range c {
		c[i].verdicts = engine.NewVerdictMap(per)
		c[i].pending = map[[32]byte]*request{}
	}
	return c
}

func (c *shardedCache) shard(k [32]byte) *cacheShard {
	// the key is a cryptographic hash: any 4 bytes are uniformly distributed
	return &c[binary.LittleEndian.Uint32(k[8:12])%cacheShards]
}

// eachCacheShard runs fn on every cache lock domain of every dispatch
// shard, one at a time under its lock.
func (s *Server) eachCacheShard(fn func(ch *cacheShard)) {
	for _, sh := range s.shards {
		for i := range sh.cache {
			ch := &sh.cache[i]
			ch.mu.Lock()
			fn(ch)
			ch.mu.Unlock()
		}
	}
}
