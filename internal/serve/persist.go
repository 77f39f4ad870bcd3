package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Verdict-cache persistence: a daemon restart used to start the cache cold,
// paying one model run per creative all over again. SnapshotCache writes a
// compact binary image of every memoized verdict; RestoreCache reads one
// back, re-routing each entry through the live shard map (so a snapshot
// taken with one shard/cache geometry restores correctly into another).
//
// Format (little-endian):
//
//	magic   "PCVC"           4 bytes
//	version uint16           currently 1
//	count   uint32
//	entry   key [32]byte + score float64-bits, count times
const (
	cacheMagic   = "PCVC"
	cacheVersion = 1
	cacheEntryLn = 32 + 8
)

// SnapshotCache writes every memoized verdict to w and reports how many
// entries it wrote. Safe while the server runs: each cache shard is locked
// only while its entries are copied out. In-flight (pending) requests are
// not part of the snapshot.
func (s *Server) SnapshotCache(w io.Writer) (int, error) {
	// size the header without holding every lock at once: copy entries
	// shard by shard, then emit
	type entry struct {
		k [32]byte
		v float64
	}
	var entries []entry
	s.eachCacheShard(func(ch *cacheShard) {
		ch.verdicts.Range(func(k [32]byte, v float64) {
			entries = append(entries, entry{k, v})
		})
	})
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(cacheMagic); err != nil {
		return 0, err
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:], cacheVersion)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(len(entries)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	var buf [cacheEntryLn]byte
	for _, e := range entries {
		copy(buf[:32], e.k[:])
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(e.v))
		if _, err := bw.Write(buf[:]); err != nil {
			return 0, err
		}
	}
	return len(entries), bw.Flush()
}

// RestoreCache loads a snapshot produced by SnapshotCache, inserting each
// verdict through the live shard routing, and reports how many entries it
// restored. Entries beyond the configured cache capacity evict FIFO like
// any other insert; restoring into a DisableCache server validates the
// header but restores nothing (reported count 0 — memoization is off, so
// claiming N restored verdicts would misreport the serving state).
func (s *Server) RestoreCache(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("serve: cache snapshot header: %w", err)
	}
	if string(hdr[:4]) != cacheMagic {
		return 0, fmt.Errorf("serve: not a cache snapshot (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != cacheVersion {
		return 0, fmt.Errorf("serve: cache snapshot version %d, want %d", v, cacheVersion)
	}
	if s.opts.DisableCache {
		return 0, nil
	}
	count := binary.LittleEndian.Uint32(hdr[6:10])
	var buf [cacheEntryLn]byte
	restored := 0
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return restored, fmt.Errorf("serve: cache snapshot entry %d: %w", i, err)
		}
		s.StoreVerdict([32]byte(buf[:32]), math.Float64frombits(binary.LittleEndian.Uint64(buf[32:])))
		restored++
	}
	return restored, nil
}
