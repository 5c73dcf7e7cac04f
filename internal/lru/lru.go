// Package lru is the byte-budgeted, sharded LRU the serving cache, the
// personalization tier and the explain kernel's per-generation topology
// memo keep their entries in.
package lru

import (
	"sync"
	"sync/atomic"
)

// lruEntry is one resident cache entry on a shard's intrusive LRU list.
type lruEntry struct {
	key        string
	value      any
	size       int64
	prev, next *lruEntry
}

// lruShard is one lock striped slice of a sharded LRU: a map for O(1)
// lookup plus an intrusive doubly linked list in recency order.
// head.next is the most recently used entry, tail.prev the eviction
// candidate. The zero value is not usable; shards are built by New.
type lruShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	items    map[string]*lruEntry
	head     lruEntry // sentinel
	tail     lruEntry // sentinel
}

func (s *lruShard) init(maxBytes int64) {
	s.maxBytes = maxBytes
	s.items = make(map[string]*lruEntry)
	s.head.next = &s.tail
	s.tail.prev = &s.head
}

func (s *lruShard) unlink(e *lruEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *lruShard) pushFront(e *lruEntry) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}

// Sharded is a byte-budgeted, sharded LRU cache. The total budget is
// split evenly across shards; keys are distributed by FNV-1a hash, so
// concurrent operations on different keys contend only 1/shards of the
// time. Values are immutable once inserted (the cache hands out the
// stored value itself, never a copy), which is what makes lock-free
// readers outside the shard mutex safe: eviction merely drops the
// cache's reference, it never mutates or recycles the value.
type Sharded struct {
	shards    []lruShard
	mask      uint64
	entries   atomic.Int64
	bytesUsed atomic.Int64
	evictions *atomic.Int64 // stats sink, shared with the owner
}

// New builds an LRU with the given total byte budget split
// over `shards` shards (rounded up to a power of two, min 1).
// evictions, when non-nil, is incremented once per evicted or rejected
// entry.
func New(totalBytes int64, shards int, evictions *atomic.Int64) *Sharded {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := totalBytes / int64(n)
	if per < 1 {
		per = 1
	}
	l := &Sharded{shards: make([]lruShard, n), mask: uint64(n - 1), evictions: evictions}
	for i := range l.shards {
		l.shards[i].init(per)
	}
	return l
}

func fnv1a(key string) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (l *Sharded) shard(key string) *lruShard {
	return &l.shards[fnv1a(key)&l.mask]
}

// Get returns the value stored under key and marks it most recently
// used.
func (l *Sharded) Get(key string) (any, bool) {
	s := l.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	v := e.value
	s.mu.Unlock()
	return v, true
}

// Put inserts (or replaces) key with the given value and accounted
// size, evicting least-recently-used entries until the shard fits its
// budget. An entry larger than a whole shard's budget is rejected
// (counted as an eviction) rather than wiping the shard.
func (l *Sharded) Put(key string, value any, size int64) {
	s := l.shard(key)
	if size > s.maxBytes {
		if l.evictions != nil {
			l.evictions.Add(1)
		}
		return
	}
	s.mu.Lock()
	if old, ok := s.items[key]; ok {
		s.bytes -= old.size
		l.bytesUsed.Add(-old.size)
		l.entries.Add(-1)
		s.unlink(old)
		delete(s.items, key)
	}
	for s.bytes+size > s.maxBytes {
		victim := s.tail.prev
		if victim == &s.head {
			break
		}
		s.unlink(victim)
		delete(s.items, victim.key)
		s.bytes -= victim.size
		l.bytesUsed.Add(-victim.size)
		l.entries.Add(-1)
		if l.evictions != nil {
			l.evictions.Add(1)
		}
	}
	e := &lruEntry{key: key, value: value, size: size}
	s.items[key] = e
	s.pushFront(e)
	s.bytes += size
	l.bytesUsed.Add(size)
	l.entries.Add(1)
	s.mu.Unlock()
}

// Remove deletes key and returns the value it held, if any, handing
// the value over to the caller (the profile tier drops a deleted
// profile's record this way).
func (l *Sharded) Remove(key string) (any, bool) {
	s := l.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.unlink(e)
	delete(s.items, key)
	s.bytes -= e.size
	l.bytesUsed.Add(-e.size)
	l.entries.Add(-1)
	v := e.value
	s.mu.Unlock()
	return v, true
}

// Clear drops every entry, as eviction would, without counting
// evictions.
func (l *Sharded) Clear() {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		l.bytesUsed.Add(-s.bytes)
		l.entries.Add(-int64(len(s.items)))
		s.bytes, s.items = 0, make(map[string]*lruEntry)
		s.head.next, s.tail.prev = &s.tail, &s.head
		s.mu.Unlock()
	}
}

// Bytes returns the total accounted bytes currently resident.
func (l *Sharded) Bytes() int64 { return l.bytesUsed.Load() }

// Len returns the number of resident entries.
func (l *Sharded) Len() int { return int(l.entries.Load()) }

// Budget returns the total byte budget (sum over shards).
func (l *Sharded) Budget() int64 {
	return int64(len(l.shards)) * l.shards[0].maxBytes
}
