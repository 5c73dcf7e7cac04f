package lru

import (
	"sync/atomic"
	"testing"
)

func TestLRUByteBudget(t *testing.T) {
	var ev atomic.Int64
	l := New(1024, 1, &ev)
	for i := 0; i < 16; i++ {
		l.Put(string(rune('a'+i)), i, 128)
	}
	if l.Bytes() > 1024 {
		t.Errorf("bytes = %d exceeds budget", l.Bytes())
	}
	if ev.Load() == 0 {
		t.Error("no evictions recorded under pressure")
	}
	if _, ok := l.Get("a"); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	// Most recent entry must be resident.
	if _, ok := l.Get(string(rune('a' + 15))); !ok {
		t.Error("most recent entry evicted")
	}
	// Oversized entries are rejected, not admitted.
	before := l.Bytes()
	l.Put("huge", 1, 4096)
	if _, ok := l.Get("huge"); ok || l.Bytes() != before {
		t.Error("oversized entry admitted")
	}
	// Remove hands the value over.
	v, ok := l.Remove(string(rune('a' + 15)))
	if !ok || v.(int) != 15 {
		t.Errorf("Remove = %v, %v", v, ok)
	}
	if _, ok := l.Get(string(rune('a' + 15))); ok {
		t.Error("removed entry still resident")
	}
}
