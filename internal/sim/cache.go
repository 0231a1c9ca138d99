package sim

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bright/internal/core"
)

// lruCache is a size-bounded least-recently-used memoization of solved
// reports, keyed by core.Config.CanonicalKey(). Reports are stored by
// pointer and treated as immutable once published; callers must not
// mutate a cached *core.Report.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	refreshes atomic.Uint64
	restored  atomic.Uint64
}

type cacheEntry struct {
	key string
	rep *core.Report
}

// newLRUCache returns a cache holding at most capacity reports; a
// capacity <= 0 disables caching (every Get misses, Add is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// enabled reports whether the cache stores anything at all.
func (c *lruCache) enabled() bool { return c.cap > 0 }

// Get returns the cached report for key and marks it most recently used.
// A disabled cache reports a plain miss without touching the counters:
// counting every lookup as a miss against a cache that does not exist
// made /v1/stats show a growing miss count and a meaningless 0% hit
// rate (the stats layer reports "disabled" instead).
func (c *lruCache) Get(key string) (*core.Report, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).rep, true
}

// peek is Get without the hit/miss counters or the recency update. A
// new flight leader uses it to re-check the cache: a flight for the key
// that completed between the caller's Get and its join has already
// published its report, and must not be solved again.
func (c *lruCache) peek(key string) (*core.Report, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).rep, true
}

// Add inserts (or refreshes) a solved report, evicting the least
// recently used entry when the cache is full. The refresh path counts
// the overwrite (the old report is dropped, which is an event worth
// seeing in /v1/stats) and still runs the eviction loop: a restore that
// shrank the effective population, or any future cap change, must not
// leave the cache over capacity until an unrelated insert happens by.
func (c *lruCache) Add(key string, rep *core.Report) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, rep)
}

// addLocked is Add's body, shared with RestoreSnapshot (which holds the
// lock across many inserts so a snapshot lands atomically).
func (c *lruCache) addLocked(key string, rep *core.Report) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).rep = rep
		c.order.MoveToFront(el)
		c.refreshes.Add(1)
		c.evictOverCapLocked()
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, rep: rep})
	c.evictOverCapLocked()
}

// evictOverCapLocked drops least-recently-used entries until the cache
// is back within capacity, counting every eviction.
func (c *lruCache) evictOverCapLocked() {
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the current number of cached reports.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the lifetime hit/miss/eviction counts.
func (c *lruCache) Counters() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// RefreshCounters returns the lifetime overwrite and snapshot-restore
// counts.
func (c *lruCache) RefreshCounters() (refreshes, restored uint64) {
	return c.refreshes.Load(), c.restored.Load()
}

// CacheSnapshotVersion is the wire version of CacheSnapshot. Bump it
// whenever the JSON shape (or the key quantization it depends on)
// changes incompatibly; RestoreSnapshot rejects versions it does not
// understand instead of silently misreading them.
const CacheSnapshotVersion = 1

// CacheSnapshot is a portable dump of the report LRU, oldest entry
// first so replaying it through Add reproduces the recency order. It is
// the payload of brightd's GET/PUT /v1/cache/snapshot: a restarting
// shard rejoins the cluster warm by uploading the snapshot its
// coordinator saved before the crash.
type CacheSnapshot struct {
	Version  int                  `json:"version"`
	Capacity int                  `json:"capacity"`
	Entries  []CacheSnapshotEntry `json:"entries"`
}

// CacheSnapshotEntry is one cached report keyed by its canonical key.
type CacheSnapshotEntry struct {
	Key    string       `json:"key"`
	Report *core.Report `json:"report"`
}

// Snapshot captures the cache contents, oldest first.
func (c *lruCache) Snapshot() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheSnapshot{
		Version:  CacheSnapshotVersion,
		Capacity: c.cap,
		Entries:  make([]CacheSnapshotEntry, 0, c.order.Len()),
	}
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		s.Entries = append(s.Entries, CacheSnapshotEntry{Key: e.key, Report: e.rep})
	}
	return s
}

// RestoreSnapshot merges a snapshot into the cache under one lock hold.
// Entries whose key does not match their report's own canonical key are
// skipped (a snapshot from a build with different quantization must not
// plant entries the local keying can never hit), as are entries with no
// report. The local capacity is authoritative: a snapshot larger than
// this cache restores only its most recent entries, and the eviction
// loop keeps Len <= cap throughout. Returns the number of entries
// restored and the number skipped.
func (c *lruCache) RestoreSnapshot(s CacheSnapshot) (restored, skipped int, err error) {
	if s.Version != CacheSnapshotVersion {
		return 0, 0, fmt.Errorf("sim: cache snapshot version %d, this build speaks %d", s.Version, CacheSnapshotVersion)
	}
	if !c.enabled() {
		return 0, len(s.Entries), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range s.Entries {
		if e.Report == nil || e.Report.Config.CanonicalKey() != e.Key {
			skipped++
			continue
		}
		c.addLocked(e.Key, e.Report)
		restored++
	}
	c.restored.Add(uint64(restored))
	return restored, skipped, nil
}

// flightGroup deduplicates concurrent solves of the same key: the first
// caller for a key becomes the leader and runs the solve; later callers
// ("followers") wait on the leader's completion instead of solving
// again. Unlike golang.org/x/sync/singleflight (not vendored here —
// stdlib only), completion is exposed as a channel so followers can
// abandon the wait when their own context dies while the leader keeps
// solving.
type flightGroup struct {
	mu     sync.Mutex
	flight map[string]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when the leader publishes rep/err
	rep  *core.Report
	err  error
	// leaderCanceled marks completions that are a verdict on the LEADER
	// (its context died) rather than on the key (solver failure). A
	// follower whose own context is live must not inherit such an error:
	// it re-runs the lookup and elects a new leader. The classification
	// lives here, in one place, so every wait path applies the same rule
	// — before this, each select carried its own errors.Is pair, and a
	// wait path that forgot the check poisoned N live followers with one
	// canceled leader's ctx error.
	leaderCanceled bool
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flight: make(map[string]*flightCall)}
}

// join returns the in-flight call for key and whether this caller is the
// leader (created the call). Leaders must eventually call complete or
// abandon the call with forget.
func (g *flightGroup) join(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.flight[key]; ok {
		return call, false
	}
	call := &flightCall{done: make(chan struct{})}
	g.flight[key] = call
	return call, true
}

// complete publishes the leader's result to all followers and removes
// the call so the next request for the key starts fresh. Completions
// carrying the leader's own cancellation are marked leaderCanceled so
// followers re-elect instead of inheriting the error.
func (g *flightGroup) complete(key string, call *flightCall, rep *core.Report, err error) {
	g.mu.Lock()
	delete(g.flight, key)
	g.mu.Unlock()
	call.rep, call.err = rep, err
	call.leaderCanceled = err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	close(call.done)
}

// forget removes the call without completing it — used when the leader
// fails to enqueue (queue full) so followers aren't stranded. Followers
// already waiting observe the closed channel with the sentinel error.
func (g *flightGroup) forget(key string, call *flightCall, err error) {
	g.complete(key, call, nil, err)
}
