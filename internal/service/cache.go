package service

import (
	"unsafe"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

// entry is one cached solve: the exact marshaled response bytes (cache hits
// must be byte-identical to the cold response), the resolved inputs that
// produced them, which GET /v1/trace/{hash} re-simulates (for a race, the
// winning entrant and its fault draw), and the approximate retained bytes.
type entry struct {
	body []byte
	in   resolved
	size int64
}

// entryOverhead approximates per-entry bookkeeping outside the payload:
// list node, map bucket share, entry struct, slice headers, fault spec.
const entryOverhead = 256

// sized computes and stores the entry's approximate retained bytes: body,
// hash, the instance's points and profiles (possibly shared with the params
// memo, so this over-counts), and bookkeeping.
func (e *entry) sized() *entry {
	size := int64(len(e.body)+len(e.in.hash)) + entryOverhead
	if inst := e.in.inst; inst != nil {
		size += instanceBytes(inst)
	}
	e.size = size
	return e
}

// instanceBytes approximates the bytes inst's points and profiles retain.
func instanceBytes(inst *instance.Instance) int64 {
	return int64(cap(inst.Points))*int64(unsafe.Sizeof(geom.Point{})) +
		int64(cap(inst.Profiles))*int64(unsafe.Sizeof(instance.Profile{}))
}

// lru is the move-to-front / evict-from-back core shared by the result
// cache and the two memos; sizeOf decides the unit the capacity bounds
// (retained bytes for the result cache and the params memo, entries for
// the shape memo). One element is always admitted even if it alone exceeds
// the capacity (the alternative — a cache that silently never stores —
// would disable idempotent replies entirely). Not safe for concurrent use;
// the Service serializes access under its mutex.
//
// The list is intrusive — nodes link each other directly — and evicted
// nodes park on a freelist for reuse, so a full cache in steady state
// (every add evicts) moves no garbage beyond the evicted values themselves.
// Hot-path lookups take the key as bytes (getBytes) so callers can probe
// with a stack-built key and only materialize a string on the miss path.
type lru[V any] struct {
	capacity   int64
	total      int64
	count      int
	sizeOf     func(V) int64
	m          map[string]*lruNode[V]
	head, tail *lruNode[V] // head = most recently used
	free       *lruNode[V] // evicted nodes, chained via next
	// evicted, when set, is told the size of every value the capacity bound
	// evicts (values replaced under their own key are not evictions).
	evicted func(size int64)
}

type lruNode[V any] struct {
	key        string
	val        V
	prev, next *lruNode[V]
}

func newCache[V any](capacity int64, sizeOf func(V) int64) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{capacity: capacity, sizeOf: sizeOf, m: make(map[string]*lruNode[V])}
}

// unlink removes n from the use-order list (it stays in the map).
func (c *lru[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// toFront makes n the most recently used node.
func (c *lru[V]) toFront(n *lruNode[V]) {
	if c.head == n {
		return
	}
	if n.prev != nil || n.next != nil || c.tail == n {
		c.unlink(n)
	}
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lru[V]) get(key string) (V, bool) {
	n, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.toFront(n)
	return n.val, true
}

// getBytes is get with the key passed as bytes: the map lookup compiles to
// the no-copy string-key form, so probing with a scratch-built key does not
// allocate. The key string is only needed when the caller goes on to add.
func (c *lru[V]) getBytes(key []byte) (V, bool) {
	n, ok := c.m[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	c.toFront(n)
	return n.val, true
}

func (c *lru[V]) add(key string, val V) {
	if n, ok := c.m[key]; ok {
		c.total += c.sizeOf(val) - c.sizeOf(n.val)
		n.val = val
		c.toFront(n)
	} else {
		n := c.free
		if n != nil {
			c.free = n.next
			n.next = nil
		} else {
			n = &lruNode[V]{}
		}
		n.key, n.val = key, val
		c.m[key] = n
		c.toFront(n)
		c.total += c.sizeOf(val)
		c.count++
	}
	for c.total > c.capacity && c.count > 1 {
		oldest := c.tail
		c.unlink(oldest)
		delete(c.m, oldest.key)
		size := c.sizeOf(oldest.val)
		c.total -= size
		c.count--
		if c.evicted != nil {
			c.evicted(size)
		}
		var zero V
		oldest.key, oldest.val = "", zero // release for GC before parking
		oldest.next = c.free
		c.free = oldest
	}
}

func (c *lru[V]) len() int { return c.count }

// newLRU builds the result cache: an LRU over request hashes bounded by
// approximate retained bytes, not entry count — a handful of huge inline
// instances and thousands of small family requests are both held to one
// memory budget. evicted is told the size of each entry the bound evicts.
func newLRU(capBytes int64, evicted func(size int64)) *lru[*entry] {
	c := newCache(capBytes, func(e *entry) int64 { return e.size })
	c.evicted = evicted
	return c
}

// memoEntries bounds the request-shape → hash memo in entries, and so
// sets the params memo's per-entry floor.
const memoEntries = 4096

// newMemoLRU builds the request-shape → hash memo: family-generated
// requests are keyed by their scalar parameters, so a repeat of a known
// shape finds its content hash — and therefore its cached result — without
// re-generating the instance and re-hashing its points (the old hit path
// was O(n) in instance size). Entry-count bounded (memoEntries): entries
// are two short strings.
func newMemoLRU() *lru[string] {
	return newCache(memoEntries, func(string) int64 { return 1 })
}

// paramsMemo is one family shape's memoized derivation: the admissible
// tuple and the generated instance itself. The instance is immutable once
// built (request-level profiles are applied copy-on-write downstream), so
// sharing one *Instance across every job of the same shape is safe and
// turns the steady-state resolve into two map lookups.
type paramsMemo struct {
	tup  dftp.Tuple
	inst *instance.Instance
}

// newParamsLRU builds the family-shape → derivation memo: generating the
// point set and deriving (ℓ*, ρ*) are the expensive half of a family
// request's cold path and depend only on (metric, family, n, param, seed),
// so repeats of the same family shape — under any algorithm, objective, or
// budget — skip both. Each entry pins its generated instance, up to
// instance.MaxFamilyN points, so the memo is bounded by capBytes like the
// result cache: an entry costs its instance's points and profiles, and at
// least capBytes/memoEntries, which caps small shapes at memoEntries
// entries.
func newParamsLRU(capBytes int64) *lru[paramsMemo] {
	floor := capBytes / memoEntries
	return newCache(capBytes, func(pm paramsMemo) int64 { return max(instanceBytes(pm.inst), floor) })
}
