// Package arena provides per-worker scratch reuse for the serving tier: a
// worker slot owns one Arena for its whole lifetime, and the arena keeps the
// worker's pooled simulation engine, which each job resets against its
// instance instead of rebuilding, so repeated request shapes converge to
// (near-)zero allocations per simulation. Request resolution, hashing and
// marshaling allocate from the heap as usual.
//
// Two mechanisms compose:
//
//   - Slab[T]: a grow-only bump allocator for run-lifetime slices. Take(n)
//     hands out a zero-length, capacity-n sub-slice of a retained chunk;
//     Reset rewinds the whole slab without freeing. Nothing is ever freed
//     individually — the intended lifetime of every Take is "until the owner
//     resets", which is what makes the bump pointer sound. The pooled
//     engine's scratch (the wake-up tree builder, for one) is built on it.
//
//   - the stash: a string-keyed registry of reusable structures, today the
//     simulation engine. Maps and long-lived object graphs cannot be
//     bump-allocated, so they are reused in place instead: fetched by key
//     with Of and reset by their owner on checkout.
//
// An Arena is confined to one goroutine at a time (the worker that owns it);
// it performs no locking. The race test in arena_test.go pins the contract
// that two workers' arenas never alias each other's memory.
package arena

// Slab is a typed grow-only bump allocator. The zero value is ready to use.
//
// Take returns slices carved from an internal chunk; when the chunk is
// exhausted a larger one is allocated and the old chunk is left behind
// (still referenced by previously returned slices, so they stay valid).
// Reset keeps only the newest — largest — chunk and rewinds it, so a steady
// workload settles into zero allocations after the first few runs.
type Slab[T any] struct {
	cur []T // len(cur) = bump offset into the newest chunk
}

// slabMinChunk is the smallest chunk a slab allocates; tiny first Takes
// shouldn't cause a cascade of doublings.
const slabMinChunk = 64

// Take returns a zero-length slice with capacity at least n, carved from the
// slab. The caller appends up to n elements; the capacity is clipped to
// exactly n so an overflowing append falls off the slab instead of
// corrupting a neighbor's region.
func (s *Slab[T]) Take(n int) []T {
	if n < 0 {
		panic("arena: Take of negative size")
	}
	if cap(s.cur)-len(s.cur) < n {
		c := 2 * cap(s.cur)
		if c < n {
			c = n
		}
		if c < slabMinChunk {
			c = slabMinChunk
		}
		s.cur = make([]T, 0, c)
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	return s.cur[off : off : off+n]
}

// Reset rewinds the slab: every slice handed out since the previous Reset is
// invalidated (its memory will be reused by future Takes). The newest chunk
// is retained, so the slab's capacity is monotone.
func (s *Slab[T]) Reset() { s.cur = s.cur[:0] }

// Arena is one worker slot's reusable scratch: a stash of keyed
// structures. It is not safe for concurrent use — each worker owns exactly
// one.
type Arena struct {
	stash map[string]any
}

// New builds an empty arena. The owner tag names the worker slot that owns
// it, for the reader of the call site; the arena does not keep it.
func New(owner string) *Arena {
	return &Arena{stash: make(map[string]any)}
}

// closer matches stashed values owning resources beyond memory (an engine's
// pooled process goroutines); Close releases them.
type closer interface{ Close() }

// Close releases every stashed value that implements Close and empties the
// stash. The arena remains usable, but starts cold.
func (a *Arena) Close() {
	for k, v := range a.stash {
		if c, ok := v.(closer); ok {
			c.Close()
		}
		delete(a.stash, k)
	}
}

// Of returns the stashed value under key, building it with mk on first use.
// The type parameter pins the key to one concrete type; a key reused at a
// different type panics (a programming error, not a runtime condition).
func Of[T any](a *Arena, key string, mk func() T) T {
	if v, ok := a.stash[key]; ok {
		return v.(T)
	}
	v := mk()
	a.stash[key] = v
	return v
}
