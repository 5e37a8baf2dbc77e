package arena

import (
	"sync"
	"testing"
)

func TestSlabTakeBasics(t *testing.T) {
	var s Slab[int]
	a := s.Take(3)
	if len(a) != 0 || cap(a) != 3 {
		t.Fatalf("Take(3) = len %d cap %d, want 0/3", len(a), cap(a))
	}
	a = append(a, 1, 2, 3)
	b := s.Take(2)
	b = append(b, 4, 5)
	if a[0] != 1 || a[2] != 3 || b[0] != 4 || b[1] != 5 {
		t.Fatalf("slab regions overlap: a=%v b=%v", a, b)
	}
}

func TestSlabTakeClipsCapacity(t *testing.T) {
	var s Slab[int]
	a := s.Take(2)
	a = append(a, 1, 2)
	b := s.Take(2)
	// Appending past a's capacity must reallocate a, not scribble over b.
	a = append(a, 99)
	b = append(b, 7, 8)
	if b[0] != 7 || b[1] != 8 {
		t.Fatalf("over-append corrupted neighbor region: b=%v", b)
	}
	if a[2] != 99 {
		t.Fatalf("over-append lost value: a=%v", a)
	}
}

func TestSlabGrowKeepsOldChunksValid(t *testing.T) {
	var s Slab[int]
	a := s.Take(slabMinChunk)
	for i := 0; i < slabMinChunk; i++ {
		a = append(a, i)
	}
	// Force a new chunk; the old one must stay intact behind a.
	b := s.Take(4 * slabMinChunk)
	for i := range cap(b) {
		b = append(b, -i)
	}
	for i := 0; i < slabMinChunk; i++ {
		if a[i] != i {
			t.Fatalf("old chunk corrupted at %d: %d", i, a[i])
		}
	}
}

func TestSlabResetReusesWithoutAlloc(t *testing.T) {
	var s Slab[float64]
	warm := func() {
		s.Reset()
		x := s.Take(100)
		_ = append(x, 1)
	}
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	if allocs != 0 {
		t.Fatalf("steady-state Take after Reset allocates %v/op, want 0", allocs)
	}
}

func TestArenaOfAndReset(t *testing.T) {
	type box struct{ n int }
	a := New("w0")
	b1 := Of(a, "box", func() *box { return &box{} })
	b1.n = 7
	b2 := Of(a, "box", func() *box { t.Fatal("mk ran twice"); return nil })
	if b1 != b2 || b2.n != 7 {
		t.Fatal("Of returned a different value on second lookup")
	}
}

type closable struct{ closed *bool }

func (c *closable) Close() { *c.closed = true }

func TestArenaCloseFiresCloseAndEmpties(t *testing.T) {
	a := New("w0")
	closed := false
	Of(a, "c", func() *closable { return &closable{closed: &closed} })
	a.Close()
	if !closed {
		t.Fatal("Close did not fire stashed Close")
	}
	made := false
	Of(a, "c", func() *closable { made = true; return &closable{closed: &closed} })
	if !made {
		t.Fatal("stash not emptied by Close")
	}
}

// TestArenasNeverAlias pins the worker-isolation contract: concurrent workers
// hammering their own arenas share no memory. Run under -race this fails
// loudly if any slab region or stashed structure is reachable from two
// arenas.
func TestArenasNeverAlias(t *testing.T) {
	const workers = 4
	const jobs = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := New("worker")
			defer a.Close()
			type scratch struct {
				ints Slab[int]
			}
			sc := Of(a, "scratch", func() *scratch { return &scratch{} })
			for j := 0; j < jobs; j++ {
				sc.ints.Reset()
				xs := sc.ints.Take(64)
				for i := 0; i < 64; i++ {
					xs = append(xs, w*1_000_000+j*64+i)
				}
				for i, v := range xs {
					if v != w*1_000_000+j*64+i {
						t.Errorf("worker %d job %d: slab cross-talk at %d: %d", w, j, i, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
