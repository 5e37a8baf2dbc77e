package sim

import "fmt"

// WaitGroup tracks outstanding simulation activities (e.g. recursive
// wake-up branches) so one process can park until all of them complete.
// Unlike sync.WaitGroup this is a virtual-time construct: Wait parks the
// process and the final Done re-enqueues it at the completion time.
//
// All methods must be called from process bodies (or before Run); the
// engine runs one process at a time, so no additional locking is needed.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty WaitGroup bound to the engine. The group is
// registered with the engine so a fault-repair ReleaseStalled can void it
// (the registry is rewound on Reset).
func (e *Engine) NewWaitGroup() *WaitGroup {
	w := &WaitGroup{eng: e}
	e.wgs = append(e.wgs, w)
	return w
}

// Add increments the outstanding count by n > 0.
func (w *WaitGroup) Add(n int) {
	if n <= 0 {
		panic("sim: WaitGroup.Add requires n > 0")
	}
	w.count += n
}

// Done decrements the outstanding count, releasing any parked waiters when
// it reaches zero.
func (w *WaitGroup) Done() {
	if w.count <= 0 {
		if w.eng.faults != nil {
			// A stalled-process release (fault repair) already zeroed this
			// group; late Done calls from released branches are absorbed.
			return
		}
		panic(fmt.Sprintf("sim: WaitGroup.Done below zero (count=%d)", w.count))
	}
	w.count--
	if w.count == 0 {
		for _, p := range w.waiters {
			w.eng.unpark(p)
		}
		w.waiters = nil
	}
}

// Wait parks the calling process until the count is zero. A zero count
// returns immediately.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.parkWait()
}

// Pending returns the current outstanding count.
func (w *WaitGroup) Pending() int { return w.count }
