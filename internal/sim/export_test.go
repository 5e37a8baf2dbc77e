package sim

// LookBuffers exposes e's Look snapshot buffers to the external tests.
func LookBuffers(e *Engine) (asleep, awake []Sighting) { return e.lookAsleep, e.lookAwake }
