package sim

// LookBuffer exposes e's Look buffer to the external tests.
func LookBuffer(e *Engine) []int { return e.queryBuf }
