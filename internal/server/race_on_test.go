//go:build race

package server

// raceEnabled reports whether the race detector is active. Allocation
// pins that depend on sync.Pool retention skip under it: the runtime
// deliberately drops a fraction of pool puts when racing.
const raceEnabled = true
