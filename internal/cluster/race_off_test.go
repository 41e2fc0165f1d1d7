//go:build !race

package cluster

// raceEnabled reports whether the race detector is active. The 1M
// digest test skips under it: the race runtime makes two 1M-request
// scenarios take minutes, and the race suite runs the same event loop
// on the smaller scenarios.
const raceEnabled = false
