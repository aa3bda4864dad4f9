//go:build race

package web

// raceEnabled reports a race-detector build: its runtime allocates where
// the served program does not (sync.Pool drops a share of what is put
// back), so allocation counts are pinned only without it.
const raceEnabled = true
