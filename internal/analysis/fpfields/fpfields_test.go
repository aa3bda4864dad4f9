package fpfields_test

import (
	"testing"

	"github.com/gables-model/gables/internal/analysis/analysistest"
	"github.com/gables-model/gables/internal/analysis/fpfields"
)

// TestFpfieldsClean covers the negative path: a complete encoder with
// field-attached and remote skip/delegate annotations and an in-sync
// shape lock produces no findings.
func TestFpfieldsClean(t *testing.T) {
	analysistest.Run(t, "testdata", fpfields.Analyzer, "ok")
}

// TestFpfieldsSeededMutation is the acceptance-criteria fixture: a field
// added to an encoded struct without touching the encoder, the lock, or
// the version must produce findings at every layer (unencoded field,
// cross-package coverage hole, unconsumed delegate, stale remote
// directive, and the missing version bump) — while the //lint:ignore'd
// field stays silent.
func TestFpfieldsSeededMutation(t *testing.T) {
	analysistest.Run(t, "testdata", fpfields.Analyzer, "seeded")
}

// TestFpfieldsUnexportedFields pins that unexported fields are not walked:
// the structs behind them add no unencoded-field findings and nothing to
// the shape lock.
func TestFpfieldsUnexportedFields(t *testing.T) {
	analysistest.Run(t, "testdata", fpfields.Analyzer, "unexported")
}
