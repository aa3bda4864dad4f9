package experiments

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/parallel"
)

// RunAll executes the given experiments with at most workers of them in
// flight and returns the artifacts in the same order as ids; nil or empty
// ids means every registered experiment in IDs() order. workers <= 0 uses
// the parallel package's GABLES_PARALLEL/GOMAXPROCS default. workers bounds
// only this pool: the erb grids and usecase suites an experiment runs fan
// out at that default whatever workers is, so workers 1 runs one
// experiment at a time, not one simulation at a time.
//
// Runners are independent by construction — each builds its own chips,
// models, and simulated systems — so the fan-out changes wall-clock only,
// never results: artifacts are collected by id index, and the first failure
// cancels the remaining runs.
func RunAll(ctx context.Context, workers int, ids []string) ([]*Artifact, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	arts, err := parallel.Map(ctx, workers, ids, func(_ context.Context, _ int, id string) (*Artifact, error) {
		art, err := Run(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	return arts, nil
}
