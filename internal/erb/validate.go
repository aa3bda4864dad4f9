package erb

import (
	"context"
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/sim"
)

// This file cross-validates the analytic Gables model against the
// discrete-event substrate: the paper's stated accuracy goal is that
// "Gables's performance predictions as parameters change should at the
// very least have the correct shape and reasonable relative error",
// leaving absolute accuracy to cycle-level simulation. ValidateModel
// quantifies exactly that: over a (work-split × intensity) grid it
// compares the model's Pattainable against the measured concurrent
// throughput of the simulated SoC running the same assignment with
// device-resident execution (no coordination overhead, which the base
// model does not represent).

// ValidationCell is one grid comparison.
type ValidationCell struct {
	// F is the accelerator work fraction.
	F float64
	// FlopsPerWord selects the intensity (I = FlopsPerWord/8 for the
	// read+write kernel).
	FlopsPerWord int
	// Predicted is the model's bound in flops/s.
	Predicted float64
	// Measured is the simulated throughput in flops/s.
	Measured float64
	// RelError is |Measured−Predicted|/Predicted.
	RelError float64
}

// ValidationResult summarizes a grid.
type ValidationResult struct {
	Cells []ValidationCell
	// MeanRelError and MaxRelError aggregate |error| across cells.
	MeanRelError, MaxRelError float64
	// ShapeConsistent reports whether model and simulator order every
	// pair of cells the same way (no rank inversions beyond ties
	// within 2%): the paper's "correct shape".
	ShapeConsistent bool
}

// ValidationOptions configure the grid.
type ValidationOptions struct {
	// CPU and Accel name the two IPs.
	CPU, Accel string
	// Fractions defaults to {0, 0.25, 0.5, 0.75, 1}.
	Fractions []float64
	// FlopsPerWord defaults to {8, 64, 512, 4096}.
	FlopsPerWord []int
	// Words defaults to 4 Mi.
	Words int
	// Trials defaults to 2.
	Trials int
	// Workers bounds the grid's worker pool; 0 uses the
	// GABLES_PARALLEL/GOMAXPROCS default.
	Workers int
}

func (o *ValidationOptions) applyDefaults() {
	if len(o.Fractions) == 0 {
		o.Fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if len(o.FlopsPerWord) == 0 {
		o.FlopsPerWord = []int{8, 64, 512, 4096}
	}
	if o.Words == 0 {
		o.Words = 4 << 20
	}
	if o.Trials == 0 {
		o.Trials = 2
	}
}

// ValidateModel runs the grid. The analytic side uses the Gables SoC
// derived from the simulated chip's configured parameters with the
// read+write kernel's effective link bandwidths (the same pessimistic
// rooflines §IV would measure).
func ValidateModel(sys *sim.System, opts ValidationOptions) (*ValidationResult, error) {
	opts.applyDefaults()
	if opts.CPU == "" || opts.Accel == "" || opts.CPU == opts.Accel {
		return nil, fmt.Errorf("erb: validation needs two distinct IPs")
	}

	// Derive the model inputs by measurement, as §IV prescribes —
	// using the same read+write kernel the grid runs.
	derived, err := DeriveGables(sys, []string{opts.CPU, opts.Accel}, map[string]kernel.Pattern{
		opts.CPU:   kernel.ReadWrite,
		opts.Accel: kernel.ReadWrite,
	})
	if err != nil {
		return nil, err
	}
	model, err := core.New(derived)
	if err != nil {
		return nil, err
	}
	// Both sides of each cell go through the eval contract: the analytic
	// backend wraps the measurement-derived model, the sim backend measures
	// the identical Query (same fingerprint, shared result cache entries).
	analytic, err := eval.NewAnalyticModel(model, []string{opts.CPU, opts.Accel})
	if err != nil {
		return nil, err
	}
	simEv := eval.NewSim()

	// The grid cells are fully independent; fan them out. Each computed
	// cell gets its own sim.System via the result cache (runs never share
	// an engine; repeated and concurrent-identical cells are deduplicated),
	// and cells are collected in grid order so the aggregates below are
	// byte-identical at any pool size.
	type gridCell struct {
		fpw int
		f   float64
	}
	var grid []gridCell
	for _, fpw := range opts.FlopsPerWord {
		for _, f := range opts.Fractions {
			grid = append(grid, gridCell{fpw: fpw, f: f})
		}
	}
	// The analytic column is answered in one batch call up front: the
	// whole grid shares the injected model's hoisted terms and one result
	// arena, and the batch contract guarantees each Predicted value is
	// bitwise what a per-cell analytic.Evaluate would have produced.
	qs := make([]eval.Query, len(grid))
	for i, c := range grid {
		work, err := eval.SplitWork(sys.Config(), opts.Words, c.fpw, kernel.ReadWrite, []eval.Share{
			{IP: opts.CPU, Fraction: 1 - c.f}, {IP: opts.Accel, Fraction: c.f},
		})
		if err != nil {
			return nil, err
		}
		qs[i] = eval.Query{Chip: sys.Config(), Work: work, Trials: opts.Trials}
	}
	preds := make([]eval.Outcome, len(qs))
	if err := eval.EvaluateBatch(context.Background(), analytic, qs, preds); err != nil {
		return nil, err
	}

	cells, err := parallel.Map(context.Background(), opts.Workers, grid,
		func(ctx context.Context, i int, c gridCell) (ValidationCell, error) {
			meas, err := simEv.Evaluate(ctx, qs[i])
			if err != nil {
				return ValidationCell{}, err
			}
			cell := ValidationCell{
				F: c.f, FlopsPerWord: c.fpw,
				Predicted: preds[i].Attainable,
				Measured:  meas.Attainable,
			}
			if cell.Predicted > 0 {
				cell.RelError = math.Abs(cell.Measured-cell.Predicted) / cell.Predicted
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	res := &ValidationResult{Cells: cells, ShapeConsistent: true}
	for _, cell := range cells {
		res.MeanRelError += cell.RelError
		res.MaxRelError = math.Max(res.MaxRelError, cell.RelError)
	}
	if len(res.Cells) > 0 {
		res.MeanRelError /= float64(len(res.Cells))
	}

	// Shape: check all pairs for rank inversions (ignoring near-ties).
	for i := range res.Cells {
		for j := i + 1; j < len(res.Cells); j++ {
			a, b := res.Cells[i], res.Cells[j]
			if nearlyEqual(a.Predicted, b.Predicted, 0.02) || nearlyEqual(a.Measured, b.Measured, 0.02) {
				continue
			}
			if (a.Predicted < b.Predicted) != (a.Measured < b.Measured) {
				res.ShapeConsistent = false
			}
		}
	}
	return res, nil
}

func nearlyEqual(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}
