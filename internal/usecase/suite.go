package usecase

import (
	"context"
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/soc"
)

// This file implements suite analysis for the paper's §I design criterion:
// "a consumer SoC must enable 10-20 important usecases … to all run
// acceptably well. The average is immaterial." A Requirement binds a
// usecase dataflow to the item rate it must sustain; AnalyzeSuite checks
// every requirement on a chip and reports the binding (worst-margin)
// usecase — the one an architect must fix first.

// Requirement is one usecase with its acceptability bar.
type Requirement struct {
	// Graph is the dataflow.
	Graph *Graph
	// TargetRate is the item rate the usecase must sustain (e.g., 30
	// frames per second, or 1 for one-second-granularity flows that
	// must run in real time).
	TargetRate float64
}

// SuiteEntry is one requirement's verdict.
type SuiteEntry struct {
	// Usecase names the flow.
	Usecase string
	// TargetRate is the requirement.
	TargetRate float64
	// MaxRate is the chip's sustainable rate for the flow.
	MaxRate float64
	// Limiter names the binding component at MaxRate.
	Limiter string
	// Margin is MaxRate/TargetRate: below 1 the requirement fails.
	Margin float64
	// Met reports Margin >= 1.
	Met bool
}

// SuiteReport is the whole suite's verdict.
type SuiteReport struct {
	Chip    string
	Entries []SuiteEntry
	// AllMet is the paper's criterion: every usecase acceptable.
	AllMet bool
	// Binding is the index of the smallest-margin entry — immaterial
	// averages notwithstanding, this is the usecase that defines the
	// SoC's fitness.
	Binding int
}

// AnalyzeSuite evaluates every requirement on the chip.
func AnalyzeSuite(chip *soc.Chip, reqs []Requirement) (*SuiteReport, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("usecase: suite needs at least one requirement")
	}
	for i, req := range reqs {
		if req.Graph == nil {
			return nil, fmt.Errorf("usecase: requirement %d has no graph", i)
		}
		if req.TargetRate <= 0 || math.IsNaN(req.TargetRate) {
			return nil, fmt.Errorf("usecase: requirement %d (%s): target rate must be positive",
				i, req.Graph.Name)
		}
	}
	// Requirements are independent of each other — fan them out. Entries
	// come back in requirement order, so the binding fold below is
	// deterministic at any pool size.
	entries, err := parallel.Map(context.Background(), 0, reqs,
		func(_ context.Context, i int, req Requirement) (SuiteEntry, error) {
			maxRate, limiter, err := MaxRate(req.Graph, chip)
			if err != nil {
				return SuiteEntry{}, fmt.Errorf("usecase: requirement %d (%s): %w", i, req.Graph.Name, err)
			}
			e := SuiteEntry{
				Usecase:    req.Graph.Name,
				TargetRate: req.TargetRate,
				MaxRate:    maxRate,
				Limiter:    limiter,
				Margin:     maxRate / req.TargetRate,
			}
			e.Met = e.Margin >= 1
			return e, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &SuiteReport{Chip: chip.Name, Entries: entries, AllMet: true}
	worst := math.Inf(1)
	for i, e := range entries {
		if !e.Met {
			rep.AllMet = false
		}
		if e.Margin < worst {
			worst = e.Margin
			rep.Binding = i
		}
	}
	return rep, nil
}

// StandardSuite returns a representative phone workload suite at sensible
// acceptability bars, spanning the paper's examples (camera flows, a phone
// call, watching a movie) and common daily usecases.
func StandardSuite() []Requirement {
	return []Requirement{
		{Graph: PhoneCall(), TargetRate: 1},
		{Graph: MoviePlayback(UHD4K, 30), TargetRate: 1},
		{Graph: MusicPlayback(), TargetRate: 1},
		{Graph: VoiceAssistant(), TargetRate: 1},
		{Graph: StreamingWiFi(FHD, 30), TargetRate: 1},
		{Graph: VideoConference(HD720, 30), TargetRate: 1},
		{Graph: Gaming(FHD), TargetRate: 60},
		{Graph: PhotoEdit(UHD4K), TargetRate: 10},
		{Graph: HDRPlus(UHD4K), TargetRate: 3},
		{Graph: VideoCapture(UHD4K, 2), TargetRate: 30},
		{Graph: VideoCaptureHFR(UHD4K), TargetRate: 120},
		{Graph: VideoPlaybackUI(UHD4K), TargetRate: 30},
		{Graph: GoogleLens(FHD), TargetRate: 10},
	}
}
