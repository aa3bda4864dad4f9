package core

import (
	"fmt"
	"math"
)

// This file is the grid hot path of the analytic model: a batch evaluator
// that factors every loop-invariant term of Evaluate/EvaluateSerialized —
// per-IP peaks Ai·Ppeak, link bandwidths, SRAM miss ratios, bus membership
// and traffic scales — out of the sweep inner loop, and evaluates cells
// from struct-of-arrays buffers into a caller-provided result arena with
// zero per-cell allocation. The kernel replicates the point API's exact
// floating-point operation order, so batch results are bitwise identical
// to Evaluate/EvaluateSerialized on the same work vectors (pinned by
// TestBatchMatchesEvaluateBitwise); sweeps that migrate to the batch path
// keep byte-identical artifacts.

// Cells is a struct-of-arrays buffer of usecase work vectors over a fixed
// SoC: cell c assigns fraction Fractions[c*IPs+i] of the (unit) work to
// IP i at intensity Intensities[c*IPs+i]. Fill with Set; reuse across
// batches by re-filling in place.
type Cells struct {
	// IPs is the work-vector width; it must match the model's IP count.
	IPs int
	// Fractions and Intensities hold the cell data, cell-major.
	Fractions   []float64
	Intensities []float64
}

// NewCells returns a buffer sized for the given cell count.
func NewCells(ips, cells int) *Cells {
	if ips < 1 || cells < 0 {
		return &Cells{IPs: ips}
	}
	return &Cells{
		IPs:         ips,
		Fractions:   make([]float64, ips*cells),
		Intensities: make([]float64, ips*cells),
	}
}

// Len returns the cell count.
func (cs *Cells) Len() int {
	if cs.IPs < 1 {
		return 0
	}
	return len(cs.Fractions) / cs.IPs
}

// Set fills IP i of cell c.
func (cs *Cells) Set(c, i int, fraction float64, intensity float64) {
	cs.Fractions[c*cs.IPs+i] = fraction
	cs.Intensities[c*cs.IPs+i] = intensity
}

// CellResults is the struct-of-arrays result arena for a batch: scalar
// outputs indexed by cell, per-IP outputs indexed cell-major like Cells.
// Allocate once with NewCellResults and reuse across batches. Per-IP
// breakdown is limited to the terms grid consumers read (Di and T_IP[i]);
// the point API remains the source for full IPBreakdown detail.
type CellResults struct {
	// IPs is the per-IP stride.
	IPs int
	// Attainable is Pattainable in ops/s for unit work (Equation 4/11;
	// the §V-C serialized form when the cell is evaluated serialized).
	Attainable []float64
	// Time is the limiting time for unit work: the max constraint time
	// (concurrent) or the per-IP sum (serialized).
	Time []float64
	// Bottleneck identifies the limiting component per cell.
	Bottleneck []Component
	// MemoryTime is Tmemory (concurrent form; 0 for serialized cells,
	// whose off-chip time folds into the per-IP terms).
	MemoryTime []float64
	// MemoryTraffic is the off-chip ΣD'i in bytes.
	MemoryTraffic []float64
	// AvgIntensity is Iavg, or 0 when undefined.
	AvgIntensity []float64
	// TopTime and SecondTime are the largest and second-largest positive
	// constraint times (per-IP times, the memory term, bus terms) — the
	// inputs to the evaluation layer's bottleneck tie ratio. SecondTime
	// is 0 when fewer than two constraints are positive.
	TopTime    []float64
	SecondTime []float64
	// IPData and IPTime are Di (bytes) and T_IP[i] (seconds) per cell
	// and IP, cell-major; idle IPs hold zeros.
	IPData []float64
	IPTime []float64
}

// NewCellResults returns an arena sized for the given cell count. The
// float64 fields are capacity-capped windows of one backing array, so an
// arena costs at most three allocations whatever its size; an append to
// one field reallocates it instead of spilling into its neighbour.
func NewCellResults(ips, cells int) *CellResults {
	r := &CellResults{IPs: ips, Bottleneck: make([]Component, cells)}
	r.carve(cells)
	return r
}

// carve points the float64 fields at consecutive windows of one new
// array. It is split from NewCellResults to keep that small enough to
// inline, so an arena that does not escape its caller keeps its header
// off the heap.
func (r *CellResults) carve(cells int) {
	buf := make([]float64, (7+2*r.IPs)*cells)
	next := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	r.Attainable, r.Time = next(cells), next(cells)
	r.MemoryTime, r.MemoryTraffic = next(cells), next(cells)
	r.AvgIntensity, r.TopTime, r.SecondTime = next(cells), next(cells), next(cells)
	r.IPData, r.IPTime = next(r.IPs*cells), next(r.IPs*cells)
}

// Len returns the arena's cell capacity.
func (r *CellResults) Len() int { return len(r.Attainable) }

// batchBus is one §V-B bus with membership precomputed as a dense mask so
// the kernel walks IPs in index order (the accumulation order Evaluate
// uses) without the per-cell Users scan.
type batchBus struct {
	name string
	bw   float64
	user []bool
}

// BatchEval evaluates many usecase cells on one fixed Model. Construction
// validates the model once and hoists every term that does not depend on
// the cell's work vector; per-cell evaluation then allocates nothing.
// A BatchEval is immutable after construction and safe for concurrent use
// (distinct goroutines must write to distinct CellResults).
type BatchEval struct {
	nIP   int
	ppeak float64
	memBW float64
	// accel and names mirror SoC.IPs; peak[i] is Ai·Ppeak exactly as
	// IP.Peak computes it, bw[i] the link bandwidth, miss[i] the SRAM
	// miss ratio (1 without the extension), busScale[i] the bus-traffic
	// fraction.
	peak     []float64
	bw       []float64
	miss     []float64
	busScale []float64
	names    []string
	buses    []batchBus
}

// Batch validates the model and returns its batch evaluator.
func (m *Model) Batch() (*BatchEval, error) {
	s := m.SoC
	if s == nil {
		return nil, fmt.Errorf("gables: batch needs a model with a SoC")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if m.SRAM != nil {
		if err := m.SRAM.validateFor(s); err != nil {
			return nil, err
		}
	}
	for j, bus := range m.Buses {
		if err := bus.validateFor(s, j); err != nil {
			return nil, err
		}
	}
	// The per-IP slices are capacity-capped windows of one backing
	// array, and the buses' user masks of another, as in NewCellResults.
	n := len(s.IPs)
	f := make([]float64, 4*n)
	next := func() []float64 {
		w := f[:n:n]
		f = f[n:]
		return w
	}
	be := &BatchEval{
		nIP:      n,
		ppeak:    float64(s.Peak),
		memBW:    float64(s.MemoryBandwidth),
		peak:     next(),
		bw:       next(),
		miss:     next(),
		busScale: next(),
		names:    make([]string, n),
	}
	for i, ip := range s.IPs {
		// The same expression IP.Peak evaluates, hoisted: bitwise
		// equality with the point API depends on the divisor being the
		// identical product.
		be.peak[i] = ip.Acceleration * float64(s.Peak)
		be.bw[i] = float64(ip.Bandwidth)
		be.miss[i] = m.missRatio(i)
		be.busScale[i] = m.busTrafficScale(i)
		be.names[i] = ip.Name
	}
	be.buses = make([]batchBus, len(m.Buses))
	users := make([]bool, len(m.Buses)*n)
	for j, bus := range m.Buses {
		bb := batchBus{name: bus.Name, bw: float64(bus.Bandwidth), user: users[j*n : (j+1)*n : (j+1)*n]}
		for _, u := range bus.Users {
			bb.user[u] = true
		}
		be.buses[j] = bb
	}
	return be, nil
}

// IPs returns the model's IP count (the required Cells/CellResults width).
func (be *BatchEval) IPs() int { return be.nIP }

// EvaluateAll evaluates every cell of cs into res, serialized selecting
// the §V-C exclusive-work form for the whole batch. res must be at least
// as long as cs and share its IP stride. An invalid cell (fractions not
// summing to 1, a negative or NaN fraction, work at a non-positive
// intensity — the same rejections Usecase.ValidateFor makes) fails the
// batch with its index.
func (be *BatchEval) EvaluateAll(cs *Cells, serialized bool, res *CellResults) error {
	if cs.IPs != be.nIP || res.IPs != be.nIP {
		return fmt.Errorf("gables: batch over %d IPs got cells width %d, results width %d", be.nIP, cs.IPs, res.IPs)
	}
	n := cs.Len()
	if len(cs.Intensities) != len(cs.Fractions) {
		return fmt.Errorf("gables: batch cells misshapen: %d fractions, %d intensities", len(cs.Fractions), len(cs.Intensities))
	}
	if res.Len() < n || len(res.IPData) < n*be.nIP || len(res.IPTime) < n*be.nIP {
		return fmt.Errorf("gables: batch result arena holds %d cells, need %d", res.Len(), n)
	}
	if bad, ok := be.evaluateCells(cs, n, serialized, res); !ok {
		return fmt.Errorf("gables: batch cell %d: invalid work vector (fractions must be non-negative and sum to 1; active IPs need positive intensity)", bad)
	}
	return nil
}

// evaluateCells is the batch inner loop. It returns the first invalid
// cell's index and false, or (0, true) when every cell evaluated.
//
//gables:allocfree
func (be *BatchEval) evaluateCells(cs *Cells, n int, serialized bool, res *CellResults) (int, bool) {
	for c := 0; c < n; c++ {
		if !be.EvaluateCell(cs, c, serialized, res) {
			return c, false
		}
	}
	return 0, true
}

// EvaluateCell evaluates the single cell c of cs into res, returning
// false when the cell's work vector is invalid. It performs no shape
// checks — callers either go through EvaluateAll or guarantee that cs and
// res share the evaluator's IP stride and hold cell c. The evaluation is
// bitwise identical to Evaluate (or EvaluateSerialized when serialized)
// on the equivalent unit-work Usecase.
//
//gables:allocfree
func (be *BatchEval) EvaluateCell(cs *Cells, c int, serialized bool, res *CellResults) bool {
	base := c * be.nIP
	frac := cs.Fractions[base : base+be.nIP]
	intens := cs.Intensities[base : base+be.nIP]

	// Per-cell validation, replicating Usecase.ValidateFor's accept/reject
	// decisions (same comparisons, same accumulation order for the sum).
	sum := 0.0
	for i := 0; i < be.nIP; i++ {
		f := frac[i]
		if f < 0 || math.IsNaN(f) {
			return false
		}
		if f > 0 && intens[i] <= 0 {
			return false
		}
		sum += f
	}
	if math.Abs(sum-1) > FractionTolerance {
		return false
	}

	if serialized {
		be.serializedCell(frac, intens, base, c, res)
	} else {
		be.concurrentCell(frac, intens, base, c, res)
	}
	return true
}

// concurrentCell is Evaluate's time-form computation (Equations 1–4/9–11
// plus the §V-A/§V-B extensions) for one unit-work cell.
//
// The paper's unit-work normalization makes total = 1, so ops = fi
// exactly (x·1.0 ≡ x in IEEE 754) and the divisions below carry the same
// bit patterns as the point API's.
func (be *BatchEval) concurrentCell(frac, intens []float64, base, c int, res *CellResults) {
	var offChip float64 // ΣD'i in bytes
	var iavgDen float64 // Σ fi/I'i for the off-chip Iavg
	var top, second float64
	top, second = math.Inf(-1), math.Inf(-1)
	positive := 0
	for i := 0; i < be.nIP; i++ {
		f := frac[i]
		if f == 0 {
			res.IPData[base+i] = 0
			res.IPTime[base+i] = 0
			continue
		}
		compute := f / be.peak[i]
		data := f / intens[i]
		transfer := data / be.bw[i]
		t := max(transfer, compute)
		res.IPData[base+i] = data
		res.IPTime[base+i] = t

		dPrime := data * be.miss[i]
		offChip += dPrime
		if dPrime > 0 {
			iavgDen += dPrime
		}
		if t > 0 {
			positive++
			if t > top {
				top, second = t, top
			} else if t > second {
				second = t
			}
		}
	}

	res.MemoryTraffic[c] = offChip
	memoryTime := offChip / be.memBW
	res.MemoryTime[c] = memoryTime
	if iavgDen > 0 {
		res.AvgIntensity[c] = 1 / iavgDen
	} else {
		res.AvgIntensity[c] = 0
	}

	// The limiting component: memory first, then IPs, then buses —
	// strictly-greater comparisons, the point API's tie-breaking order.
	limit := memoryTime
	res.Bottleneck[c] = Component{Kind: "memory", Index: -1, Name: "DRAM"}
	for i := 0; i < be.nIP; i++ {
		if res.IPTime[base+i] > limit {
			limit = res.IPTime[base+i]
			res.Bottleneck[c] = Component{Kind: "IP", Index: i, Name: be.names[i]}
		}
	}
	if memoryTime > 0 {
		positive++
		if memoryTime > top {
			top, second = memoryTime, top
		} else if memoryTime > second {
			second = memoryTime
		}
	}
	for j := range be.buses {
		var data float64
		for i := 0; i < be.nIP; i++ {
			if be.buses[j].user[i] {
				data += res.IPData[base+i] * be.busScale[i]
			}
		}
		busTime := data / be.buses[j].bw
		if busTime > limit {
			limit = busTime
			res.Bottleneck[c] = Component{Kind: "bus", Index: j, Name: be.buses[j].name}
		}
		if busTime > 0 {
			positive++
			if busTime > top {
				top, second = busTime, top
			} else if busTime > second {
				second = busTime
			}
		}
	}

	res.Time[c] = limit
	if limit > 0 {
		res.Attainable[c] = 1 / limit
	} else {
		res.Attainable[c] = 0
	}
	if positive > 0 {
		res.TopTime[c] = top
	} else {
		res.TopTime[c] = 0
	}
	if positive >= 2 {
		res.SecondTime[c] = second
	} else {
		res.SecondTime[c] = 0
	}
}

// serializedCell is EvaluateSerialized's computation (Equations 18–19)
// for one unit-work cell.
func (be *BatchEval) serializedCell(frac, intens []float64, base, c int, res *CellResults) {
	var sum float64
	var offChip float64
	var iavgDen float64
	anyWork := false
	slowest := -1
	var top, second float64
	top, second = math.Inf(-1), math.Inf(-1)
	positive := 0
	for i := 0; i < be.nIP; i++ {
		f := frac[i]
		if f == 0 {
			res.IPData[base+i] = 0
			res.IPTime[base+i] = 0
			continue
		}
		compute := f / be.peak[i]
		data := f / intens[i]
		transfer := data / be.bw[i]
		dPrime := data * be.miss[i]
		offChipTime := dPrime / be.memBW
		t := max(offChipTime, transfer, compute)
		res.IPData[base+i] = data
		res.IPTime[base+i] = t
		sum += t
		offChip += dPrime
		if slowest < 0 || t > res.IPTime[base+slowest] {
			slowest = i
		}
		anyWork = true
		iavgDen += f / intens[i]
		if t > 0 {
			positive++
			if t > top {
				top, second = t, top
			} else if t > second {
				second = t
			}
		}
	}

	res.MemoryTraffic[c] = offChip
	res.MemoryTime[c] = 0
	res.Time[c] = sum
	if sum > 0 {
		res.Attainable[c] = 1 / sum
	} else {
		res.Attainable[c] = 0
	}
	if slowest >= 0 {
		res.Bottleneck[c] = Component{Kind: "IP", Index: slowest, Name: be.names[slowest]}
	} else {
		res.Bottleneck[c] = Component{Kind: "memory", Index: -1, Name: "DRAM"}
	}
	// EvaluateSerialized takes Iavg from Usecase.AverageIntensity: the
	// plain fi/Ii harmonic mean, not the off-chip-weighted form.
	if anyWork && iavgDen != 0 {
		res.AvgIntensity[c] = 1 / iavgDen
	} else {
		res.AvgIntensity[c] = 0
	}
	if positive > 0 {
		res.TopTime[c] = top
	} else {
		res.TopTime[c] = 0
	}
	if positive >= 2 {
		res.SecondTime[c] = second
	} else {
		res.SecondTime[c] = 0
	}
}
