package web

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
)

// The one validated numeric parser. PR 5 guarded the HTML form pages
// against non-finite input (strconv.ParseFloat happily accepts "NaN" and
// "Inf", and NaN then slips through every range check because NaN
// comparisons are false); the /eval JSON API grew its own local parser
// without the guard, so ?f=NaN bypassed the fGPU+fDSP > 1 check and
// reached SplitWork. Both surfaces now route through parseFinite /
// parsePositiveInt here: the HTML pages fall back to defaults and list the
// fieldError, the JSON endpoints return a 400 naming the field — but the
// acceptance rules are one implementation.

// query is a request's raw URL query, read without building url.Values:
// every surface looks up a handful of known keys, so a map of every pair
// and its value slices is work no request needs.
type query string

// Get returns key's first value, exactly as url.ParseQuery(raw).Get(key)
// would: a one-key read.
func (q query) Get(key string) string {
	var v [1]string
	q.read([]string{key}, v[:])
	return v[0]
}

// The byte classes read acts on: a pair's end, the key's end, a pair
// ParseQuery skips, and a byte url.QueryUnescape changes.
const (
	byteAmp = 1 + iota
	byteEq
	byteSemi
	byteEsc
)

// queryByte classes each byte for read; every other byte is 0.
var queryByte = [256]uint8{'&': byteAmp, '=': byteEq, ';': byteSemi, '%': byteEsc, '+': byteEsc}

// read sets vals[i] to the first value of keys[i] (len(vals) ==
// len(keys) ≤ 64), exactly as url.ParseQuery(raw).Get(keys[i]) would. It
// runs ParseQuery's loop (Go 1.24 net/url) — cut on '&', skip pairs that
// are empty or contain ';', cut on the first '=', unescape key and value
// and skip the pair on an error — as one scan of the raw query, which
// classes each byte through queryByte to find each pair's end, its first
// '=' and whether its key or value holds '%' or '+', the only bytes
// url.QueryUnescape changes. Only a key or value holding one is
// unescaped, so a query that needs no unescaping is read without
// allocating. It stops once every key has its value.
func (q query) read(keys, vals []string) {
	for i := range vals {
		vals[i] = ""
	}
	var found uint64
	all := uint64(1)<<len(keys) - 1
	s := string(q)
	for pos := 0; pos < len(s) && found != all; {
		start, eq := pos, -1
		var semi, escKey, escVal bool
		for ; pos < len(s); pos++ {
			c := queryByte[s[pos]]
			if c == 0 {
				continue
			}
			if c == byteAmp {
				break
			}
			switch c {
			case byteEq:
				if eq < 0 {
					eq = pos
				}
			case byteSemi:
				semi = true
			case byteEsc:
				if eq < 0 {
					escKey = true
				} else {
					escVal = true
				}
			}
		}
		end := pos
		pos++ // past the '&'
		if end == start || semi {
			continue
		}
		k, v := s[start:end], ""
		if eq >= 0 {
			k, v = s[start:eq], s[eq+1:end]
		}
		var err error
		if escKey {
			if k, err = url.QueryUnescape(k); err != nil {
				continue
			}
		}
		for i, key := range keys {
			if found&(1<<i) != 0 || key != k {
				continue
			}
			if escVal {
				// The value is unescaped once, at the pair's first key.
				if v, err = url.QueryUnescape(v); err != nil {
					break
				}
				escVal = false
			}
			vals[i] = v
			found |= 1 << i
		}
	}
}

// fieldError rejects one named input; both surfaces render it their way.
type fieldError struct {
	Field  string // input name ("f", "words", ...)
	Value  string // what was submitted
	Reason string // why it was rejected
}

func (e *fieldError) Error() string {
	return fmt.Sprintf("%s=%q %s", e.Field, e.Value, e.Reason)
}

// parseFinite parses a finite float64, rejecting NaN and ±Inf at the
// boundary so no downstream range check has to reason about them.
func parseFinite(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, &fieldError{Field: name, Value: v, Reason: "not a number"}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, &fieldError{Field: name, Value: v, Reason: "must be a finite number"}
	}
	return f, nil
}

// parsePositiveInt parses a strictly positive integer: the /eval sizing
// fields (words, fpw, trials) are counts where zero and negative values
// are never meaningful — words=0 would ask an empty question and
// trials=-1 would underflow the per-kernel loop.
func parsePositiveInt(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &fieldError{Field: name, Value: v, Reason: "not an integer"}
	}
	if n <= 0 {
		return 0, &fieldError{Field: name, Value: v, Reason: "must be positive"}
	}
	return n, nil
}

// evalQuerySpec is the surface-independent /eval question: the GET query
// string and the batch JSON items both decode into it, so validation and
// query construction live in exactly one place.
type evalQuerySpec struct {
	Chip       string
	F          float64 // GPU work fraction, the Figure 6 x-axis
	DSP        float64 // DSP work fraction (0 = two-IP shape)
	FPW        int     // flops per word (operational intensity knob)
	Words      int     // total array words split across the IPs
	Trials     int     // per-kernel trial count
	Serialized bool    // §V-C exclusive-work form
}

// defaultEvalSpec returns the defaults shared by every /eval surface,
// mirroring the §IV-C harness shape.
func defaultEvalSpec() evalQuerySpec {
	return evalQuerySpec{F: 0.5, FPW: 32, Words: 4 << 20, Trials: eval.DefaultTrials}
}

// buildQuery validates the spec and realizes it as the canonical
// eval.Query: a CPU/GPU(/DSP) work split, made by a preset from chips.
func (s evalQuerySpec) buildQuery(chips *chipPresets) (eval.Query, error) {
	preset, err := chips.preset(s.Chip)
	if err != nil {
		return eval.Query{}, err
	}
	return s.queryOn(preset)
}

// queryOn is buildQuery on a resolved preset.
func (s evalQuerySpec) queryOn(preset *eval.Preset) (eval.Query, error) {
	if s.FPW <= 0 {
		return eval.Query{}, fmt.Errorf("fpw must be positive, got %d", s.FPW)
	}
	if s.Words <= 0 {
		return eval.Query{}, fmt.Errorf("words must be positive, got %d", s.Words)
	}
	if s.Trials <= 0 {
		return eval.Query{}, fmt.Errorf("trials must be positive, got %d", s.Trials)
	}
	if s.F < 0 || s.DSP < 0 || s.F+s.DSP > 1 {
		return eval.Query{}, fmt.Errorf("fractions f=%v dsp=%v must be non-negative and sum to at most 1", s.F, s.DSP)
	}

	shares := append(make([]eval.Share, 0, 3), eval.Share{IP: "GPU", Fraction: s.F})
	if s.DSP > 0 {
		shares = append(shares, eval.Share{IP: "DSP", Fraction: s.DSP})
	}
	// The CPU is last: it absorbs the integer remainder, like the
	// harnesses' historical arithmetic.
	shares = append(shares, eval.Share{IP: "CPU", Fraction: 1 - s.F - s.DSP})
	q := preset.Query()
	var err error
	q.Work, err = eval.SplitWork(q.Chip, s.Words, s.FPW, kernel.ReadWrite, shares)
	if err != nil {
		return eval.Query{}, err
	}
	q.Trials, q.Serialized = s.Trials, s.Serialized
	return q, nil
}
