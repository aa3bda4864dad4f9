package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/surrogate"
	"github.com/gables-model/gables/internal/web"
)

// The serving workloads call web.Handler().ServeHTTP in-process: no
// loopback TCP, so only the repository's code sits in the timed path.

// canaryDigest is the answer digest (answerDigest) of the canary queries,
// recorded at commit 710932d. /eval, buffered /eval/batch and NDJSON
// /eval/batch must all reproduce it: batch answers are bitwise equal to
// point answers by contract.
const canaryDigest = "847179ed4074f8dae9ec653f0a660f390e7255bd410b5b729f209ad21e3185ce"

// setupChildren is how many fresh processes each serving run sets up in,
// besides its own set-up; setup_s is the median of all of them.
const setupChildren = 4

var (
	chipNames   = []string{"snapdragon835", "snapdragon821", "snapdragon835x"}
	pointFPWs   = []int{8, 32, 128, 512}
	pointModels = []string{"analytic", "surrogate", "auto", "sim"}
)

// chipConfig mirrors the /eval chip presets.
func chipConfig(name string) sim.Config {
	switch name {
	case "snapdragon821":
		return sim.Snapdragon821()
	case "snapdragon835x":
		return sim.Snapdragon835Extended()
	}
	return sim.Snapdragon835()
}

// evalQuery is one /eval question: a GPU/CPU split of the default 4 Mi
// words on a preset chip, answered by a named backend.
type evalQuery struct {
	Chip    string  `json:"chip"`
	Backend string  `json:"backend"`
	F       float64 `json:"f"`
	FPW     int     `json:"fpw"`
}

func (q evalQuery) url() string {
	return "/eval?chip=" + q.Chip + "&f=" + strconv.FormatFloat(q.F, 'f', -1, 64) +
		"&fpw=" + strconv.Itoa(q.FPW) + "&backend=" + q.Backend
}

// query builds the eval.Query the server answers for q, so layer probes
// can call the backends on exactly the served question.
func (q evalQuery) query() (eval.Query, error) {
	return splitQuery(chipConfig(q.Chip), q.F, q.FPW, 4<<20)
}

func splitQuery(cfg sim.Config, f float64, fpw, words int) (eval.Query, error) {
	work, err := eval.SplitWork(cfg, words, fpw, kernel.ReadWrite,
		[]eval.Share{{IP: "GPU", Fraction: f}, {IP: "CPU", Fraction: 1 - f}})
	if err != nil {
		return eval.Query{}, err
	}
	return eval.Query{Chip: cfg, Work: work, Trials: eval.DefaultTrials}, nil
}

// canaryQueries are fixed: every chip and backend on two shapes.
func canaryQueries() []evalQuery {
	var qs []evalQuery
	for _, chip := range chipNames {
		for _, b := range pointModels {
			qs = append(qs, evalQuery{chip, b, 0.5, 32}, evalQuery{chip, b, 0.25, 512})
		}
	}
	return qs
}

// answer is one /eval response or /eval/batch item.
type answer struct {
	Chip        string        `json:"chip"`
	Backend     string        `json:"backend"`
	Fingerprint string        `json:"fingerprint"`
	Outcome     *eval.Outcome `json:"outcome"`
	Error       string        `json:"error"`
}

// writeTo hashes the answer's meaning (not its formatting), floats by their
// exact bits.
func (a *answer) writeTo(h hash.Hash) {
	fmt.Fprintf(h, "%s|%s|%s|%s|", a.Chip, a.Backend, a.Fingerprint, a.Error)
	o := a.Outcome
	if o == nil {
		h.Write([]byte("nil\n"))
		return
	}
	bits := math.Float64bits
	fmt.Fprintf(h, "%s|%s|%x|%x|%x|%s|%s|%x|%x|", o.Backend, o.Fidelity, bits(o.Attainable), bits(o.Makespan),
		bits(o.TotalFlops), o.Bottleneck.Kind, o.Bottleneck.Name, bits(o.TieRatio), bits(o.DRAMUtilization))
	if c := o.Confidence; c != nil {
		fmt.Fprintf(h, "%x|%x|%x|%s|%x|", bits(c.RelErrBound), bits(c.Lo), bits(c.Hi), c.Bucket, bits(c.Efficiency))
	}
	for _, ip := range o.IPs {
		fmt.Fprintf(h, "%s|%x|%x|%x|%x|", ip.IP, bits(ip.Flops), bits(ip.Bytes), bits(ip.Time), bits(ip.Rate))
	}
	h.Write([]byte("\n"))
}

// answerDigest hashes a sequence of answers.
func answerDigest(as []answer) string {
	h := sha256.New()
	for i := range as {
		as[i].writeTo(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Flush makes the recorder an http.Flusher, like a real connection.
func (w *recorder) Flush() {}

func (w *recorder) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// serveBase is what both serving workloads share: the handler, a response
// recorder, and the set-up samples gathered from child processes.
type serveBase struct {
	seed     int64
	children bool // set up in child processes too
	h        http.Handler
	rec      *recorder
	// ownCalibrateMs is this process's three-preset calibration time;
	// calibrateMs collects the child processes' (always cold) ones.
	ownCalibrateMs float64
	calibrateMs    []float64
}

// start is the first call into the repository: build the handler and
// calibrate the surrogate backend for the three presets.
func (b *serveBase) start(ctx context.Context) error {
	b.h = web.Handler()
	b.rec = newRecorder()
	t0 := time.Now()
	for _, name := range chipNames {
		if _, err := surrogate.Default().Calibration(ctx, chipConfig(name)); err != nil {
			return fmt.Errorf("calibrate %s: %w", name, err)
		}
	}
	b.ownCalibrateMs = time.Since(t0).Seconds() * 1e3
	return nil
}

// get serves one request and returns the body (valid until the next call).
func (b *serveBase) get(r *http.Request) ([]byte, error) {
	b.rec.reset()
	b.h.ServeHTTP(b.rec, r)
	if b.rec.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", r.Method, r.URL, b.rec.status, strings.TrimSpace(b.rec.body.String()))
	}
	return b.rec.body.Bytes(), nil
}

// post serves one POST /eval/batch.
func (b *serveBase) post(body []byte, stream bool) ([]byte, error) {
	target := "/eval/batch"
	if stream {
		target += "?stream=1"
	}
	r, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return b.get(r)
}

// checkCanary asks the canary questions through /eval and both batch
// shapes and compares every answer digest with the recorded one.
func (b *serveBase) checkCanary() error {
	qs := canaryQueries()
	point := make([]answer, len(qs))
	for i, q := range qs {
		r, err := http.NewRequest(http.MethodGet, q.url(), nil)
		if err != nil {
			return err
		}
		body, err := b.get(r)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &point[i]); err != nil {
			return fmt.Errorf("decode %s: %w", q.url(), err)
		}
	}
	body, err := json.Marshal(batchBody{Items: qs})
	if err != nil {
		return err
	}
	for _, got := range []struct {
		name   string
		stream bool
	}{{"/eval", false}, {"/eval/batch", false}, {"/eval/batch?stream=1", true}} {
		as := point
		if got.name != "/eval" {
			resp, err := b.post(body, got.stream)
			if err != nil {
				return err
			}
			if as, err = decodeBatch(resp, got.stream); err != nil {
				return err
			}
		}
		if d := answerDigest(as); d != canaryDigest {
			return fmt.Errorf("canary answers on %s: digest %s, want %s", got.name, d, canaryDigest)
		}
	}
	return nil
}

// runSetupChild sets the workload up in a fresh process and returns its
// set-up seconds and calibration milliseconds.
func runSetupChild(mode string, seed int64) (setupS, calibrateMs float64, err error) {
	out, err := runSelf("-child", mode, "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return 0, 0, err
	}
	var r struct {
		SetupS      float64 `json:"setup_s"`
		CalibrateMs float64 `json:"calibrate_ms"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return 0, 0, fmt.Errorf("child %s: %w", mode, err)
	}
	return r.SetupS, r.CalibrateMs, nil
}

// setupSamples runs the child set-ups (when enabled) and then prepare in
// this process, timing each.
func (b *serveBase) setupSamples(ctx context.Context, mode string, prepare func(context.Context) error) ([]float64, error) {
	var samples []float64
	if b.children {
		for i := 0; i < setupChildren; i++ {
			s, cal, err := runSetupChild(mode, b.seed)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
			b.calibrateMs = append(b.calibrateMs, cal)
		}
	}
	t0 := time.Now()
	if err := prepare(ctx); err != nil {
		return nil, err
	}
	return append(samples, time.Since(t0).Seconds()), nil
}

// servePoint is the serve-point workload.
type servePoint struct {
	serveBase
	queries []evalQuery
	reqs    []*http.Request
	bodies  [][]byte // response bodies recorded by the warm pass
	order   []int
	next    int
}

// fBands is the number of GPU-fraction bands each serve-point stratum
// draws one question from: 3 chips × 4 backends × 4 fpw × 10 = 480
// distinct questions.
const fBands = 10

func newServePoint(seed int64, children bool) *servePoint {
	return &servePoint{serveBase: serveBase{seed: seed, children: children}}
}

func (s *servePoint) setup(ctx context.Context) ([]float64, error) {
	return s.setupSamples(ctx, "setup-serve-point", s.prepare)
}

// prepare builds the handler, calibrates, checks the canary, and answers
// every query once so all answers are cache-resident.
func (s *servePoint) prepare(ctx context.Context) error {
	if err := s.start(ctx); err != nil {
		return err
	}
	if err := s.checkCanary(); err != nil {
		return err
	}
	// Stratified: every chip × backend × fpw gets one f from each of ten
	// bands of 0.1–0.9, so seeds vary the questions but not the mix.
	rng := rand.New(rand.NewSource(s.seed))
	for _, chip := range chipNames {
		for _, backend := range pointModels {
			for _, fpw := range pointFPWs {
				for band := 0; band < fBands; band++ {
					f := float64(10+8*band+rng.Intn(8)) / 100
					s.queries = append(s.queries, evalQuery{Chip: chip, Backend: backend, F: f, FPW: fpw})
				}
			}
		}
	}
	for _, q := range s.queries {
		r, err := http.NewRequest(http.MethodGet, q.url(), nil)
		if err != nil {
			return err
		}
		body, err := s.get(r)
		if err != nil {
			return err
		}
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("decode %s: %w", q.url(), err)
		}
		eq, err := q.query()
		if err != nil {
			return err
		}
		if fp, err := eval.Fingerprint(eq); err != nil || fp != a.Fingerprint {
			return fmt.Errorf("%s answered fingerprint %s, want %s (%v)", q.url(), a.Fingerprint, fp, err)
		}
		s.reqs = append(s.reqs, r)
		s.bodies = append(s.bodies, bytes.Clone(body))
	}
	s.order = rng.Perm(len(s.queries))
	return nil
}

func (s *servePoint) op(ctx context.Context) (int, error) {
	i := s.order[s.next%len(s.order)]
	s.next++
	body, err := s.get(s.reqs[i])
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(body, s.bodies[i]) {
		return 0, fmt.Errorf("%s: response differs from the warm pass", s.queries[i].url())
	}
	return 1, nil
}

// serveBatch is the serve-batch workload.
type serveBatch struct {
	serveBase
	items    [][]evalQuery // per body
	bodies   [][]byte      // request bodies
	expected [][]byte      // response bodies recorded by the warm pass
	next     int
}

const (
	batchItems  = 256 // items per request
	batchBodies = 16  // distinct request bodies; no item repeats across them
)

// streamed reports whether body i is requested as NDJSON: every fourth.
func streamed(i int) bool { return i%4 == 3 }

type batchBody struct {
	Items []evalQuery `json:"items"`
}

func newServeBatch(seed int64, children bool) *serveBatch {
	return &serveBatch{serveBase: serveBase{seed: seed, children: children}}
}

func (s *serveBatch) setup(ctx context.Context) ([]float64, error) {
	return s.setupSamples(ctx, "setup-serve-batch", s.prepare)
}

// prepare builds the request bodies, checks the canary, and answers every
// body once in both shapes, checking that they agree.
func (s *serveBatch) prepare(ctx context.Context) error {
	if err := s.start(ctx); err != nil {
		return err
	}
	if err := s.checkCanary(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.seed))
	type shape struct {
		chip string
		f    float64
		fpw  int
	}
	seen := map[shape]bool{}
	for b := 0; b < batchBodies; b++ {
		items := make([]evalQuery, 0, batchItems)
		for len(items) < batchItems {
			// Surrogate items stay inside the calibrated envelope
			// (f 0.15–0.6), so they take the fitted fast path.
			q := evalQuery{Backend: "analytic", F: float64(1000+rng.Intn(8001)) / 1e4}
			if len(items)%4 == 3 {
				q = evalQuery{Backend: "surrogate", F: float64(1500+rng.Intn(4501)) / 1e4}
			}
			q.Chip = chipNames[rng.Intn(len(chipNames))]
			q.FPW = pointFPWs[rng.Intn(len(pointFPWs))]
			if k := (shape{q.Chip, q.F, q.FPW}); !seen[k] {
				seen[k] = true
				items = append(items, q)
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		body, err := json.Marshal(batchBody{Items: items})
		if err != nil {
			return err
		}
		s.items = append(s.items, items)
		s.bodies = append(s.bodies, body)
	}
	for i, body := range s.bodies {
		var digests [2]string
		for k, stream := range []bool{streamed(i), !streamed(i)} {
			resp, err := s.post(body, stream)
			if err != nil {
				return err
			}
			if k == 0 {
				s.expected = append(s.expected, bytes.Clone(resp))
			}
			as, err := decodeBatch(resp, stream)
			if err != nil {
				return err
			}
			digests[k] = answerDigest(as)
		}
		if digests[0] != digests[1] {
			return fmt.Errorf("batch body %d: buffered and NDJSON answers differ", i)
		}
	}
	return nil
}

// decodeBatch parses a batch response and rejects per-item errors.
func decodeBatch(resp []byte, stream bool) ([]answer, error) {
	var as []answer
	if stream {
		dec := json.NewDecoder(bytes.NewReader(resp))
		for dec.More() {
			var a answer
			if err := dec.Decode(&a); err != nil {
				return nil, fmt.Errorf("decode NDJSON line %d: %w", len(as), err)
			}
			as = append(as, a)
		}
	} else {
		var r struct {
			Items []answer `json:"items"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, fmt.Errorf("decode batch response: %w", err)
		}
		as = r.Items
	}
	for i, a := range as {
		if a.Error != "" || a.Outcome == nil {
			return nil, fmt.Errorf("batch item %d failed: %q", i, a.Error)
		}
	}
	return as, nil
}

func (s *serveBatch) op(ctx context.Context) (int, error) {
	i := s.next % len(s.bodies)
	s.next++
	resp, err := s.post(s.bodies[i], streamed(i))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(resp, s.expected[i]) {
		return 0, fmt.Errorf("batch body %d: response differs from the warm pass", i)
	}
	return len(s.items[i]), nil
}
