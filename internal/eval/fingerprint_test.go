package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// TestFingerprintGolden pins the exact hex of eval.Fingerprint for every
// chip preset on two work shapes, serialized and not. The keys are part of
// every /eval and /eval/batch answer, so an encoding change that is not a
// deliberate FingerprintVersion bump must fail here.
func TestFingerprintGolden(t *testing.T) {
	presets := []struct {
		name string
		cfg  sim.Config
	}{{"835", sim.Snapdragon835()}, {"821", sim.Snapdragon821()}, {"835x", sim.Snapdragon835Extended()}}
	shapes := []struct {
		name   string
		words  int
		fpw    int
		p      kernel.Pattern
		trials int
		f      float64
	}{
		{"half", 4 << 20, 32, kernel.ReadWrite, DefaultTrials, 0.5},
		{"quarter", 1 << 22, 512, kernel.ReadOnly, 3, 0.25},
	}
	want := map[string]string{
		"835/half":            "9a1a61db7dae1c93c634d4d37bb1a1324c76d486a4bf5d1c27189b69239fbd99",
		"835/half/serial":     "fcdd0c32587f68ace820a78608913d8c8a6a8e6a0079bb20807669355e539715",
		"835/quarter":         "fff75e6aeb7540166563afdfad7f3d42b520d724e016502011c5aa0f828be073",
		"835/quarter/serial":  "d5b2e2e13c79fda83184196f444bde5214a1971723cf7ffdaa2ade282f2f18cd",
		"821/half":            "7a82881df1e0051682f6ba61a7830e4982bf82db67823ec8ca6d49e0f73b77f3",
		"821/half/serial":     "2684b51550eb3da64cdae7d0672ed296d853bbf7c1f30265f6a09c09975a4e03",
		"821/quarter":         "bac8b18f74d04de212887c61465e97a7172d2dc9b10add92958d24689b6617cd",
		"821/quarter/serial":  "7eec995917e1bf80c42236c5d1adef820b151a73d996a89dc798f933eb8f8f58",
		"835x/half":           "c824534ad4d6369f133480b7ac534328d5c3a7e692f60fd1f8999aff6130848d",
		"835x/half/serial":    "314e6441dd87b45f5453da09a002b50c87d434d6e885e224177aa74994c0b47e",
		"835x/quarter":        "56ab8997692e196b44d15feb007aac0088da7af84bf9caf42fef11c4e94815e2",
		"835x/quarter/serial": "d4dc93ecf9ccb3a1a6e18df7dfc5553d003714b561f5e4f913dba1b677356d15",
	}
	for _, p := range presets {
		for _, s := range shapes {
			work, err := SplitWork(p.cfg, s.words, s.fpw, s.p, []Share{{IP: "GPU", Fraction: s.f}, {IP: "CPU", Fraction: 1 - s.f}})
			if err != nil {
				t.Fatal(err)
			}
			for _, serialized := range []bool{false, true} {
				name := p.name + "/" + s.name
				if serialized {
					name += "/serial"
				}
				got, err := Fingerprint(Query{Chip: p.cfg, Work: work, Trials: s.trials, Serialized: serialized})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != want[name] {
					t.Errorf("%s: Fingerprint = %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// fingerprintViaRealize is the two-pass encoding Fingerprint replaced: the
// labeled realization, sim.Fingerprint's hex, then the outer hash. The
// one-pass Fingerprint must produce the same key for every query.
func fingerprintViaRealize(q Query) (string, error) {
	as, opt, err := q.realize()
	if err != nil {
		return "", err
	}
	b := binary.LittleEndian.AppendUint64(nil, FingerprintVersion)
	if q.Serialized {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	inner := sim.Fingerprint(q.Chip, as, opt)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(inner)))
	b = append(b, inner...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestFingerprintMatchesRealize checks the one-pass Fingerprint against
// the realize-based encoding on random queries over every preset: two-
// and three-IP splits, idle IPs, every run option, and invalid queries,
// which must fail with the same error.
func TestFingerprintMatchesRealize(t *testing.T) {
	presets := []sim.Config{sim.Snapdragon835(), sim.Snapdragon821(), sim.Snapdragon835Extended()}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 500; n++ {
		cfg := presets[rng.Intn(len(presets))]
		work := make([]IPWork, len(cfg.IPs))
		for i := range work {
			if rng.Intn(3) > 0 {
				work[i] = IPWork{Words: rng.Intn(1 << 22), FlopsPerWord: rng.Intn(513), Pattern: kernel.Pattern(rng.Intn(2))}
			}
		}
		q := Query{
			Chip:         cfg,
			Work:         work,
			Trials:       rng.Intn(5) - 1,
			Serialized:   rng.Intn(2) == 0,
			Coordination: rng.Intn(2) == 0,
			Thermal:      rng.Intn(2) == 0,
			MaxEvents:    rng.Intn(3) * 1000,
		}
		got, gotErr := Fingerprint(q)
		want, wantErr := fingerprintViaRealize(q)
		if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("query %d: Fingerprint = %q, %v; realize-based = %q, %v", n, got, gotErr, want, wantErr)
		}
	}
}

// TestFingerprintAllocs pins the allocation contract of the fingerprint
// path: eval.Fingerprint allocates only the returned string, and
// sim.AppendFingerprint into a buffer with room allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	cfg := sim.Snapdragon835()
	shapes := map[string][]Share{
		"two-ip":   {{IP: "GPU", Fraction: 0.5}, {IP: "CPU", Fraction: 0.5}},
		"three-ip": {{IP: "GPU", Fraction: 0.375}, {IP: "DSP", Fraction: 0.125}, {IP: "CPU", Fraction: 0.5}},
	}
	for name, shares := range shapes {
		work, err := SplitWork(cfg, 4<<20, 32, kernel.ReadWrite, shares)
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Chip: cfg, Work: work, Trials: DefaultTrials}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Fingerprint(q); err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("%s: eval.Fingerprint made %v allocations, want at most 1", name, got)
		}
		pq := NewPreset(cfg).Query()
		pq.Work, pq.Trials = q.Work, q.Trials
		want, _ := Fingerprint(q)
		if got, err := Fingerprint(pq); err != nil || got != want {
			t.Errorf("%s: eval.Fingerprint on a preset query = %s (%v), want %s", name, got, err, want)
		}

		as, opt, err := q.realize()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, sim.FingerprintLen)
		if got := testing.AllocsPerRun(100, func() {
			buf = sim.AppendFingerprint(buf[:0], cfg, as, opt)
		}); got != 0 {
			t.Errorf("%s: sim.AppendFingerprint made %v allocations, want 0", name, got)
		}
	}
}
