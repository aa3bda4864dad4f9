package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/noc"
	"github.com/gables-model/gables/internal/sim/thermal"
)

func fpKernel() kernel.Kernel {
	return kernel.Kernel{Name: "k", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite}
}

func fpBase() (Config, []Assignment, RunOptions) {
	return Snapdragon835(), []Assignment{{IP: "CPU", Kernel: fpKernel()}}, RunOptions{}
}

func TestFingerprintDeterministic(t *testing.T) {
	cfg, as, opt := fpBase()
	a := Fingerprint(cfg, as, opt)
	for i := 0; i < 100; i++ {
		if b := Fingerprint(cfg, as, opt); b != a {
			t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
		}
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
}

// TestFingerprintSensitivity mutates every semantically meaningful input
// one at a time and requires each mutation to move the key.
func TestFingerprintSensitivity(t *testing.T) {
	base, as, opt := fpBase()
	baseKey := Fingerprint(base, as, opt)

	mutations := map[string]func() string{
		"config name": func() string {
			c := base
			c.Name = "other"
			return Fingerprint(c, as, opt)
		},
		"dram bandwidth": func() string {
			c := base
			c.DRAMBandwidth *= 2
			return Fingerprint(c, as, opt)
		},
		"fabric bandwidth": func() string {
			c := base
			c.Fabrics = append([]noc.FabricSpec(nil), base.Fabrics...)
			c.Fabrics[0].Bandwidth *= 2
			return Fingerprint(c, as, opt)
		},
		"ip compute rate": func() string {
			c := base
			c.IPs = append([]IPSpec(nil), base.IPs...)
			c.IPs[0].ComputeRate *= 2
			return Fingerprint(c, as, opt)
		},
		"ip order": func() string {
			c := base
			c.IPs = append([]IPSpec(nil), base.IPs...)
			c.IPs[0], c.IPs[1] = c.IPs[1], c.IPs[0]
			return Fingerprint(c, as, opt)
		},
		"host": func() string {
			c := base
			c.Host = ""
			return Fingerprint(c, as, opt)
		},
		"thermal override": func() string {
			c := base
			tc := thermal.DefaultConfig()
			tc.ThrottleAt += 5
			c.Thermal = &tc
			return Fingerprint(c, as, opt)
		},
		"assignment ip": func() string {
			a2 := []Assignment{{IP: "GPU", Kernel: fpKernel()}}
			return Fingerprint(base, a2, opt)
		},
		"kernel working set": func() string {
			k := fpKernel()
			k.WorkingSet *= 2
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel trials": func() string {
			k := fpKernel()
			k.Trials++
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel flops per word": func() string {
			k := fpKernel()
			k.FlopsPerWord *= 2
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel pattern": func() string {
			k := fpKernel()
			k.Pattern = kernel.ReadOnly
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"assignment count": func() string {
			a2 := append([]Assignment{}, as...)
			a2 = append(a2, Assignment{IP: "GPU", Kernel: fpKernel()})
			return Fingerprint(base, a2, opt)
		},
		"coordination": func() string {
			return Fingerprint(base, as, RunOptions{Coordination: true})
		},
		"thermal option": func() string {
			return Fingerprint(base, as, RunOptions{Thermal: true})
		},
		"max events": func() string {
			return Fingerprint(base, as, RunOptions{MaxEvents: 1000})
		},
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		key := mutate()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
			continue
		}
		seen[key] = name
	}
}

// TestFingerprintLabelInsensitive pins the documented exclusions: the
// kernel's display name never splits cache entries, and string boundaries
// cannot be shifted to forge a collision.
func TestFingerprintLabelInsensitive(t *testing.T) {
	base, _, opt := fpBase()
	k1, k2 := fpKernel(), fpKernel()
	k2.Name = "a completely different label"
	a := Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k1}}, opt)
	b := Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k2}}, opt)
	if a != b {
		t.Error("kernel display name must not affect the fingerprint")
	}

	// Length-prefixing: moving a byte across a string boundary must not
	// collide ("CPUx" host vs "CPU" host with trailing data elsewhere).
	c1, c2 := base, base
	c1.Name, c1.Host = "chipA", "CPU"
	c2.Name, c2.Host = "chip", "ACPU"
	if Fingerprint(c1, nil, opt) == Fingerprint(c2, nil, opt) {
		t.Error("shifting bytes across string boundaries must change the key")
	}
}

// TestFingerprintMaxEventsNormalized pins the 0 → DefaultMaxEvents
// normalization: both spellings run the same schedule, so they share a key.
func TestFingerprintMaxEventsNormalized(t *testing.T) {
	base, as, _ := fpBase()
	implicit := Fingerprint(base, as, RunOptions{})
	explicit := Fingerprint(base, as, RunOptions{MaxEvents: DefaultMaxEvents})
	if implicit != explicit {
		t.Error("MaxEvents 0 and DefaultMaxEvents must share a fingerprint")
	}
}

// configLeaves returns a settable value and a path for every scalar field
// the fingerprint encodes, walking v's structs, slice elements and
// pointees: the complete set of fields a bit flip must be seen in.
func configLeaves(v reflect.Value, path string) (paths []string, leaves []reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := path + "." + f.Name
			if f.Anonymous {
				name = path
			}
			p, l := configLeaves(v.Field(i), name)
			paths, leaves = append(paths, p...), append(leaves, l...)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p, l := configLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			paths, leaves = append(paths, p...), append(leaves, l...)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return configLeaves(v.Elem(), path)
		}
	default:
		return []string{path}, []reflect.Value{v}
	}
	return paths, leaves
}

// flipBit flips the lowest bit of a scalar's encoding in place and
// returns the function that restores it.
func flipBit(t *testing.T, v reflect.Value) (restore func()) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(math.Float64frombits(math.Float64bits(old) ^ 1))
		return func() { v.SetFloat(old) }
	case reflect.Int:
		old := v.Int()
		v.SetInt(old ^ 1)
		return func() { v.SetInt(old) }
	case reflect.String:
		old := v.String()
		if old == "" {
			v.SetString("\x01")
		} else {
			b := []byte(old)
			b[0] ^= 1
			v.SetString(string(b))
		}
		return func() { v.SetString(old) }
	}
	t.Fatalf("no bit flip for a %s field; extend flipBit", v.Kind())
	return nil
}

// TestConfigEqualTracksFingerprint guards ConfigEqual, the structural
// identity check the midstate guard and the surrogate's chip lookup rely
// on, against drifting from the fingerprint. It flips a bit in every
// field the config half encodes, and changes every slice's length and
// the thermal pointer's presence, in place through the backing the
// prefix was built from. Each change must move the full fingerprint,
// break ConfigEqual, and make the prefix fall back to the full hash of
// the changed config instead of resuming from its stale midstate.
func TestConfigEqualTracksFingerprint(t *testing.T) {
	_, as, opt := fpBase()
	for _, preset := range []Config{Snapdragon835(), Snapdragon821(), Snapdragon835Extended()} {
		// A deep copy, so in-place flips never reach the presets'
		// shared thermal parameters.
		ref := cloneConfig(preset)
		p := NewFingerprintPrefix(ref)
		refFP := Fingerprint(ref, as, opt)
		if !ConfigEqual(ref, cloneConfig(preset)) {
			t.Fatalf("%s: identical configs compare unequal", ref.Name)
		}
		if got := string(p.AppendFingerprint(nil, ref, as, opt)); got != refFP {
			t.Fatalf("%s: resumed fingerprint %s, full %s", ref.Name, got, refFP)
		}
		check := func(t *testing.T) {
			t.Helper()
			full := Fingerprint(ref, as, opt)
			if full == refFP {
				t.Fatal("the change did not move the full fingerprint")
			}
			if ConfigEqual(ref, preset) {
				t.Fatal("the change moved the fingerprint but ConfigEqual still holds")
			}
			if got := string(p.AppendFingerprint(nil, ref, as, opt)); got != full {
				t.Fatalf("prefix answered %s, want the full hash %s", got, full)
			}
		}
		paths, leaves := configLeaves(reflect.ValueOf(&ref).Elem(), ref.Name)
		for i, leaf := range leaves {
			t.Run(paths[i], func(t *testing.T) {
				defer flipBit(t, leaf)()
				check(t)
			})
		}
		t.Run(ref.Name+".Fabrics-dropped", func(t *testing.T) {
			defer func(f []noc.FabricSpec) { ref.Fabrics = f }(ref.Fabrics)
			ref.Fabrics = ref.Fabrics[:len(ref.Fabrics)-1]
			check(t)
		})
		t.Run(ref.Name+".IPs-dropped", func(t *testing.T) {
			defer func(ips []IPSpec) { ref.IPs = ips }(ref.IPs)
			ref.IPs = ref.IPs[:len(ref.IPs)-1]
			check(t)
		})
		t.Run(ref.Name+".Thermal-toggled", func(t *testing.T) {
			defer func(tc *thermal.Config) { ref.Thermal = tc }(ref.Thermal)
			if ref.Thermal == nil {
				tc := thermal.DefaultConfig()
				ref.Thermal = &tc
			} else {
				ref.Thermal = nil
			}
			check(t)
		})
	}
}

// TestFingerprintPrefixMatchesFull pins the midstate path to the full
// hash over run halves of every shape, on a nil prefix too.
func TestFingerprintPrefixMatchesFull(t *testing.T) {
	cfg, as, _ := fpBase()
	p := NewFingerprintPrefix(cfg)
	k := fpKernel()
	runs := [][]Assignment{nil, as, {{IP: "GPU", Kernel: k}, {IP: "DSP", Kernel: k}, {IP: "CPU", Kernel: k}}}
	for _, run := range runs {
		for _, opt := range []RunOptions{{}, {Coordination: true, Thermal: true, MaxEvents: 7}} {
			want := Fingerprint(cfg, run, opt)
			if got := string(p.AppendFingerprint(nil, cfg, run, opt)); got != want {
				t.Errorf("%d assignments, %+v: resumed %s, full %s", len(run), opt, got, want)
			}
			var nilPrefix *FingerprintPrefix
			if got := string(nilPrefix.AppendFingerprint(nil, cfg, run, opt)); got != want {
				t.Errorf("%d assignments, %+v: nil prefix %s, full %s", len(run), opt, got, want)
			}
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	cfg, as, opt := fpBase()
	dst := make([]byte, 0, FingerprintLen)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AppendFingerprint(dst, cfg, as, opt)
		}
	})
	b.Run("prefix", func(b *testing.B) {
		p := NewFingerprintPrefix(cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.AppendFingerprint(dst, cfg, as, opt)
		}
	})
}
