package sim

import (
	"testing"

	"github.com/gables-model/gables/internal/kernel"
)

// TestFingerprintGolden pins the exact hex of sim.Fingerprint for every
// chip preset on two run shapes. The keys address on-disk cache entries and
// calibration artifacts, so a change to the encoding that is not a
// deliberate FingerprintVersion bump must fail here, not orphan caches.
func TestFingerprintGolden(t *testing.T) {
	one := []Assignment{{IP: "CPU", Kernel: kernel.Kernel{
		Name: "k", WorkingSet: 1 << 22, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite,
	}}}
	two := []Assignment{
		{IP: "GPU", Kernel: kernel.Kernel{Name: "g", WorkingSet: 3 << 20, Trials: 3, FlopsPerWord: 512, Pattern: kernel.ReadOnly}},
		{IP: "CPU", Kernel: kernel.Kernel{Name: "c", WorkingSet: 1 << 20, Trials: 3, FlopsPerWord: 32, Pattern: kernel.StreamCopy}},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		as   []Assignment
		opt  RunOptions
		want string
	}{
		{"835/one", Snapdragon835(), one, RunOptions{}, "af9ba5ae07c42a8d35d112855304184f9dac185bde5d701228df4416460932f4"},
		{"835/two", Snapdragon835(), two, RunOptions{Coordination: true, Thermal: true, MaxEvents: 1 << 20}, "7b9ac248afd85b7232500127fb0e744e0c418f2d97a6a6acfe3f8f15a3c1ce17"},
		{"821/one", Snapdragon821(), one, RunOptions{}, "49010c0a2ae0f9e6e9169a3de00316abff2b71593154a73a3661baed52df005b"},
		{"821/two", Snapdragon821(), two, RunOptions{Coordination: true, Thermal: true, MaxEvents: 1 << 20}, "283414079d750b94ad1f17b1cdb214e655d77be9c7e51df62ce46d91a805f055"},
		{"835x/one", Snapdragon835Extended(), one, RunOptions{}, "36c2c25f76a5b8aba5d5c0d754ccfdf3023dc3999cfc44095dbee5bebf959126"},
		{"835x/two", Snapdragon835Extended(), two, RunOptions{Coordination: true, Thermal: true, MaxEvents: 1 << 20}, "bcdc96741d5455ada878068abce30fa74b31e9e42642c8216b450d403d5863e9"},
		{"835/no-work", Snapdragon835(), nil, RunOptions{}, "67c81a1abbe513a8d12d01c9e0193678657100f4c946778b78a39a84db2f85df"},
		{"835/no-thermal", noThermal(Snapdragon835()), one, RunOptions{}, "2e27f24020957a04116f96eacdae0d8515e72ee9d7310cccd71c21f96cc17c25"},
	} {
		if got := Fingerprint(tc.cfg, tc.as, tc.opt); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func noThermal(c Config) Config {
	c.Thermal = nil
	return c
}
