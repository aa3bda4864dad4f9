package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/simcache"
)

// manifestPath pins the bytes of a full `gables-repro -dir DIR -csv` run:
// one "<sha256>  <name>" line for stdout (with the -dir path written as
// DIR) and for each file the run writes, in `sha256sum -c` format. A
// change that means to move the paper's output regenerates it from the
// repository root with
//
//	d=$(mktemp -d) && go run ./cmd/gables-repro -dir "$d" -csv | sed "s|$d|DIR|g" > "$d/stdout" &&
//		(cd "$d" && sha256sum -- *) > cmd/gables-repro/testdata/manifest
//
// and says why in CHANGES.md.
const manifestPath = "testdata/manifest"

// TestRunMatchesManifest regenerates the whole paper on a cold simulation
// cache and a wide pool, and compares stdout and every artifact with the
// committed digests, so a failure names the figure or table that moved.
func TestRunMatchesManifest(t *testing.T) {
	simcache.ResetDefault()
	var out bytes.Buffer
	dir := t.TempDir()
	if err := run(&out, options{dir: dir, csv: true, jobs: 8}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	got := map[string]string{"stdout": digest([]byte(strings.ReplaceAll(out.String(), dir, "DIR")))}
	files := readAll(t, dir)
	for _, name := range sortedKeys(files) {
		got[name] = digest(files[name])
	}

	want := readManifest(t)
	for _, name := range sortedKeys(want) {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: in the manifest but not written", name)
		case g != want[name]:
			t.Errorf("%s: sha256 %s, manifest %s", name, g, want[name])
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not in the manifest", name)
		}
	}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func readManifest(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", manifestPath, line)
		}
		want[name] = sum
	}
	return want
}
