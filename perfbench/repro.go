package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

// reproDigest is the SHA-256 of `gables-repro -j 1` stdout, recorded at
// commit 710932d; exit status 0 means all 64 checks passed across 33
// experiments.
const reproDigest = "619af06a385bbfed71492cbaa99ab32748d4cef7d3c82f1988e308890e5c64a3"

// cacheCounts are the simcache counters gables-repro -v prints.
type cacheCounts struct {
	hits, misses, coalesced int64
}

var statsLine = regexp.MustCompile(`sim-cache: hits=(\d+) disk_hits=\d+ misses=(\d+) coalesced=(\d+)`)

// runRepro executes one gables-repro -j 1 -v as a fresh, memory-cold
// process (the environment carries no GABLES_CACHE_DIR), checks its exit
// status and stdout digest, and returns its simcache counters.
func runRepro(ctx context.Context, bin string) (cacheCounts, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-j", "1", "-v")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return cacheCounts{}, fmt.Errorf("gables-repro: %w: %s", err, lastLine(stderr.Bytes()))
	}
	sum := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(sum[:]); got != reproDigest {
		return cacheCounts{}, fmt.Errorf("gables-repro stdout digest %s, want %s", got, reproDigest)
	}
	m := statsLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		return cacheCounts{}, fmt.Errorf("gables-repro -v printed no cache statistics: %s", lastLine(stderr.Bytes()))
	}
	var c cacheCounts
	c.hits, _ = strconv.ParseInt(string(m[1]), 10, 64) // the regexp admits digits only
	c.misses, _ = strconv.ParseInt(string(m[2]), 10, 64)
	c.coalesced, _ = strconv.ParseInt(string(m[3]), 10, 64)
	return c, nil
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// runSelf runs this binary as a child probe and returns its stdout.
func runSelf(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w: %s", args, err, lastLine(stderr.Bytes()))
	}
	return stdout.Bytes(), nil
}
