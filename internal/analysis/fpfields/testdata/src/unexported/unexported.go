// Package unexported pins that the walk follows exported and embedded
// fields only: a struct reachable only through an unexported field is
// not encoded, so neither its unconsumed fields nor its shape show, and
// the lock below is the digest of Spec alone.
package unexported

import "fmt"

// FingerprintVersion versions the encoding.
//
//fp:lock v1 d3197e364292e702
const FingerprintVersion = 1

// Plan is a compiled speed-up the encoder never reads.
type Plan struct {
	Rate  float64
	Scale float64
}

// link reaches Plan, exported fields and all.
type link struct {
	Plan *Plan
	Note string
}

// Spec is the encoder's root struct; link and cache are unexported links
// to derived state, outside the key.
type Spec struct {
	Name  string
	Rate  float64
	link  *link
	cache map[string]Plan
}

// Fingerprint canonicalizes a Spec.
//
//fp:encoder
func Fingerprint(s Spec) string {
	return s.Name + fmt.Sprint(s.Rate)
}
