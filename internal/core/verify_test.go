package core

import "testing"

func TestOverThreshold(t *testing.T) {
	// The slack is relative on large capacities: 1e-5 of round-off on a
	// 1e6-capacity link is not a violation...
	if overThreshold(1e6+1e-5, 1e6) {
		t.Fatal("1e-5 over a 1e6 capacity must be within tolerance")
	}
	// ...but the same absolute excess on a unit-capacity link is.
	if !overThreshold(1+1e-5, 1) {
		t.Fatal("1e-5 over a unit capacity must be a violation")
	}
	if overThreshold(1+1e-7, 1) {
		t.Fatal("1e-7 over a unit capacity must be within tolerance")
	}
	if overThreshold(0.5, 1) {
		t.Fatal("under-capacity load flagged")
	}
}
