package consensus

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dichotomy/internal/israce"
)

// The window's admit-and-prune allocates nothing once the ring spans the
// spread of ids in flight.
func TestWindowAdmitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	var w Window
	var id uint64
	admit := func() {
		id++
		if !w.Admit(id+8, id) || w.Admit(id+8, id) {
			t.Fatalf("id %d: first copy refused or second admitted", id+8)
		}
	}
	admit()
	if got := testing.AllocsPerRun(1000, admit); got != 0 {
		t.Errorf("admit and prune: %v allocs, want 0", got)
	}
}

// A window restored from its checkpoint record and fed the rest of a log
// equals one fed the whole log (incremental = from scratch), admitting the
// same copies; the log is a proposer's ids and marks with copies of random
// earlier requests mixed in, across several growths of the ring.
func TestWindowRestoreEqualsFromScratch(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	type entry struct{ id, mark uint64 }
	var log []entry
	var inflight []uint64 // ascending
	for next := uint64(1); next <= 2000; {
		switch {
		case len(inflight) > 0 && rng.Intn(3) == 0: // a request finishes
			inflight = append(inflight[:0:0], inflight[1:]...)
			if rng.Intn(4) > 0 {
				i := rng.Intn(len(log))
				log = append(log, log[i]) // and a copy of an earlier one lands
			}
		default: // one is issued, its low-water mark the oldest in flight
			if rng.Intn(50) == 0 {
				next += 200 // ids drawn and given up on: the ring must grow
			}
			inflight = append(inflight, next)
			log = append(log, entry{next, inflight[0]})
			next++
		}
	}
	var scratch Window
	admitted := make([]bool, len(log))
	for i, e := range log {
		admitted[i] = scratch.Admit(e.id, e.mark)
	}
	for _, cut := range []int{0, 1, len(log) / 3, len(log) / 2, len(log) - 1} {
		var before, after Window
		for _, e := range log[:cut] {
			before.Admit(e.id, e.mark)
		}
		if err := after.Restore(before.Encode()); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i, e := range log[cut:] {
			if got := after.Admit(e.id, e.mark); got != admitted[cut+i] {
				t.Fatalf("cut %d: entry %d (%+v) admitted=%v, from scratch %v", cut, cut+i, e, got, admitted[cut+i])
			}
		}
		if !reflect.DeepEqual(after.Encode(), scratch.Encode()) {
			t.Fatalf("cut %d: restored window encodes differently from the one fed the whole log", cut)
		}
	}
	if err := new(Window).Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("restored a 3-byte record")
	}
}

// The proposer's hot path — issue, accepted, finish — allocates nothing
// once the table has held an entry.
func TestFlightAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	var f Flight[chan struct{}]
	entry := make([]byte, Header+8)
	ch := make(chan struct{})
	round := func() {
		id := f.Issue(entry, ch)
		f.Accepted(id)
		if w, ok := f.Finish(id); !ok || w != ch {
			t.Fatalf("id %d: Finish handed back %v, %v", id, w, ok)
		}
	}
	round()
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Errorf("Issue → Accepted → Finish: %v allocs, want 0", got)
	}
}

// header reads the id and mark Issue wrote.
func header(entry []byte) (id, mark uint64) {
	return binary.BigEndian.Uint64(entry), binary.BigEndian.Uint64(entry[8:])
}

// The mark is the smallest id still in flight: an accepted, unfinished id
// holds it however many later ids finish, and a finished or refused one
// lets it pass. Finish hands a waiter back once.
func TestFlightMarkIsLowestInFlight(t *testing.T) {
	var f Flight[int]
	issue := func(w int) (id, mark uint64) {
		entry := make([]byte, Header)
		got := f.Issue(entry, w)
		id, mark = header(entry)
		if got != id {
			t.Fatalf("Issue returned %d, header carries %d", got, id)
		}
		return id, mark
	}
	if id, mark := issue(1); id != 1 || mark != 1 {
		t.Fatalf("first entry: id %d mark %d, want 1 1", id, mark)
	}
	f.Accepted(1)
	issue(2)
	issue(3)
	if _, ok := f.Finish(3); !ok { // 3 committed
		t.Fatal("3 was not in flight")
	}
	if _, ok := f.Finish(2); !ok { // 2 refused
		t.Fatal("2 was not in flight")
	}
	if id, mark := issue(4); id != 4 || mark != 1 {
		t.Fatalf("with 1 accepted and unfinished: id %d mark %d, want 4 1", id, mark)
	}
	if w, ok := f.Finish(1); !ok || w != 1 {
		t.Fatalf("Finish(1) = %v, %v; want its waiter", w, ok)
	}
	if _, ok := f.Finish(1); ok {
		t.Fatal("Finish handed 1's waiter back twice")
	}
	if id, mark := issue(5); id != 5 || mark != 4 {
		t.Fatalf("with 1, 2, 3 finished: id %d mark %d, want 5 4", id, mark)
	}
	f.Finish(4)
	f.Finish(5)
	if id, mark := issue(6); mark != id {
		t.Fatalf("with nothing else in flight: id %d mark %d, want the id itself", id, mark)
	}
}

// Resend offers an accepted, unfinished entry again one or two laps after
// acceptance and every lap after that; it never offers an entry its
// proposer is still offering, nor a finished one.
func TestFlightResendOffersAcceptedEntriesOnly(t *testing.T) {
	var f Flight[struct{}]
	lost, pending, done := make([]byte, Header), make([]byte, Header), make([]byte, Header)
	lostID := f.Issue(lost, struct{}{})
	f.Issue(pending, struct{}{}) // never accepted
	doneID := f.Issue(done, struct{}{})
	f.Accepted(doneID)
	f.Finish(doneID)
	accepted := time.Now()
	f.Accepted(lostID)

	var offers []time.Duration // read once stop has waited for the lap
	stop := f.Resend(func(entry []byte) bool {
		if id, _ := header(entry); id != lostID {
			t.Errorf("Resend offered id %d", id)
		}
		offers = append(offers, time.Since(accepted))
		return true
	})
	time.Sleep(4*Lap + Lap/2)
	stop()
	if len(offers) < 2 || len(offers) > 3 {
		t.Fatalf("offered %d times in four and a half laps (at %v), want 2 or 3", len(offers), offers)
	}
	if offers[0] < Lap || offers[0] > 2*Lap+Lap/2 {
		t.Fatalf("first re-offer %v after acceptance, want one to two laps", offers[0])
	}
	if gap := offers[1] - offers[0]; gap < Lap/2 {
		t.Fatalf("second re-offer %v after the first, want about a lap", gap)
	}
}
