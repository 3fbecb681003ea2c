package consensus

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"
)

// The exactly-once primitive both re-proposing logs share — the shared log
// of Fabric's ordering service and the database side's raft groups. A
// command accepted by a leader that is deposed (or crashes, or drops the
// forward) before replicating it is gone, so the proposer keeps it in
// flight and proposes it again until its first copy commits; a merely slow
// one then sits in the log twice, and only the first committed copy
// counts. Two halves:
//
//   - The proposer's Flight issues each entry a request id and a low-water
//     mark, written into the entry's Header, holds it until Finish, and
//     Resend offers an accepted entry again each Lap it stays unfinished.
//   - The consumer's Window — the sequencer, or each replica's apply loop —
//     reads the header and admits each id's first copy only.
//
// The mark rule is safe because an id is in flight from the instant it is
// issued until it finishes, so an entry whose mark passed id X was issued
// after X finished — after X's first copy committed, at a lower index, or
// X was refused and never entered the log — and any copy of X behind it is
// a duplicate. The filter reads nothing but the log, so every consumer of
// one log drops the same copies.

// Header is how many leading bytes of each entry the primitive owns: the
// request id, then the low-water mark, big-endian u64 each.
const Header = 16

// Lap is how long an accepted entry may stay unfinished before Resend
// offers it again.
const Lap = 100 * time.Millisecond

// Flight is a proposer's in-flight table: every entry issued and not yet
// finished, with the waiter W its owner hands back on Finish. The zero
// value is ready to use.
type Flight[W any] struct {
	mu   sync.Mutex
	m    map[uint64]inflight[W]
	last uint64 // the newest id issued
	low  uint64 // the mark: the smallest id still in flight, or last
	lap  uint64 // laps Resend has begun
}

// inflight is one issued entry: its bytes, header written, the lap from
// which Resend offers it (zero until a member has accepted it — an entry
// still being offered by its proposer is not Resend's), and its waiter.
type inflight[W any] struct {
	entry []byte
	due   uint64
	w     W
}

// Issue draws a fresh id, writes it and the mark — the smallest id still in
// flight, this one included — into entry[:Header], and records the entry
// with its waiter w. One step under the lock, because an id drawn but not
// yet recorded would be invisible to a faster proposer's mark, which could
// then pass it. The mark advances over each finished id once, so the scan
// is amortised O(1).
func (f *Flight[W]) Issue(entry []byte, w W) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[uint64]inflight[W])
	}
	f.last++
	id := f.last
	f.m[id] = inflight[W]{entry: entry, w: w}
	for f.low < id {
		if _, live := f.m[f.low]; live {
			break
		}
		f.low++
	}
	binary.BigEndian.PutUint64(entry, id)
	binary.BigEndian.PutUint64(entry[8:], f.low)
	return id
}

// Accepted records that a member took id's entry: from the lap after next —
// at least a Lap from now — Resend offers it until it finishes.
func (f *Flight[W]) Accepted(id uint64) {
	f.mu.Lock()
	if e, ok := f.m[id]; ok {
		e.due = f.lap + 2
		f.m[id] = e
	}
	f.mu.Unlock()
}

// Finish takes id out of flight and hands its waiter back — once: a later
// Finish of the same id, from a second copy or a racing give-up, reports
// false. The owner finishes an id when its first copy commits and when it
// gives the entry up, refused or timed out.
func (f *Flight[W]) Finish(id uint64) (W, bool) {
	f.mu.Lock()
	e, ok := f.m[id]
	if ok {
		delete(f.m, id)
	}
	f.mu.Unlock()
	return e.w, ok
}

// Resend starts the re-proposal lap: every Lap it hands offer — the owner's
// propose path — each entry a member accepted at least a lap ago and that
// has not finished, then waits a lap before offering it again.
// Whichever member leads by then sequences it; the consumers' windows drop
// any copy that commits beside the first. offer's verdict is not needed:
// an entry no member took is due again the next lap, like one that was
// taken and lost. A proposer that starts no lap proposes each entry once.
// The returned stop ends the lap and waits for it; calling it again does
// nothing.
func (f *Flight[W]) Resend(offer func(entry []byte) bool) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(Lap)
		defer tick.Stop()
		var due [][]byte
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			due = due[:0]
			f.mu.Lock()
			f.lap++
			for id, e := range f.m {
				if e.due != 0 && e.due <= f.lap {
					e.due = f.lap + 1
					f.m[id] = e
					due = append(due, e.entry)
				}
			}
			f.mu.Unlock()
			for _, entry := range due {
				offer(entry)
			}
		}
	}()
	return sync.OnceFunc(func() { close(quit); <-exited })
}

// Window is one consumer's exactly-once filter: it admits the first copy of
// each request id and refuses every later one. floor is the highest mark
// applied: every id below it has finished, so none applies again. The ring
// holds the applied ids at or above it, id in slot id mod len(ring), and
// grows only when the spread of ids above the floor would wrap it, so a
// steady load allocates nothing. Raising the floor prunes nothing eagerly:
// an id below it left in a slot is ignored, then overwritten by the id
// that maps there next, so Admit is O(1) amortised over growth. The
// content is a function of the log prefix alone, and Encode's form is
// canonical, so consumers that applied one prefix — from scratch or from a
// checkpoint — encode alike.
type Window struct {
	mu    sync.Mutex // Admit runs on the apply loop, Encode anywhere
	floor uint64
	ring  []uint64 // ids start at 1: an empty slot holds none
}

// Admit reports whether id's entry is its request's first copy, and if so
// records id and raises the floor to mark (a mark never passes its own id).
func (w *Window) Admit(id, mark uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id < w.floor {
		return false
	}
	if id-w.floor >= uint64(len(w.ring)) {
		ids := w.ids()
		w.ring = make([]uint64, max(2*len(w.ring), 64, int(id-w.floor+1)))
		for _, held := range ids {
			w.ring[held%uint64(len(w.ring))] = held
		}
	}
	slot := &w.ring[id%uint64(len(w.ring))]
	if *slot == id {
		return false
	}
	*slot = id
	w.floor = max(w.floor, min(mark, id))
	return true
}

// ids returns the applied ids at or above the floor, ascending.
func (w *Window) ids() []uint64 {
	var out []uint64
	for _, id := range w.ring {
		if id != 0 && id >= w.floor {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Encode returns the window's canonical form: the floor, then ids(),
// big-endian u64 each.
func (w *Window) Encode() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := binary.BigEndian.AppendUint64(nil, w.floor)
	for _, id := range w.ids() {
		out = binary.BigEndian.AppendUint64(out, id)
	}
	return out
}

// Restore loads Encode's form into an empty window.
func (w *Window) Restore(b []byte) error {
	if len(b) < 8 || len(b)%8 != 0 {
		return errors.New("consensus: corrupt window record")
	}
	w.floor = binary.BigEndian.Uint64(b)
	for b = b[8:]; len(b) > 0; b = b[8:] {
		w.Admit(binary.BigEndian.Uint64(b), 0)
	}
	return nil
}
