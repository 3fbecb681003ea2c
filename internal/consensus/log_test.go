package consensus

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dichotomy/internal/israce"
)

// held is a slice a caller took from the log, beside a copy of what it read
// then.
type held struct {
	got, want []LogEntry
}

func sameEntry(a, b LogEntry) bool { return a.Term == b.Term && string(a.Data) == string(b.Data) }

// The paged log equals a plain slice under thousands of random appends,
// truncations — at, just below and just above page boundaries as well as
// anywhere — and slices; and every slice taken from it, before any number
// of later truncations and appends, still reads what it read.
func TestLogMatchesSliceReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		var (
			l     Log
			ref   []LogEntry
			taken []held
			term  uint64
			most  int
		)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a run of appends, up to half a page
				for k := rng.Intn(LogPage / 2); k > 0; k-- {
					term++
					e := LogEntry{Term: term, Data: []byte{byte(term), byte(term >> 8)}}
					l.Append(e)
					ref = append(ref, e)
				}
			case op == 5:
				// A truncation within the last page, half the time at, just
				// below or just above a page boundary.
				i := uint64(max(0, len(ref)-rng.Intn(LogPage)))
				if rng.Intn(2) == 0 {
					i = uint64(max(0, int(i/LogPage)*LogPage+rng.Intn(3)-1))
				}
				l.Truncate(i)
				if i < uint64(len(ref)) {
					ref = ref[:i]
				}
			default: // a slice, kept to be read again later
				from := uint64(rng.Intn(len(ref) + 1))
				end := from + uint64(rng.Intn(LogPage/8))
				got := l.Slice(from, end)
				want := ref[from:min(end, uint64(len(ref)), (from/LogPage+1)*LogPage)]
				if cap(got) != len(got) {
					t.Fatalf("seed %d step %d: Slice(%d, %d) has cap %d beyond its %d", seed, step, from, end, cap(got), len(got))
				}
				taken = append(taken, held{got, slices.Clone(want)})
			}
			most = max(most, len(ref))
			if l.Len() != uint64(len(ref)) {
				t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, l.Len(), len(ref))
			}
			if len(ref) > 0 {
				i := uint64(rng.Intn(len(ref)))
				if e := l.At(i); !sameEntry(e, ref[i]) {
					t.Fatalf("seed %d step %d: At(%d) = %+v, reference %+v", seed, step, i, e, ref[i])
				}
			}
		}
		if most < 4*LogPage {
			t.Fatalf("seed %d: the log reached %d entries, under 4 pages", seed, most)
		}
		for i, e := range ref {
			if got := l.At(uint64(i)); !sameEntry(got, e) {
				t.Fatalf("seed %d: final At(%d) = %+v, reference %+v", seed, i, got, e)
			}
		}
		for k, h := range taken {
			if !slices.EqualFunc(h.got, h.want, sameEntry) {
				t.Fatalf("seed %d: slice %d of %d no longer reads what it read", seed, k, len(taken))
			}
		}
	}
}

// Appending 4 pages of entries to an empty log allocates the 4 pages and
// the page table's growth, at 1, 2 and 4 slots: no entry is ever copied.
func TestLogAppendAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	got := testing.AllocsPerRun(20, func() {
		var l Log
		for i := range uint64(4 * LogPage) {
			l.Append(LogEntry{Term: i})
		}
	})
	if got != 4+3 {
		t.Errorf("4 pages of appends: %v allocs, want 4 pages + 3 page-table growths", got)
	}
}

// BenchmarkLogAppend appends 4 pages of entries to an empty log per
// operation, and reports the bytes allocated per entry appended: a page's
// 32 bytes a slot, plus the page table's share.
func BenchmarkLogAppend(b *testing.B) {
	const entries = 4 * LogPage
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for range b.N {
		var l Log
		for i := range uint64(entries) {
			l.Append(LogEntry{Term: i})
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*entries), "B/entry")
}
