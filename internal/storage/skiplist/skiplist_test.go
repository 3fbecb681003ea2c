package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	l := New()
	l.Put([]byte("a"), []byte("1"))
	v, ok := l.Get([]byte("a"))
	if !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := l.Get([]byte("b")); ok {
		t.Fatal("absent key found")
	}
}

func TestOverwriteKeepsLen(t *testing.T) {
	l := New()
	l.Put([]byte("k"), []byte("v1"))
	l.Put([]byte("k"), []byte("v2"))
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	v, _ := l.Get([]byte("k"))
	if !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get = %q, want v2", v)
	}
}

func TestDeleteTombstone(t *testing.T) {
	l := New()
	l.Put([]byte("k"), []byte("v"))
	l.Delete([]byte("k"))
	if _, ok := l.Get([]byte("k")); ok {
		t.Fatal("deleted key visible through Get")
	}
	_, tomb, found := l.GetEntry([]byte("k"))
	if !found || !tomb {
		t.Fatalf("GetEntry tomb=%v found=%v, want true,true", tomb, found)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
}

func TestDeleteThenPutResurrects(t *testing.T) {
	l := New()
	l.Put([]byte("k"), []byte("v1"))
	l.Delete([]byte("k"))
	l.Put([]byte("k"), []byte("v2"))
	v, ok := l.Get([]byte("k"))
	if !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get = %q,%v, want v2", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestDeleteAbsentKeyCreatesTombstone(t *testing.T) {
	l := New()
	l.Delete([]byte("ghost"))
	_, tomb, found := l.GetEntry([]byte("ghost"))
	if !found || !tomb {
		t.Fatal("tombstone for never-written key missing")
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
}

func TestIterationSorted(t *testing.T) {
	l := New()
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", rng.Intn(10000))
		l.Put([]byte(keys[i]), []byte("v"))
	}
	uniq := map[string]bool{}
	for _, k := range keys {
		uniq[k] = true
	}
	it := l.NewIterator(nil)
	var got []string
	for it.Next() {
		got = append(got, string(it.Item().Key))
	}
	if len(got) != len(uniq) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(uniq))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("iteration not sorted")
	}
}

func TestIteratorStart(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	it := l.NewIterator([]byte("k05"))
	var got []string
	for it.Next() {
		got = append(got, string(it.Item().Key))
	}
	if len(got) != 5 || got[0] != "k05" {
		t.Fatalf("got %v, want k05..k09", got)
	}
}

func TestIteratorStartBetweenKeys(t *testing.T) {
	l := New()
	l.Put([]byte("a"), []byte("1"))
	l.Put([]byte("c"), []byte("3"))
	it := l.NewIterator([]byte("b"))
	if !it.Next() || string(it.Item().Key) != "c" {
		t.Fatal("start between keys should land on next key")
	}
}

// TestKeyCopiedOnInsert pins the list's half of the storage ownership
// rule: it keeps the value slice it is handed, but copies the key, so a
// caller may reuse (or view) the key's bytes.
func TestKeyCopiedOnInsert(t *testing.T) {
	l := New()
	k, v := []byte("k"), []byte("value")
	l.Put(k, v)
	k[0] = 'X'
	got, ok := l.Get([]byte("k"))
	if !ok {
		t.Fatal("list aliases caller's key slice: entry lost under its original key")
	}
	if &got[0] != &v[0] {
		t.Fatal("list copied the value it was handed")
	}
	if _, ok := l.Get(k); ok {
		t.Fatal("entry found under the overwritten key")
	}
}

func TestBytesAccounting(t *testing.T) {
	l := New()
	l.Put([]byte("kk"), []byte("vvvv"))
	if l.Bytes() != 6 {
		t.Fatalf("Bytes = %d, want 6", l.Bytes())
	}
	l.Put([]byte("kk"), []byte("v"))
	if l.Bytes() != 3 {
		t.Fatalf("Bytes after overwrite = %d, want 3", l.Bytes())
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	l := New()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				l.Get([]byte(fmt.Sprintf("k%05d", i%100)))
				it := l.NewIterator(nil)
				for j := 0; j < 10 && it.Next(); j++ {
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
}

func TestConcurrentWriters(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Put([]byte(fmt.Sprintf("w%d-k%d", w, i)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 8*500 {
		t.Fatalf("Len = %d, want 4000", l.Len())
	}
}

func TestQuickModelMatch(t *testing.T) {
	type op struct {
		Key byte
		Del bool
	}
	f := func(ops []op) bool {
		l := New()
		model := map[string]bool{}
		for i, o := range ops {
			k := []byte{o.Key}
			if o.Del {
				l.Delete(k)
				delete(model, string(k))
			} else {
				l.Put(k, []byte{byte(i)})
				model[string(k)] = true
			}
		}
		for k := range model {
			if _, ok := l.Get([]byte(k)); !ok {
				return false
			}
		}
		return l.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
