package tidb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode"
	"unsafe"

	"dichotomy/internal/consensus"
	"dichotomy/internal/israce"
)

// The lexer and the region-command decoder as they were before they
// stopped materialising what they discard, kept verbatim as the
// reference the rewritten ones are fuzzed against.

func refLex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(input) {
					return nil, fmt.Errorf("sql: unterminated string at %d", i)
				}
				if input[j] == '\'' {
					if j+1 < len(input) && input[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String()})
			i = j + 1
		case c == '=' || c == '(' || c == ')' || c == ',' || c == ';' || c == '*':
			toks = append(toks, token{tokPunct, string(c)})
			i++
		case isIdentChar(c):
			j := i
			for j < len(input) && isIdentChar(input[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToUpper(input[i:j])})
			i = j
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	return append(toks, token{kind: tokEOF}), nil
}

func refDecodeRegionCmd(buf []byte) (*regionCmd[string], bool) {
	off := 0
	u8 := func() (byte, bool) {
		if off+1 > len(buf) {
			return 0, false
		}
		b := buf[off]
		off++
		return b, true
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(buf) {
			return 0, false
		}
		v := binary.BigEndian.Uint32(buf[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(buf) {
			return 0, false
		}
		v := binary.BigEndian.Uint64(buf[off:])
		off += 8
		return v, true
	}
	str := func() (string, bool) {
		n, ok := u32()
		if !ok || off+int(n) > len(buf) {
			return "", false
		}
		s := string(buf[off : off+int(n)])
		off += int(n)
		return s, true
	}

	cmd := &regionCmd[string]{}
	k, ok := u8()
	if !ok {
		return nil, false
	}
	cmd.kind = cmdKind(k)
	del, ok := u8()
	if !ok {
		return nil, false
	}
	cmd.del = del == 1
	if cmd.startTS, ok = u64(); !ok {
		return nil, false
	}
	if cmd.commitTS, ok = u64(); !ok {
		return nil, false
	}
	if cmd.key, ok = str(); !ok {
		return nil, false
	}
	if cmd.primary, ok = str(); !ok {
		return nil, false
	}
	hasValue, ok := u8()
	if !ok {
		return nil, false
	}
	if hasValue == 1 {
		n, ok := u32()
		if !ok || off+int(n) > len(buf) {
			return nil, false
		}
		cmd.value = make([]byte, n)
		copy(cmd.value, buf[off:])
		off += int(n)
	}
	return cmd, off == len(buf)
}

// benchValue is the benchmark's record shape: 1 KB, no quote in it.
var benchValue = strings.Repeat("v", 1024)

// benchUpdate and benchSelect are the two statements tidb-mixed runs.
var (
	benchUpdate = "UPDATE kv SET v = " + Quote(benchValue) + " WHERE k = " + Quote("user000000001234")
	benchSelect = "SELECT v FROM kv WHERE k = " + Quote("user000000001234")
)

func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range []string{
		benchUpdate, benchSelect,
		"INSERT INTO kv VALUES ('a', 'b');",
		"select * from Chk where K = 'x'", "uPdAtE kv sEt v = '' wHeRe k = 'k'",
		"'''start'", "'mid''dle'", "'end'''", "''", "''''", "''''''", "'a''''b'",
		"'unterminated", "'unterminated''", "'", "x'",
		"=(),;*", "a=b", "k-1:x_y", "SELECT\tv\nFROM\rkv\vWHERE\fk", "k\x85=\xa0'v'",
		"bad ! char", "\x00", "é",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := refLex(input)
		// Lexed the way Parse does: into a fixed array the stream may
		// outgrow.
		var buf [16]token
		got, gotErr := lex(buf[:0], input)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("lex(%q) error %v, reference %v", input, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q) = %d tokens, reference %d", input, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lex(%q) token %d = %+v, reference %+v", input, i, got[i], want[i])
			}
		}
	})
}

// body is the part of a command's log entry the codec owns: what follows
// the group's header.
func body[K string | []byte](cmd *regionCmd[K]) []byte {
	return encodeRegionCmd(cmd)[consensus.Header:]
}

func FuzzRegionCmdRoundTrip(f *testing.F) {
	prewrite := body(&regionCmd[string]{kind: cmdPrewrite, key: "kv/a", primary: "kv/p", value: []byte("val"), startTS: 9})
	commit := body(&regionCmd[string]{kind: cmdCommit, key: "kv/a", startTS: 9, commitTS: 11})
	for _, b := range [][]byte{
		prewrite, commit,
		body(&regionCmd[string]{kind: cmdPrewrite, key: "k", primary: "k", value: []byte{}}), // empty, not nil
		body(&regionCmd[string]{kind: cmdPrewrite, key: "k", primary: "k", del: true}),       // nil value
		body(&regionCmd[string]{kind: cmdRollback}),                                          // zero-length key and primary
		body(&regionCmd[string]{kind: cmdRawPut, key: "", primary: "p", value: []byte("v")}),
		append(bytes.Clone(prewrite), 0xff),                  // trailing garbage
		prewrite[:len(prewrite)-1],                           // value cut short
		prewrite[:regionCmdFixed+2],                          // klen cut short
		prewrite[:regionCmdFixed+4+4+2],                      // plen cut short
		commit[:len(commit)-1],                               // no hasValue byte
		append(bytes.Clone(commit[:len(commit)-1]), 1, 0, 0), // vlen cut short
		append(bytes.Clone(commit[:len(commit)-1]), 2),       // hasValue neither 0 nor 1
		{}, {0},
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantOK := refDecodeRegionCmd(b)
		got, ok := decodeRegionCmd(b)
		if ok != wantOK {
			t.Fatalf("decode(%x) accepted=%v, reference %v", b, ok, wantOK)
		}
		if !ok {
			return
		}
		if got.kind != want.kind || got.del != want.del ||
			got.startTS != want.startTS || got.commitTS != want.commitTS ||
			string(got.key) != want.key || string(got.primary) != want.primary ||
			!bytes.Equal(got.value, want.value) || (got.value == nil) != (want.value == nil) {
			t.Fatalf("decode(%x) = %+v, reference %+v", b, got, *want)
		}
		// Re-encoding is the canonical form: identical to the input
		// unless a flag byte was a non-canonical "false" (anything but 1
		// decodes false and encodes 0), and a fixed point either way.
		enc := body(&got)
		hasValueAt := regionCmdFixed + 4 + len(got.key) + 4 + len(got.primary)
		if b[1] <= 1 && b[hasValueAt] <= 1 && !bytes.Equal(enc, b) {
			t.Fatalf("encode(decode(%x)) = %x", b, enc)
		}
		again, ok := decodeRegionCmd(enc)
		if !ok || !bytes.Equal(body(&again), enc) {
			t.Fatalf("encode(decode(%x)) = %x does not round-trip", b, enc)
		}
	})
}

// TestCodecAndParseAllocs pins what one decoded command and one parsed
// statement may allocate.
func TestCodecAndParseAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	prewrite := body(&regionCmd[string]{kind: cmdPrewrite, key: "kv/user000000001234",
		primary: "kv/user000000000007", value: []byte(benchValue), startTS: 5})
	commit := body(&regionCmd[string]{kind: cmdCommit, key: "kv/user000000001234", startTS: 5, commitTS: 6})
	var cmd regionCmd[[]byte]
	var stmt Stmt
	for _, p := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// The one string key and primary share; the 1 KB value aliases
		// the entry.
		{"decode 1 KB prewrite", 1, func() { cmd, _ = decodeRegionCmd(prewrite) }},
		// The key string.
		{"decode commit", 1, func() { cmd, _ = decodeRegionCmd(commit) }},
		// The exactly-sized buffer, the group's header included.
		{"encode 1 KB prewrite", 1, func() { _ = encodeRegionCmd(&cmd) }},
		// "KV": the table name upper-cased. Tokens sit in Parse's stack
		// array, keywords lex to constants, one-letter column names to a
		// slice of one, and both literals are sliced out of the input.
		{"Parse 1 KB UPDATE", 1, func() { stmt, _ = Parse(benchUpdate) }},
		{"Parse SELECT", 1, func() { stmt, _ = Parse(benchSelect) }},
	} {
		if got := testing.AllocsPerRun(200, p.fn); got > p.max {
			t.Errorf("%s: %v allocs, want at most %v", p.name, got, p.max)
		}
	}
	if stmt.Key != "user000000001234" || string(cmd.key) != "kv/user000000001234" {
		t.Fatalf("pinned calls produced %+v, %+v", stmt, cmd)
	}
}

// TestReplicasDecodeValueWithoutCopy: the value a replica hands to mvcc
// is the raft entry's own bytes, not a copy of them.
func TestReplicasDecodeValueWithoutCopy(t *testing.T) {
	entry := body(&regionCmd[string]{kind: cmdPrewrite, key: "kv/a", primary: "kv/a", value: []byte(benchValue), startTS: 1})
	cmd, ok := decodeRegionCmd(entry)
	if !ok || string(cmd.value) != benchValue {
		t.Fatalf("decode: ok=%v, %d value bytes", ok, len(cmd.value))
	}
	tail := entry[len(entry)-len(benchValue):]
	if unsafe.SliceData(cmd.value) != unsafe.SliceData(tail) {
		t.Fatal("decoded value does not share the entry's backing array")
	}
	if cap(cmd.value) != len(cmd.value) {
		t.Fatalf("decoded value has cap %d beyond its %d bytes", cap(cmd.value), len(cmd.value))
	}

	// End to end: what a read returns after commit is still those bytes,
	// on every replica — raft hands all three the one proposed slice.
	c := clusterUp(t, Config{StorageNodes: 3, Regions: 1})
	if err := c.RawPut("kv/a", []byte(benchValue)); err != nil {
		t.Fatal(err)
	}
	var first *byte
	reg := c.regions[0]
	for i := 0; i < reg.Replicas(); i++ {
		for deadline := time.Now().Add(10 * time.Second); reg.Applied(i) < 1; {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never applied the entry", i)
			}
			time.Sleep(time.Millisecond)
		}
		v, err := reg.State(i).Get("kv/a", ^uint64(0))
		if err != nil || string(v) != benchValue {
			t.Fatalf("replica %d: %d bytes, %v", i, len(v), err)
		}
		if i == 0 {
			first = unsafe.SliceData(v)
		} else if unsafe.SliceData(v) != first {
			t.Fatalf("replica %d stores its own copy of the value", i)
		}
	}
}

// BenchmarkRegionCmdCodec is one command's trip through the log codec:
// encoded once by the proposer, decoded once per replica.
func BenchmarkRegionCmdCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		cmd  regionCmd[string]
	}{
		{"prewrite", regionCmd[string]{kind: cmdPrewrite, key: "kv/user000000001234",
			primary: "kv/user000000000007", value: []byte(benchValue), startTS: 5}},
		{"commit", regionCmd[string]{kind: cmdCommit, key: "kv/user000000001234", startTS: 5, commitTS: 6}},
	} {
		b.Run("shape="+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := decodeRegionCmd(body(&shape.cmd)); !ok {
					b.Fatal("round trip rejected")
				}
			}
		})
	}
}

// BenchmarkSQLParse is the front end's per-statement cost for the two
// statements tidb-mixed issues.
func BenchmarkSQLParse(b *testing.B) {
	for _, q := range []struct{ name, sql string }{{"update-1KB", benchUpdate}, {"select", benchSelect}} {
		b.Run("stmt="+q.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(q.sql)))
			for b.Loop() {
				if _, err := Parse(q.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
