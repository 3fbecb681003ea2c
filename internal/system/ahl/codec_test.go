package ahl

import (
	"bytes"
	"reflect"
	"testing"

	"dichotomy/internal/consensus"
	"dichotomy/internal/txn"
)

// codecCases covers every kind, both verdicts, nil against empty byte
// slices, and empty lists.
var codecCases = []shardCmd{
	{kind: cmdExecute, inv: txn.Invocation{Contract: "kv", Method: "put", Args: [][]byte{[]byte("k"), []byte("v")}}},
	{kind: cmdExecute, inv: txn.Invocation{Contract: "smallbank", Method: "balance", Args: [][]byte{{}, nil}}},
	{kind: cmdPrepare, txID: "x1", writes: []txn.Write{{Key: "a", Value: []byte("1")}, {Key: "b"}, {Key: "", Value: []byte{}}}},
	{kind: cmdFinish, txID: "x1", commitP: true},
	{kind: cmdFinish, txID: "x2"},
	{},
}

// body is cmd's encoded body, after the header.
func body(cmd *shardCmd) []byte { return encodeShardCmd(cmd)[consensus.Header:] }

func TestShardCmdRoundTrip(t *testing.T) {
	for _, want := range codecCases {
		got, ok := decodeShardCmd(body(&want))
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", want, got, ok)
		}
	}
}

// FuzzShardCmdRoundTrip feeds arbitrary bodies to the decoder: it never
// panics, and a body it accepts is canonical — encoding the command
// reproduces it byte for byte, and decoding that gives the command back.
func FuzzShardCmdRoundTrip(f *testing.F) {
	for _, cmd := range codecCases {
		b := body(&cmd)
		f.Add(b)
		f.Add(b[:len(b)-1])              // cut short
		f.Add(append(bytes.Clone(b), 0)) // trailing garbage
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0})                                                             // no such kind
	f.Add([]byte{0, 2})                                                             // verdict neither 0 nor 1
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // a list longer than the body
	f.Fuzz(func(t *testing.T, b []byte) {
		cmd, ok := decodeShardCmd(b)
		if !ok {
			return
		}
		enc := body(&cmd)
		if !bytes.Equal(enc, b) {
			t.Fatalf("encode(decode(%x)) = %x", b, enc)
		}
		if again, ok := decodeShardCmd(enc); !ok || !reflect.DeepEqual(again, cmd) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", cmd, again, ok)
		}
	})
}
