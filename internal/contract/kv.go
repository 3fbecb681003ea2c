package contract

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KV is the YCSB-style key-value contract: reads, writes, and
// read-modify-write over opaque records. Both blockchains deploy it for
// the YCSB experiments; the databases serve the same operations natively.
type KV struct{}

// KVName is the registry key of the KV contract.
const KVName = "kv"

// Name implements Contract.
func (KV) Name() string { return KVName }

// Invoke implements Contract. Methods:
//
//	get    key                 → reads key
//	put    key value           → writes key
//	modify key value           → read-modify-write (YCSB update)
//	multi  k1 v1 k2 v2 ...     → read-modify-write over several records
func (KV) Invoke(stub *Stub, method string, args [][]byte) error {
	switch method {
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("kv: get wants 1 arg, got %d", len(args))
		}
		_, err := stub.GetState(stub.Key("", args[0]))
		if errors.Is(err, ErrNotFound) {
			return nil // reading an absent key is not an error for YCSB
		}
		return err
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("kv: put wants 2 args, got %d", len(args))
		}
		stub.PutState(stub.Key("", args[0]), args[1])
		return nil
	case "modify":
		if len(args) != 2 {
			return fmt.Errorf("kv: modify wants 2 args, got %d", len(args))
		}
		key := stub.Key("", args[0])
		if _, err := stub.GetState(key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		stub.PutState(key, args[1])
		return nil
	case "multi":
		if len(args) == 0 || len(args)%2 != 0 {
			return fmt.Errorf("kv: multi wants key/value pairs, got %d args", len(args))
		}
		for i := 0; i < len(args); i += 2 {
			key := stub.Key("", args[i])
			if _, err := stub.GetState(key); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
			stub.PutState(key, args[i+1])
		}
		return nil
	default:
		return fmt.Errorf("kv: unknown method %q", method)
	}
}

// EncodeInt64 renders a counter value for contract arguments and state.
func EncodeInt64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeInt64 parses a counter value; absent/short values read as zero.
func DecodeInt64(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}
