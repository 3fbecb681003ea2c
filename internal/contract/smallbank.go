package contract

import (
	"errors"
	"fmt"
)

// Smallbank implements the Smallbank OLTP workload as a contract: checking
// and savings accounts with six transaction profiles. Each transaction
// touches one or two accounts and enforces balance constraints — the
// "more constraints" property the paper credits for shrinking the
// blockchain/database gap under this workload.
type Smallbank struct{}

// SmallbankName is the registry key of the Smallbank contract.
const SmallbankName = "smallbank"

// Name implements Contract.
func (Smallbank) Name() string { return SmallbankName }

// Account key layout.
func savingsKey(id []byte) string  { return "sav:" + string(id) }
func checkingKey(id []byte) string { return "chk:" + string(id) }

// Invoke implements Contract. Methods follow the OLTPBench profile set:
//
//	create_account    id initChecking initSavings
//	transact_savings  id amount      (credit savings; reject overdraft)
//	deposit_checking  id amount
//	send_payment      src dst amount (checking → checking)
//	write_check       id amount      (debit checking, may overdraft fee)
//	amalgamate        src dst        (move all funds to dst checking)
//	query             id             (read both balances)
func (Smallbank) Invoke(stub *Stub, method string, args [][]byte) error {
	switch method {
	case "create_account":
		if len(args) != 3 {
			return fmt.Errorf("smallbank: create_account wants 3 args")
		}
		stub.PutState(checkingKey(args[0]), args[1])
		stub.PutState(savingsKey(args[0]), args[2])
		return nil

	case "transact_savings":
		if len(args) != 2 {
			return fmt.Errorf("smallbank: transact_savings wants 2 args")
		}
		sav := savingsKey(args[0])
		bal, err := readBalance(stub, sav)
		if err != nil {
			return err
		}
		amount := DecodeInt64(args[1])
		if bal+amount < 0 {
			return fmt.Errorf("%w: savings overdraft", ErrAbort)
		}
		stub.PutState(sav, EncodeInt64(bal+amount))
		return nil

	case "deposit_checking":
		if len(args) != 2 {
			return fmt.Errorf("smallbank: deposit_checking wants 2 args")
		}
		amount := DecodeInt64(args[1])
		if amount < 0 {
			return fmt.Errorf("%w: negative deposit", ErrAbort)
		}
		chk := checkingKey(args[0])
		bal, err := readBalance(stub, chk)
		if err != nil {
			return err
		}
		stub.PutState(chk, EncodeInt64(bal+amount))
		return nil

	case "send_payment":
		if len(args) != 3 {
			return fmt.Errorf("smallbank: send_payment wants 3 args")
		}
		amount := DecodeInt64(args[2])
		if amount <= 0 {
			return fmt.Errorf("%w: non-positive payment", ErrAbort)
		}
		srcKey, dstKey := checkingKey(args[0]), checkingKey(args[1])
		src, err := readBalance(stub, srcKey)
		if err != nil {
			return err
		}
		if src < amount {
			return fmt.Errorf("%w: insufficient funds", ErrAbort)
		}
		dst, err := readBalance(stub, dstKey)
		if err != nil {
			return err
		}
		stub.PutState(srcKey, EncodeInt64(src-amount))
		stub.PutState(dstKey, EncodeInt64(dst+amount))
		return nil

	case "write_check":
		if len(args) != 2 {
			return fmt.Errorf("smallbank: write_check wants 2 args")
		}
		amount := DecodeInt64(args[1])
		if amount <= 0 {
			return fmt.Errorf("%w: non-positive check", ErrAbort)
		}
		chkKey := checkingKey(args[0])
		chk, err := readBalance(stub, chkKey)
		if err != nil {
			return err
		}
		sav, err := readBalance(stub, savingsKey(args[0]))
		if err != nil {
			return err
		}
		// Smallbank semantics: a check beyond total funds incurs a $1
		// overdraft penalty but still debits checking.
		if chk+sav < amount {
			stub.PutState(chkKey, EncodeInt64(chk-amount-1))
		} else {
			stub.PutState(chkKey, EncodeInt64(chk-amount))
		}
		return nil

	case "amalgamate":
		if len(args) != 2 {
			return fmt.Errorf("smallbank: amalgamate wants 2 args")
		}
		savKey, chkKey, dstKey := savingsKey(args[0]), checkingKey(args[0]), checkingKey(args[1])
		sav, err := readBalance(stub, savKey)
		if err != nil {
			return err
		}
		chk, err := readBalance(stub, chkKey)
		if err != nil {
			return err
		}
		dst, err := readBalance(stub, dstKey)
		if err != nil {
			return err
		}
		stub.PutState(savKey, EncodeInt64(0))
		stub.PutState(chkKey, EncodeInt64(0))
		stub.PutState(dstKey, EncodeInt64(dst+sav+chk))
		return nil

	case "query":
		if len(args) != 1 {
			return fmt.Errorf("smallbank: query wants 1 arg")
		}
		if _, err := readBalance(stub, savingsKey(args[0])); err != nil {
			return err
		}
		_, err := readBalance(stub, checkingKey(args[0]))
		return err

	default:
		return fmt.Errorf("smallbank: unknown method %q", method)
	}
}

// readBalance reads an account balance; a missing account aborts the
// transaction (Smallbank assumes pre-populated accounts).
func readBalance(stub *Stub, key string) (int64, error) {
	v, err := stub.GetState(key)
	if errors.Is(err, ErrNotFound) {
		return 0, fmt.Errorf("%w: missing account %s", ErrAbort, key)
	}
	if err != nil {
		return 0, err
	}
	return DecodeInt64(v), nil
}
