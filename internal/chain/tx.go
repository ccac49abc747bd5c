// Package chain provides the Bitcoin-like ledger primitives the audit runs
// over: transactions with fees and virtual sizes, blocks with an explicit
// intra-block transaction order, the chain itself, the block subsidy
// schedule, and child-pays-for-parent (CPFP) dependency detection.
//
// The model intentionally keeps only what the paper's measurements consume:
// transaction identity, value flow between addresses, fee, virtual size,
// timing, and position inside a block. Scripts, witnesses, and signature
// validation are out of scope (the audit never inspects them).
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// Amount is a currency amount in satoshi. One BTC is 1e8 satoshi.
type Amount int64

// BTC is one bitcoin in satoshi.
const BTC Amount = 1e8

// BTCValue returns the amount denominated in BTC.
func (a Amount) BTCValue() float64 { return float64(a) / float64(BTC) }

// String renders the amount in BTC with full satoshi precision.
func (a Amount) String() string { return fmt.Sprintf("%.8f BTC", a.BTCValue()) }

// TxID is a transaction identifier: a 32-byte digest.
type TxID [32]byte

// String returns the hex encoding of the identifier.
func (id TxID) String() string { return hex.EncodeToString(id[:]) }

// Short returns the first 8 hex characters, for compact logs.
func (id TxID) Short() string { return hex.EncodeToString(id[:4]) }

// Address identifies a wallet. See package wallet for derivation and
// encoding; chain treats addresses as opaque comparable strings.
type Address string

// OutPoint references a specific output of a prior transaction.
type OutPoint struct {
	TxID  TxID
	Index uint32
}

// TxIn is a transaction input: the outpoint being spent and the address
// that controls it.
type TxIn struct {
	PrevOut OutPoint
	Address Address
	Value   Amount
}

// TxOut is a transaction output paying Value to Address.
type TxOut struct {
	Address Address
	Value   Amount
}

// Tx is a transaction. Fee and VSize are stored explicitly (they are what
// the fee-rate norm is defined over); ID is derived deterministically from
// the transaction's content.
type Tx struct {
	ID TxID
	// VSize is the virtual size in vbytes (BIP-141: one vbyte = four
	// weight units).
	VSize int64
	// Fee is the publicly offered transaction fee.
	Fee Amount
	// Time is when the transaction was first seen (broadcast time for
	// simulated workloads, Mempool arrival for observer data).
	Time time.Time
	// Inputs are empty exactly when the transaction is a coinbase.
	Inputs  []TxIn
	Outputs []TxOut
	// CoinbaseTag carries the mining pool's marker for coinbase
	// transactions and is empty otherwise.
	CoinbaseTag string
}

// SatPerVByte is a fee-rate in satoshi per virtual byte, the unit the
// GetBlockTemplate norm ranks by.
type SatPerVByte float64

// BTCPerKB converts the fee-rate to BTC per 1000 bytes, the unit the paper
// plots (1 sat/vB == 1e-5 BTC/KB).
func (r SatPerVByte) BTCPerKB() float64 { return float64(r) * 1000 / 1e8 }

// MinRelayFeeRate is Bitcoin Core's default minimum relay fee-rate
// (norm III's threshold): 1 sat/vB == 1e-5 BTC/KB.
const MinRelayFeeRate SatPerVByte = 1

// FeeRate returns the transaction's fee per virtual byte. A zero-vsize
// transaction (which Validate rejects) reports a zero rate rather than
// dividing by zero.
func (tx *Tx) FeeRate() SatPerVByte {
	if tx.VSize <= 0 {
		return 0
	}
	return SatPerVByte(float64(tx.Fee) / float64(tx.VSize))
}

// IsCoinbase reports whether the transaction is a coinbase (no inputs).
func (tx *Tx) IsCoinbase() bool { return len(tx.Inputs) == 0 }

// InputValue returns the total value consumed by the inputs.
func (tx *Tx) InputValue() Amount {
	var v Amount
	for _, in := range tx.Inputs {
		v += in.Value
	}
	return v
}

// OutputValue returns the total value produced by the outputs.
func (tx *Tx) OutputValue() Amount {
	var v Amount
	for _, out := range tx.Outputs {
		v += out.Value
	}
	return v
}

// Touches reports whether addr appears as a sender or receiver of the
// transaction. This is the paper's notion of a "self-interest" transaction
// when addr belongs to a mining pool operator.
func (tx *Tx) Touches(addr Address) bool {
	for _, in := range tx.Inputs {
		if in.Address == addr {
			return true
		}
	}
	for _, out := range tx.Outputs {
		if out.Address == addr {
			return true
		}
	}
	return false
}

// TouchesAny reports whether any address in the set is a party to the
// transaction.
func (tx *Tx) TouchesAny(set map[Address]bool) bool {
	for _, in := range tx.Inputs {
		if set[in.Address] {
			return true
		}
	}
	for _, out := range tx.Outputs {
		if set[out.Address] {
			return true
		}
	}
	return false
}

// ErrInvalidTx reports a malformed transaction.
var ErrInvalidTx = errors.New("chain: invalid transaction")

// Validate checks structural invariants: positive vsize, non-negative fee,
// and (for non-coinbase transactions) input value covering outputs plus fee.
func (tx *Tx) Validate() error {
	if tx.VSize <= 0 {
		return fmt.Errorf("%w %s: non-positive vsize %d", ErrInvalidTx, tx.ID.Short(), tx.VSize)
	}
	if tx.Fee < 0 {
		return fmt.Errorf("%w %s: negative fee %d", ErrInvalidTx, tx.ID.Short(), tx.Fee)
	}
	if tx.IsCoinbase() {
		return nil
	}
	if len(tx.Outputs) == 0 {
		return fmt.Errorf("%w %s: no outputs", ErrInvalidTx, tx.ID.Short())
	}
	if got, want := tx.InputValue(), tx.OutputValue()+tx.Fee; got != want {
		return fmt.Errorf("%w %s: inputs %d != outputs+fee %d", ErrInvalidTx, tx.ID.Short(), got, want)
	}
	return nil
}

// ComputeID derives and assigns the transaction identifier from the
// transaction's content (inputs, outputs, vsize, fee, tag, and time). It
// returns the identifier for convenience.
func (tx *Tx) ComputeID() TxID {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(tx.VSize))
	put(uint64(tx.Fee))
	put(uint64(tx.Time.UnixNano()))
	for _, in := range tx.Inputs {
		h.Write(in.PrevOut.TxID[:])
		put(uint64(in.PrevOut.Index))
		h.Write([]byte(in.Address))
		put(uint64(in.Value))
	}
	for _, out := range tx.Outputs {
		h.Write([]byte(out.Address))
		put(uint64(out.Value))
	}
	h.Write([]byte(tx.CoinbaseTag))
	copy(tx.ID[:], h.Sum(nil))
	return tx.ID
}
