package wallet

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
)

// The Base58 decoder is the encoder's test oracle: the round-trip and
// checksum tests, and ValidAddress, decode what Base58CheckEncode produced.

var base58Index = func() [256]int8 {
	var idx [256]int8
	for i := range idx {
		idx[i] = -1
	}
	for i := 0; i < len(base58Alphabet); i++ {
		idx[base58Alphabet[i]] = int8(i)
	}
	return idx
}()

// ErrBase58 reports malformed Base58 input.
var ErrBase58 = errors.New("wallet: invalid base58")

// Base58Decode decodes a Base58 string, restoring leading zero bytes.
func Base58Decode(s string) ([]byte, error) {
	zeros := 0
	for zeros < len(s) && s[zeros] == '1' {
		zeros++
	}
	x := new(big.Int)
	radix := big.NewInt(58)
	for i := 0; i < len(s); i++ {
		d := base58Index[s[i]]
		if d < 0 {
			return nil, fmt.Errorf("%w: character %q at %d", ErrBase58, s[i], i)
		}
		x.Mul(x, radix)
		x.Add(x, big.NewInt(int64(d)))
	}
	body := x.Bytes()
	out := make([]byte, zeros+len(body))
	copy(out[zeros:], body)
	return out, nil
}

// ErrChecksum reports a Base58Check string whose checksum does not match.
var ErrChecksum = errors.New("wallet: base58check checksum mismatch")

// Base58CheckDecode decodes a Base58Check string, verifying the checksum and
// returning the version byte and payload.
func Base58CheckDecode(s string) (version byte, payload []byte, err error) {
	raw, err := Base58Decode(s)
	if err != nil {
		return 0, nil, err
	}
	if len(raw) < 5 {
		return 0, nil, fmt.Errorf("%w: too short (%d bytes)", ErrBase58, len(raw))
	}
	body, ck := raw[:len(raw)-4], raw[len(raw)-4:]
	want := checksum(body)
	if !bytes.Equal(ck, want[:]) {
		return 0, nil, ErrChecksum
	}
	return body[0], body[1:], nil
}
