// Package wallet provides address derivation and encoding for the simulated
// ledger: Base58Check encoding (implemented from scratch), deterministic
// hash160-style address derivation, and keyed wallet books used to model
// mining pools' many reward addresses (the paper's Figure 8 reports up to 56
// distinct reward addresses per pool).
package wallet

import (
	"crypto/sha256"
	"math/big"
)

// base58Alphabet is Bitcoin's Base58 alphabet (no 0, O, I, l).
const base58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

// Base58Encode encodes data in Base58, preserving leading zero bytes as
// leading '1' characters.
func Base58Encode(data []byte) string {
	zeros := 0
	for zeros < len(data) && data[zeros] == 0 {
		zeros++
	}
	x := new(big.Int).SetBytes(data)
	radix := big.NewInt(58)
	mod := new(big.Int)
	// Upper bound on output length: log58(256) ≈ 1.37 chars per byte.
	out := make([]byte, 0, len(data)*14/10+zeros+1)
	for x.Sign() > 0 {
		x.DivMod(x, radix, mod)
		out = append(out, base58Alphabet[mod.Int64()])
	}
	for i := 0; i < zeros; i++ {
		out = append(out, '1')
	}
	// Digits were produced least-significant first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

// checksum returns the first four bytes of SHA-256(SHA-256(payload)).
func checksum(payload []byte) [4]byte {
	h1 := sha256.Sum256(payload)
	h2 := sha256.Sum256(h1[:])
	var c [4]byte
	copy(c[:], h2[:4])
	return c
}

// Base58CheckEncode encodes version || payload || checksum in Base58.
func Base58CheckEncode(version byte, payload []byte) string {
	buf := make([]byte, 0, 1+len(payload)+4)
	buf = append(buf, version)
	buf = append(buf, payload...)
	ck := checksum(buf)
	buf = append(buf, ck[:]...)
	return Base58Encode(buf)
}
