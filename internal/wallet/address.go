package wallet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"chainaudit/internal/chain"
)

// P2PKHVersion is the mainnet pay-to-pubkey-hash address version byte
// ("1..." addresses).
const P2PKHVersion byte = 0x00

// hash160Size is the payload length of a P2PKH address. Real Bitcoin uses
// RIPEMD160(SHA256(pubkey)); RIPEMD-160 is not in the Go standard library,
// so we truncate a double SHA-256 to the same 20 bytes. Address uniqueness
// and encoding shape are identical.
const hash160Size = 20

// DeriveAddress derives a deterministic P2PKH-style address from an
// arbitrary seed (e.g., "F2Pool/payout/3"). The same seed always yields the
// same address.
func DeriveAddress(seed string) chain.Address {
	h1 := sha256.Sum256([]byte(seed))
	h2 := sha256.Sum256(h1[:])
	return chain.Address(Base58CheckEncode(P2PKHVersion, h2[:hash160Size]))
}

// Book is a deterministic collection of addresses controlled by one owner,
// such as a mining pool's set of reward wallets.
type Book struct {
	owner string
	addrs []chain.Address
	index map[chain.Address]bool
}

// NewBook derives n addresses for the named owner.
func NewBook(owner string, n int) *Book {
	b := &Book{owner: owner, index: make(map[chain.Address]bool, n)}
	for i := 0; i < n; i++ {
		a := DeriveAddress(fmt.Sprintf("%s/wallet/%d", owner, i))
		b.addrs = append(b.addrs, a)
		b.index[a] = true
	}
	return b
}

// Len returns the number of addresses.
func (b *Book) Len() int { return len(b.addrs) }

// At returns the i-th derived address.
//
//lint:allow deadcode seam: the miner tests pay from a chosen pool wallet (TestSelfInterestPromotesOwnTx, TestColludePromotesPartnerTx)
func (b *Book) At(i int) chain.Address { return b.addrs[i] }

// Contains reports whether the address belongs to the book.
//
//lint:allow deadcode seam: the miner and workload tests check payout ownership with it (TestHonestPoolBuildsValidOrderedBlock, TestPoolPayout)
func (b *Book) Contains(a chain.Address) bool { return b.index[a] }

// Pick returns a pseudo-random (but deterministic in its argument) address
// from the book: used to spread coinbase payouts across a pool's wallets
// the way the paper observes (Figure 8a).
func (b *Book) Pick(n uint64) chain.Address {
	if len(b.addrs) == 0 {
		return ""
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n)
	h := sha256.Sum256(append([]byte(b.owner), buf[:]...))
	return b.addrs[binary.LittleEndian.Uint64(h[:8])%uint64(len(b.addrs))]
}

// AsSet returns the membership set keyed by address. The map is shared and
// must not be modified.
func (b *Book) AsSet() map[chain.Address]bool { return b.index }
