package wallet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"chainaudit/internal/chain"
)

func TestBase58KnownVectors(t *testing.T) {
	cases := []struct {
		raw  []byte
		want string
	}{
		{[]byte{}, ""},
		{[]byte{0}, "1"},
		{[]byte{0, 0, 0}, "111"},
		{[]byte{57}, "z"},
		{[]byte{0x61}, "2g"},
		{[]byte{0x62, 0x62, 0x62}, "a3gV"},
		{[]byte("hello world"), "StV1DL6CwTryKyV"},
		{[]byte{0x00, 0x01, 0x02}, "15T"},
	}
	for _, c := range cases {
		if got := Base58Encode(c.raw); got != c.want {
			t.Errorf("Base58Encode(%x) = %q, want %q", c.raw, got, c.want)
		}
		back, err := Base58Decode(c.want)
		if err != nil {
			t.Errorf("Base58Decode(%q): %v", c.want, err)
			continue
		}
		if !bytes.Equal(back, c.raw) {
			t.Errorf("round trip %x -> %q -> %x", c.raw, c.want, back)
		}
	}
}

func TestBase58RoundTripProperty(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		enc := Base58Encode(data)
		dec, err := Base58Decode(enc)
		return err == nil && bytes.Equal(dec, data)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBase58DecodeRejectsBadChars(t *testing.T) {
	for _, s := range []string{"0", "O", "I", "l", "ab0cd", "hello world"} {
		if _, err := Base58Decode(s); !errors.Is(err, ErrBase58) {
			t.Errorf("Base58Decode(%q) err = %v, want ErrBase58", s, err)
		}
	}
}

func TestBase58CheckRoundTrip(t *testing.T) {
	if err := quick.Check(func(version byte, payload []byte) bool {
		s := Base58CheckEncode(version, payload)
		v, p, err := Base58CheckDecode(s)
		return err == nil && v == version && bytes.Equal(p, payload)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBase58CheckDetectsCorruption(t *testing.T) {
	s := Base58CheckEncode(0, []byte("payload-bytes-here!!"))
	// Flip one character to another alphabet character.
	for i := 0; i < len(s); i++ {
		alt := byte('2')
		if s[i] == alt {
			alt = '3'
		}
		mut := s[:i] + string(alt) + s[i+1:]
		if _, _, err := Base58CheckDecode(mut); err == nil {
			t.Fatalf("corruption at %d undetected (%q -> %q)", i, s, mut)
		}
	}
	if _, _, err := Base58CheckDecode("11"); !errors.Is(err, ErrBase58) {
		t.Errorf("too-short input: %v", err)
	}
}

func TestDeriveAddressDeterministicDistinct(t *testing.T) {
	a := DeriveAddress("F2Pool/wallet/0")
	b := DeriveAddress("F2Pool/wallet/0")
	c := DeriveAddress("F2Pool/wallet/1")
	if a != b {
		t.Error("derivation not deterministic")
	}
	if a == c {
		t.Error("distinct seeds collided")
	}
	if !strings.HasPrefix(string(a), "1") {
		t.Errorf("P2PKH address %q should start with 1", a)
	}
	if !ValidAddress(a) {
		t.Errorf("derived address %q invalid", a)
	}
	if ValidAddress("not-an-address") || ValidAddress("") {
		t.Error("invalid strings accepted")
	}
	// Wrong version byte must be rejected.
	wrongVersion := chain.Address(Base58CheckEncode(0x05, bytes.Repeat([]byte{7}, 20)))
	if ValidAddress(wrongVersion) {
		t.Error("wrong version accepted")
	}
	// Wrong payload size must be rejected.
	shortPayload := chain.Address(Base58CheckEncode(0x00, bytes.Repeat([]byte{7}, 19)))
	if ValidAddress(shortPayload) {
		t.Error("short payload accepted")
	}
}

func TestBook(t *testing.T) {
	b := NewBook("SlushPool", 56)
	if b.Len() != 56 || b.owner != "SlushPool" {
		t.Fatalf("Len=%d Owner=%q", b.Len(), b.owner)
	}
	seen := make(map[chain.Address]bool)
	for _, a := range b.addrs {
		if !ValidAddress(a) {
			t.Fatalf("invalid address %q", a)
		}
		if seen[a] {
			t.Fatalf("duplicate address %q", a)
		}
		seen[a] = true
		if !b.Contains(a) {
			t.Fatalf("Contains missed %q", a)
		}
	}
	if b.Contains(DeriveAddress("other")) {
		t.Error("Contains false positive")
	}
	if b.At(3) != b.addrs[3] {
		t.Error("At mismatch")
	}
	if got := len(b.AsSet()); got != 56 {
		t.Errorf("AsSet size = %d", got)
	}
}

func TestBookPick(t *testing.T) {
	b := NewBook("Poolin", 23)
	if b.Pick(5) != b.Pick(5) {
		t.Error("Pick not deterministic")
	}
	// Many picks should cover multiple addresses.
	distinct := make(map[chain.Address]bool)
	for i := uint64(0); i < 500; i++ {
		a := b.Pick(i)
		if !b.Contains(a) {
			t.Fatalf("Pick returned foreign address %q", a)
		}
		distinct[a] = true
	}
	if len(distinct) < 10 {
		t.Errorf("Pick covered only %d of 23 addresses", len(distinct))
	}
	if (&Book{}).Pick(1) != "" {
		t.Error("empty book Pick should be empty")
	}
}

func TestBooksDisjointAcrossOwners(t *testing.T) {
	a := NewBook("PoolA", 30)
	b := NewBook("PoolB", 30)
	for _, addr := range a.addrs {
		if b.Contains(addr) {
			t.Fatalf("address %q in both books", addr)
		}
	}
}

// ValidAddress reports whether s parses as a Base58Check address with the
// P2PKH version byte and a 20-byte payload.
func ValidAddress(s chain.Address) bool {
	v, payload, err := Base58CheckDecode(string(s))
	return err == nil && v == P2PKHVersion && len(payload) == hash160Size
}
