package poolid

import (
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
)

func testBlock(t *testing.T, height int64, tag string, bodyTxs int) *chain.Block {
	t.Helper()
	cb := &chain.Tx{
		VSize:       120,
		Time:        time.Unix(1_600_000_000+height*600, 0),
		Outputs:     []chain.TxOut{{Address: chain.Address("addr-" + tag), Value: chain.Subsidy(height)}},
		CoinbaseTag: tag,
	}
	cb.ComputeID()
	txs := []*chain.Tx{cb}
	for i := 0; i < bodyTxs; i++ {
		tx := &chain.Tx{
			VSize: 200,
			Fee:   chain.Amount(100 + i),
			Time:  cb.Time,
			Inputs: []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: chain.TxID{byte(height), byte(height >> 8), byte(i), 0xF0}},
				Address: "u",
				Value:   chain.BTC + chain.Amount(100+i),
			}},
			Outputs: []chain.TxOut{{Address: "v", Value: chain.BTC}},
		}
		tx.Time = tx.Time.Add(time.Duration(height*1000+int64(i)) * time.Millisecond)
		tx.ComputeID()
		txs = append(txs, tx)
	}
	b := &chain.Block{Height: height, Time: cb.Time, Txs: txs}
	b.ComputeHash([32]byte{})
	if err := b.Validate(); err != nil {
		t.Fatalf("test block invalid: %v", err)
	}
	return b
}

func TestRegistryAttribute(t *testing.T) {
	r := DefaultRegistry()
	cases := []struct{ tag, want string }{
		{"/F2Pool/Mined by xyz", "F2Pool"},
		{"prefix /ViaBTC/ suffix", "ViaBTC"},
		{"/1THash&58Coin/", "1THash&58Coin"},
		{"", Unknown},
		{"/SomeRandomMiner/", Unknown},
	}
	for _, c := range cases {
		if got := r.Attribute(c.tag); got != c.want {
			t.Errorf("Attribute(%q) = %q, want %q", c.tag, got, c.want)
		}
	}
}

func TestRegistryLongestMatchWins(t *testing.T) {
	r := NewRegistry([]Marker{
		{Substring: "/BTC.com/", Pool: "BTC.com"},
		{Substring: "/BTC.com/fast/", Pool: "BTC.com-fast"},
	})
	if got := r.Attribute("xx /BTC.com/fast/ yy"); got != "BTC.com-fast" {
		t.Errorf("longest match = %q", got)
	}
	if got := r.Attribute("xx /BTC.com/ yy"); got != "BTC.com" {
		t.Errorf("short match = %q", got)
	}
}

func TestRosterSane(t *testing.T) {
	roster := Roster()
	if len(roster) != 20 {
		t.Fatalf("roster size = %d, want 20", len(roster))
	}
	sum := 0.0
	names := make(map[string]bool)
	markers := make(map[string]bool)
	for i, p := range roster {
		if p.HashRate <= 0 || p.Wallets < 1 || p.Name == "" || p.Marker == "" {
			t.Errorf("pool %d malformed: %+v", i, p)
		}
		if i > 0 && roster[i].HashRate > roster[i-1].HashRate {
			t.Errorf("roster not sorted at %d", i)
		}
		if names[p.Name] || markers[p.Marker] {
			t.Errorf("duplicate name/marker at %d", i)
		}
		names[p.Name] = true
		markers[p.Marker] = true
		sum += p.HashRate
	}
	// Top-20 account for ~98% of blocks in data set C.
	if sum < 0.95 || sum > 1.0 {
		t.Errorf("roster hash rates sum to %v, want ~0.98", sum)
	}
	// Paper values spot checks.
	byName := make(map[string]Pool)
	for _, p := range roster {
		byName[p.Name] = p
	}
	if r := byName["F2Pool"].HashRate; r != 0.1753 {
		t.Errorf("F2Pool rate = %v", r)
	}
	if r := byName["ViaBTC"].HashRate; r != 0.0676 {
		t.Errorf("ViaBTC rate = %v", r)
	}
	if w := byName["SlushPool"].Wallets; w != 56 {
		t.Errorf("SlushPool wallets = %d", w)
	}
}

func TestEstimateShares(t *testing.T) {
	c := chain.New()
	// 6 F2Pool blocks, 3 ViaBTC, 1 unknown.
	h := int64(0)
	for i := 0; i < 6; i++ {
		if err := c.Append(testBlock(t, h, "/F2Pool/", 2)); err != nil {
			t.Fatal(err)
		}
		h++
	}
	for i := 0; i < 3; i++ {
		if err := c.Append(testBlock(t, h, "/ViaBTC/", 1)); err != nil {
			t.Fatal(err)
		}
		h++
	}
	if err := c.Append(testBlock(t, h, "???", 0)); err != nil {
		t.Fatal(err)
	}

	shares := EstimateShares(c, DefaultRegistry())
	if len(shares) != 3 {
		t.Fatalf("shares = %+v", shares)
	}
	if shares[0].Pool != "F2Pool" || shares[0].Blocks != 6 || shares[0].Txs != 12 {
		t.Errorf("first share = %+v", shares[0])
	}
	if math.Abs(shares[0].HashRate-0.6) > 1e-12 {
		t.Errorf("F2Pool rate = %v", shares[0].HashRate)
	}
	if got := HashRateOf(shares, "ViaBTC"); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ViaBTC rate = %v", got)
	}
	if got := HashRateOf(shares, "Nobody"); got != 0 {
		t.Errorf("missing pool rate = %v", got)
	}

	top := TopShares(shares, 10)
	for _, s := range top {
		if s.Pool == Unknown {
			t.Error("TopShares leaked Unknown")
		}
	}
	if len(top) != 2 {
		t.Errorf("TopShares = %+v", top)
	}
	if one := TopShares(shares, 1); len(one) != 1 || one[0].Pool != "F2Pool" {
		t.Errorf("TopShares(1) = %+v", one)
	}
}

func TestRewardAddresses(t *testing.T) {
	c := chain.New()
	c.Append(testBlock(t, 0, "/F2Pool/", 0))
	c.Append(testBlock(t, 1, "/F2Pool/", 0))
	c.Append(testBlock(t, 2, "/ViaBTC/", 0))
	got := RewardAddresses(c, DefaultRegistry())
	if len(got["F2Pool"]) != 1 {
		t.Errorf("F2Pool addresses = %v", got["F2Pool"])
	}
	if len(got["ViaBTC"]) != 1 {
		t.Errorf("ViaBTC addresses = %v", got["ViaBTC"])
	}
}

func TestEstimateSharesEmptyChain(t *testing.T) {
	if got := EstimateShares(chain.New(), DefaultRegistry()); len(got) != 0 {
		t.Errorf("empty chain shares = %+v", got)
	}
}
