package miner

import (
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

var baseTime = time.Unix(1_600_000_000, 0)

func mkTx(fee chain.Amount, vsize int64, nonce uint16, from, to chain.Address) *chain.Tx {
	tx := &chain.Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  baseTime,
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: chain.TxID{byte(nonce), byte(nonce >> 8), 0xCC}, Index: 0},
			Address: from,
			Value:   chain.BTC + fee,
		}},
		Outputs: []chain.TxOut{{Address: to, Value: chain.BTC}},
	}
	tx.ComputeID()
	return tx
}

func entriesFor(t *testing.T, txs ...*chain.Tx) []*mempool.Entry {
	t.Helper()
	p := mempool.New(mempool.WithMinFeeRate(0))
	for i, tx := range txs {
		if err := p.Add(tx, baseTime.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	return p.Entries()
}

func TestHonestPoolBuildsValidOrderedBlock(t *testing.T) {
	p := NewPool("F2Pool", "/F2Pool/", 0.17, 3)
	low := mkTx(1_000, 1000, 1, "a", "b")
	high := mkTx(50_000, 1000, 2, "c", "d")
	entries := entriesFor(t, low, high)

	b := p.BuildBlock(650_000, baseTime.Add(time.Hour), entries, [32]byte{}, 0)
	if err := b.Validate(); err != nil {
		t.Fatalf("block invalid: %v", err)
	}
	if len(b.Body()) != 2 {
		t.Fatalf("body = %d", len(b.Body()))
	}
	if b.Body()[0].ID != high.ID {
		t.Error("honest block not fee-rate ordered")
	}
	if b.MinerTag() != "/F2Pool/Mined by F2Pool" {
		t.Errorf("tag = %q", b.MinerTag())
	}
	if !p.Wallets.Contains(b.RewardAddress()) {
		t.Error("reward paid to foreign address")
	}
	if got := b.Coinbase().OutputValue(); got != chain.Subsidy(650_000)+51_000 {
		t.Errorf("coinbase pays %d", got)
	}
}

func TestSelfInterestPromotesOwnTx(t *testing.T) {
	p := NewPool("ViaBTC", "/ViaBTC/", 0.07, 3).PrioritizeOwnWallets()
	own := mkTx(100, 1000, 1, p.Wallets.At(0), "user") // 0.1 sat/vB: would be last
	rich := mkTx(90_000, 1000, 2, "a", "b")
	mid := mkTx(40_000, 1000, 3, "c", "d")
	entries := entriesFor(t, own, rich, mid)

	b := p.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if b.Body()[0].ID != own.ID {
		t.Error("own transaction not promoted to top")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// An honest pool leaves it at the bottom.
	h := NewPool("Honest", "/H/", 0.1, 1)
	hb := h.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if hb.Body()[len(hb.Body())-1].ID != own.ID {
		t.Error("honest pool should leave the low-fee tx last")
	}
}

func TestColludePromotesPartnerTx(t *testing.T) {
	partner := NewPool("SlushPool", "/SlushPool/", 0.04, 5)
	p := NewPool("ViaBTC", "/ViaBTC/", 0.07, 3).ColludeWith(partner)
	partnerTx := mkTx(100, 1000, 1, partner.Wallets.At(2), "user")
	rich := mkTx(90_000, 1000, 2, "a", "b")
	entries := entriesFor(t, partnerTx, rich)

	b := p.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if b.Body()[0].ID != partnerTx.ID {
		t.Error("partner transaction not promoted")
	}
}

func TestDarkFeePromotesAccelerated(t *testing.T) {
	accelerated := map[chain.TxID]bool{}
	p := NewPool("BTC.com", "/BTC.com/", 0.12, 3).
		SellAcceleration(func(id chain.TxID) bool { return accelerated[id] })

	slow := mkTx(100, 1000, 1, "u1", "u2") // 0.1 sat/vB
	rich := mkTx(90_000, 1000, 2, "a", "b")
	accelerated[slow.ID] = true
	entries := entriesFor(t, slow, rich)

	b := p.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if b.Body()[0].ID != slow.ID {
		t.Error("accelerated transaction not promoted")
	}
}

func TestCensorDropsBlacklisted(t *testing.T) {
	scamAddr := chain.Address("scammer-wallet")
	p := NewPool("CensorPool", "/CP/", 0.1, 1).CensorAddresses(scamAddr)
	scam := mkTx(80_000, 1000, 1, "victim", scamAddr)
	normal := mkTx(40_000, 1000, 2, "a", "b")
	entries := entriesFor(t, scam, normal)

	b := p.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if len(b.Body()) != 1 || b.Body()[0].ID != normal.ID {
		t.Error("blacklisted transaction not censored")
	}
}

func TestCensorDropsDescendants(t *testing.T) {
	scamAddr := chain.Address("scammer-wallet")
	parent := mkTx(60_000, 500, 1, "victim", scamAddr)
	child := &chain.Tx{
		VSize: 300,
		Fee:   30_000,
		Time:  baseTime.Add(time.Second),
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: parent.ID, Index: 0},
			Address: scamAddr,
			Value:   chain.BTC,
		}},
		Outputs: []chain.TxOut{{Address: "launder", Value: chain.BTC - 30_000}},
	}
	child.ComputeID()
	// Note: the child touches the blacklist via its input address anyway;
	// make a grandchild that does not touch it directly.
	grand := &chain.Tx{
		VSize: 300,
		Fee:   20_000,
		Time:  baseTime.Add(2 * time.Second),
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: child.ID, Index: 0},
			Address: "launder",
			Value:   chain.BTC - 30_000,
		}},
		Outputs: []chain.TxOut{{Address: "clean", Value: chain.BTC - 50_000}},
	}
	grand.ComputeID()

	p := NewPool("CensorPool", "/CP/", 0.1, 1).CensorAddresses(scamAddr)
	entries := entriesFor(t, parent, child, grand)
	b := p.BuildBlock(650_000, baseTime, entries, [32]byte{}, 0)
	if len(b.Body()) != 0 {
		t.Errorf("censored chain leaked %d txs", len(b.Body()))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPromotePreservesDependencies(t *testing.T) {
	// Promoted child drags its unpromoted parent along, parent first.
	parent := mkTx(90_000, 500, 1, "a", "b")
	child := &chain.Tx{
		VSize: 300,
		Fee:   100,
		Time:  baseTime.Add(time.Second),
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: parent.ID, Index: 0},
			Address: "b",
			Value:   chain.BTC,
		}},
		Outputs: []chain.TxOut{{Address: "own-pool-wallet", Value: chain.BTC - 100}},
	}
	child.ComputeID()
	rich := mkTx(95_000, 400, 2, "x", "y")

	tpl := gbt.FeeRate{}.Build(entriesFor(t, parent, child, rich), chain.MaxBlockVSize)
	got := promote(tpl, func(tx *chain.Tx) bool {
		return tx.Touches("own-pool-wallet")
	})
	if got.Txs[0].ID != parent.ID || got.Txs[1].ID != child.ID {
		t.Error("promotion broke dependency order")
	}
	if got.Txs[2].ID != rich.ID {
		t.Error("unpromoted tx misplaced")
	}
	if got.TotalFee != tpl.TotalFee || got.VSize != tpl.VSize {
		t.Error("promotion changed totals")
	}
}

func TestPromoteNoMatchesIsIdentity(t *testing.T) {
	a := mkTx(1000, 100, 1, "a", "b")
	tpl := gbt.FeeRate{}.Build(entriesFor(t, a), chain.MaxBlockVSize)
	got := promote(tpl, func(*chain.Tx) bool { return false })
	if len(got.Txs) != 1 || got.Txs[0].ID != a.ID {
		t.Error("no-match promotion altered template")
	}
	empty := promote(gbt.Template{}, func(*chain.Tx) bool { return true })
	if len(empty.Txs) != 0 {
		t.Error("empty template promotion")
	}
}

func TestBehaviorNames(t *testing.T) {
	for _, b := range []Behavior{Honest{}, SelfInterest{}, DarkFee{}, Censor{}} {
		if b.Name() == "" {
			t.Error("empty behavior name")
		}
	}
	// Honest is a strict no-op.
	tpl := gbt.Template{TotalFee: 5}
	if got := (Honest{}).Apply(tpl, &Context{}); got.TotalFee != 5 {
		t.Error("honest not identity")
	}
	// Behaviors without configuration are no-ops.
	if got := (SelfInterest{}).Apply(tpl, &Context{}); got.TotalFee != 5 {
		t.Error("unconfigured self-interest not identity")
	}
	if got := (DarkFee{}).Apply(tpl, &Context{}); got.TotalFee != 5 {
		t.Error("unconfigured dark-fee not identity")
	}
	if got := (Censor{}).Apply(tpl, &Context{}); got.TotalFee != 5 {
		t.Error("unconfigured censor not identity")
	}
}

func TestEnsureBehaviorNoDuplicates(t *testing.T) {
	p := NewPool("X", "/X/", 0.1, 2)
	p.PrioritizeOwnWallets()
	p.ColludeWith(NewPool("Y", "/Y/", 0.1, 2))
	if len(p.Behaviors) != 1 {
		t.Errorf("behaviors duplicated: %d", len(p.Behaviors))
	}
}

func TestSchedulerHashRateShares(t *testing.T) {
	pools := []*Pool{
		NewPool("A", "/A/", 0.5, 1),
		NewPool("B", "/B/", 0.3, 1),
		NewPool("C", "/C/", 0.18, 1),
	}
	s, err := NewScheduler(pools, stats.NewRNG(123))
	if err != nil {
		t.Fatal(err)
	}
	if s.unknown == nil {
		t.Fatal("residual pool missing")
	}
	counts := map[string]int{}
	n := 50_000
	for i := 0; i < n; i++ {
		counts[s.PickWinner().Name]++
	}
	wantShares := map[string]float64{"A": 0.5, "B": 0.3, "C": 0.18, "Unknown": 0.02}
	for name, want := range wantShares {
		got := float64(counts[name]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s share = %v, want ~%v", name, got, want)
		}
	}
}

func TestSchedulerInterArrival(t *testing.T) {
	pools := []*Pool{NewPool("A", "/A/", 1.0, 1)}
	s, err := NewScheduler(pools, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if s.unknown != nil {
		t.Error("full-rate roster should have no residual pool")
	}
	now := baseTime
	var sum time.Duration
	n := 20_000
	for i := 0; i < n; i++ {
		next, pool := s.NextBlockAfter(now)
		if !next.After(now) {
			t.Fatal("non-advancing clock")
		}
		if pool.Name != "A" {
			t.Fatal("wrong winner")
		}
		sum += next.Sub(now)
		now = next
	}
	mean := sum / time.Duration(n)
	if mean < 9*time.Minute || mean > 11*time.Minute {
		t.Errorf("mean inter-block = %v, want ~10m", mean)
	}
	// Compressed time must respect the override.
	s.SetMeanInterval(time.Second)
	next, _ := s.NextBlockAfter(now)
	if next.Sub(now) > time.Minute {
		t.Errorf("compressed interval = %v", next.Sub(now))
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil, stats.NewRNG(1)); err == nil {
		t.Error("empty pools accepted")
	}
	bad := []*Pool{NewPool("A", "/A/", -0.1, 1)}
	if _, err := NewScheduler(bad, stats.NewRNG(1)); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPoolDefaultPolicy(t *testing.T) {
	p := &Pool{Name: "Bare", Marker: "/B/", HashRate: 0.1, Wallets: NewPool("Bare", "/B/", 0, 1).Wallets}
	b := p.BuildBlock(100, baseTime, entriesFor(t, mkTx(10_000, 500, 1, "a", "b")), [32]byte{}, 0)
	if len(b.Body()) != 1 {
		t.Error("nil policy did not default")
	}
}
