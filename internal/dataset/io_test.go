package dataset

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"chainaudit/internal/obs"
	"chainaudit/internal/stats"
)

// TestQuarantineCleanInputMatchesStrictReader pins that the tolerant reader
// is a superset of ReadChainCSV: on undamaged input it quarantines nothing
// and reconstructs the identical chain.
func TestQuarantineCleanInputMatchesStrictReader(t *testing.T) {
	c := getA(t).Result.Chain
	var buf bytes.Buffer
	if err := WriteChainCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	strict, err := ReadChainCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q0 := obs.Default.Counter("degraded.dataset.quarantined").Value()
	tolerant, quarantined, err := ReadChainCSVQuarantine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("clean input quarantined %d records, first: %+v", len(quarantined), quarantined[0])
	}
	if d := obs.Default.Counter("degraded.dataset.quarantined").Value() - q0; d != 0 {
		t.Fatalf("clean input bumped the quarantine counter by %d", d)
	}
	if tolerant.Len() != strict.Len() || tolerant.TxCount() != strict.TxCount() {
		t.Fatalf("tolerant reader diverged on clean input: %d/%d blocks, %d/%d txs",
			tolerant.Len(), strict.Len(), tolerant.TxCount(), strict.TxCount())
	}
}

// TestQuarantineRecoversFromInjectedFaults writes a chain's clean CSV,
// damages a seeded ~3% of its rows each way (an unparseable txid, or the
// record cut short after the block context), and checks every damaged
// record lands in quarantine with a line number and reason while the rest
// of the data survives.
func TestQuarantineRecoversFromInjectedFaults(t *testing.T) {
	c := getA(t).Result.Chain
	var clean bytes.Buffer
	if err := WriteChainCSV(&clean, c); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&clean).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := 1; i < len(rows); i++ { // row 0 is the header
		switch u := rng.Float64(); {
		case u < 0.03:
			rows[i][4] = "deadbeef" // txid mangled: wrong length, unparseable
		case u < 0.06:
			rows[i] = rows[i][:4] // record cut short mid-write
		}
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	q0 := obs.Default.Counter("degraded.dataset.quarantined").Value()
	back, quarantined, err := ReadChainCSVQuarantine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) == 0 {
		t.Fatal("6% combined fault rate produced no quarantined records")
	}
	if d := obs.Default.Counter("degraded.dataset.quarantined").Value() - q0; d != int64(len(quarantined)) {
		t.Fatalf("counter delta %d != %d quarantined records", d, len(quarantined))
	}
	var sawCorrupt, sawTruncate bool
	for _, q := range quarantined {
		if q.Line < 2 {
			t.Fatalf("quarantined record with impossible line %d", q.Line)
		}
		if q.Reason == "" {
			t.Fatalf("quarantined record on line %d has no reason", q.Line)
		}
		if strings.Contains(q.Reason, "bad txid") {
			sawCorrupt = true
		}
		if strings.Contains(q.Reason, "columns, want") {
			sawTruncate = true
		}
	}
	if !sawCorrupt || !sawTruncate {
		t.Fatalf("fault mix not reflected in reasons (corrupt=%v truncate=%v)", sawCorrupt, sawTruncate)
	}
	if back.Len() == 0 {
		t.Fatal("recovered chain is empty")
	}
	if back.TxCount() >= c.TxCount() {
		t.Fatalf("damaged round trip lost no txs: %d vs %d", back.TxCount(), c.TxCount())
	}
	// Everything that did survive is structurally sound.
	blocks := back.Blocks()
	for i, b := range blocks {
		if len(b.Txs) == 0 || !b.Txs[0].IsCoinbase() {
			t.Fatalf("recovered block %d lacks a coinbase", b.Height)
		}
		if i > 0 && b.Height != blocks[i-1].Height+1 {
			t.Fatalf("recovered chain has a height gap at %d", b.Height)
		}
	}
}

// TestQuarantineReconstructsCoinbase damages exactly one coinbase row and
// checks the block is kept with a synthetic coinbase rebuilt from the block
// context its sibling rows carry.
func TestQuarantineReconstructsCoinbase(t *testing.T) {
	c := getA(t).Result.Chain
	var buf bytes.Buffer
	if err := WriteChainCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Find the second coinbase row (position column 0) so the damage lands
	// mid-chain, and mangle its txid.
	target := -1
	coinbases := 0
	for i := 1; i < len(lines); i++ {
		if strings.Split(lines[i], ",")[3] == "0" {
			coinbases++
			if coinbases == 2 {
				target = i
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no second coinbase row found")
	}
	fields := strings.Split(lines[target], ",")
	wantHeight, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantTag := fields[2]
	fields[4] = "zz"
	lines[target] = strings.Join(fields, ",")
	damaged := strings.Join(lines, "\n") + "\n"

	back, quarantined, err := ReadChainCSVQuarantine(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("coinbase damage cost blocks: %d vs %d", back.Len(), c.Len())
	}
	var sawBadTxid, sawRebuilt bool
	for _, q := range quarantined {
		if q.Line == target+1 && strings.Contains(q.Reason, "bad txid") {
			sawBadTxid = true
		}
		if strings.Contains(q.Reason, "coinbase reconstructed") {
			sawRebuilt = true
		}
	}
	if !sawBadTxid || !sawRebuilt {
		t.Fatalf("quarantine entries missing (bad txid=%v, rebuilt=%v): %+v", sawBadTxid, sawRebuilt, quarantined)
	}
	blk := back.BlockAt(wantHeight)
	if blk == nil {
		t.Fatalf("block %d missing after reconstruction", wantHeight)
	}
	cb := blk.Txs[0]
	if !cb.IsCoinbase() {
		t.Fatalf("block %d head is not a coinbase", wantHeight)
	}
	if cb.CoinbaseTag != wantTag {
		t.Fatalf("reconstructed coinbase tag %q, want %q", cb.CoinbaseTag, wantTag)
	}
}

// TestQuarantineStopsAtUnappendableBlock deletes an entire block from the
// CSV: reconstruction must stop before the hole instead of renumbering
// history, and everything after it is quarantined.
func TestQuarantineStopsAtUnappendableBlock(t *testing.T) {
	c := getA(t).Result.Chain
	if c.Len() < 4 {
		t.Fatal("need at least 4 blocks")
	}
	hole := c.Blocks()[2].Height
	var buf bytes.Buffer
	if err := WriteChainCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	holeStr := strconv.FormatInt(hole, 10)
	var kept []string
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if i > 0 && strings.Split(line, ",")[0] == holeStr {
			continue
		}
		kept = append(kept, line)
	}
	damaged := strings.Join(kept, "\n") + "\n"

	back, quarantined, err := ReadChainCSVQuarantine(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("chain past the hole: %d blocks, want 2", back.Len())
	}
	if tip := back.Tip(); tip.Height != hole-1 {
		t.Fatalf("tip %d, want %d", tip.Height, hole-1)
	}
	var sawUnappendable, sawAfter bool
	for _, q := range quarantined {
		if strings.Contains(q.Reason, "unappendable") {
			sawUnappendable = true
		}
		if q.Reason == "after unappendable block" {
			sawAfter = true
		}
	}
	if !sawUnappendable || !sawAfter {
		t.Fatalf("hole not reported (unappendable=%v after=%v)", sawUnappendable, sawAfter)
	}
}
