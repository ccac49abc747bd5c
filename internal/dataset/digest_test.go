package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
	"time"

	"chainaudit/internal/chain"
)

// pinnedDigestC is the simDigest of BuildC(seed 11, 8 h). A run compared
// only with itself cannot catch a counter that drifts alike in both runs;
// this constant pins the simulator's output across changes to its hot
// paths (the pool's running vsize total and its top fee-rate scan). Change
// it only with a change that means to alter the simulation. It was computed
// on linux/amd64; an architecture that fuses floating-point multiply-adds
// may legitimately simulate a different world.
const pinnedDigestC = "4aa4e3805b80ad07d4e998460a0cfc44c5496f642f0cb189e6e6e5f89078efaa"

// TestBuildCPinnedDigest hashes one fixed-seed data set C build: block
// hashes, the issued-transaction count, every observer's admission-time
// congestion and 15 s mempool-size series, and every dark-fee quote (each
// priced against the pool's top fee-rate).
func TestBuildCPinnedDigest(t *testing.T) {
	ds, err := BuildC(Options{Seed: 11, Duration: 8 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	quotes := 0
	for _, recs := range ds.Result.Truth.Accelerated {
		quotes += len(recs)
	}
	if quotes == 0 {
		t.Fatal("no dark-fee quote in the build: the digest would not cover the top fee-rate scan")
	}
	if got := simDigest(ds); got != pinnedDigestC {
		t.Fatalf("data set C digest = %s, pinned %s", got, pinnedDigestC)
	}
}

func simDigest(ds *Dataset) string {
	res := ds.Result
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, b := range res.Chain.Blocks() {
		h.Write(b.Hash[:])
	}
	num(int64(res.TxIssued))
	obsNames := make([]string, 0, len(res.Observers))
	for name := range res.Observers {
		obsNames = append(obsNames, name)
	}
	sort.Strings(obsNames)
	for _, name := range obsNames {
		o := res.Observers[name]
		h.Write([]byte(name))
		ids := make([]chain.TxID, 0, len(o.Seen))
		for id := range o.Seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
		for _, id := range ids {
			h.Write(id[:])
			num(int64(o.Seen[id].Congestion))
		}
		for _, s := range o.Summaries {
			num(s.TotalVSize)
		}
	}
	pools := make([]string, 0, len(res.Truth.Accelerated))
	for pool := range res.Truth.Accelerated {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	for _, pool := range pools {
		h.Write([]byte(pool))
		for _, r := range res.Truth.Accelerated[pool] {
			h.Write(r.TxID[:])
			num(int64(r.DarkFee))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
