package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/stream"
)

// oracleCheckpoint is walCheckpoint without its UnmarshalJSON method, so
// encoding/json decodes it by reflection: the behaviour the checkpoint
// reader must reproduce.
type oracleCheckpoint walCheckpoint

// oracleEncodeCheckpoint is the checkpoint writer before the append
// encoder: the captured state flattened into a full walCheckpoint — blocks
// as FrameBlock frames, the ledger's rows and every map-backed list
// sorted — and encoded by json.Marshal, plus a newline. It leaves c as it
// is.
func oracleEncodeCheckpoint(c *ckptState) ([]byte, error) {
	ck := c.head
	ck.Blocks = []BlockFrame{}
	for _, b := range c.blocks {
		ck.Blocks = append(ck.Blocks, FrameBlock(b))
	}
	ck.FirstSeen, ck.SourceSeen = oracleLedgerRows(c.seen)
	ck.Sources = c.seen.Sources()
	for _, s := range c.shares {
		ck.Shares = append(ck.Shares, ckptShare{Pool: s.Pool, Blocks: s.Blocks, Txs: s.Txs})
	}
	for _, e := range c.rewardAddrs {
		addrs := slices.Clone(e.Addrs)
		sort.Strings(addrs)
		ck.RewardAddrs = append(ck.RewardAddrs, ckptAddrs{Pool: e.Pool, Addrs: addrs})
	}
	sort.Slice(ck.RewardAddrs, func(i, j int) bool { return ck.RewardAddrs[i].Pool < ck.RewardAddrs[j].Pool })
	ck.Owners = slices.Clone(c.owners)
	sort.Slice(ck.Owners, func(i, j int) bool { return ck.Owners[i].Addr < ck.Owners[j].Addr })
	for _, s := range c.selfSets {
		e := ckptSelfSet{Pool: s.pool}
		for _, id := range s.ids {
			e.IDs = append(e.IDs, id.String())
		}
		sort.Strings(e.IDs)
		ck.SelfSets = append(ck.SelfSets, e)
	}
	sort.Slice(ck.SelfSets, func(i, j int) bool { return ck.SelfSets[i].Pool < ck.SelfSets[j].Pool })
	raw, err := json.Marshal(&ck)
	return append(raw, '\n'), err
}

// oracleLedgerRows flattens an arrival ledger into the checkpoint's two
// lists: the merged sightings and the per-source rows, each sorted by the
// transaction ID's hex string, a row's sources by name. A list with no
// entry is nil, so it is left out of the encoding.
func oracleLedgerRows(l *index.Ledger) ([]ckptSeen, []ckptSrcSeen) {
	rows := make([]int, l.Len())
	ids := make([]string, l.Len())
	for r := range rows {
		id, _, _ := l.Row(r)
		rows[r], ids[r] = r, id.String()
	}
	sort.Slice(rows, func(i, j int) bool { return ids[rows[i]] < ids[rows[j]] })
	names := l.SourceNames()
	var seen []ckptSeen
	var srcSeen []ckptSrcSeen
	for _, r := range rows {
		if _, ns, ok := l.Row(r); ok {
			seen = append(seen, ckptSeen{ID: ids[r], NS: ns})
		}
		arr := l.AppendArrivals(nil, r)
		if len(arr) == 0 {
			continue
		}
		sort.Slice(arr, func(i, j int) bool { return names[arr[i].Source] < names[arr[j].Source] })
		e := ckptSrcSeen{ID: ids[r]}
		for _, a := range arr {
			e.Sources = append(e.Sources, names[a.Source])
			e.NS = append(e.NS, a.NS)
		}
		srcSeen = append(srcSeen, e)
	}
	return seen, srcSeen
}

// oracleDecodeCheckpoint decodes raw as recovery did before the checkpoint
// reader: json.Unmarshal of the whole file.
func oracleDecodeCheckpoint(raw []byte, ck *walCheckpoint) error {
	return json.Unmarshal(raw, (*oracleCheckpoint)(ck))
}

// checkCodec encodes gen's checkpoint of set with the writer and with the
// oracle, and decodes the bytes with the reader and with encoding/json:
// the bytes and the decoded values must agree.
func checkCodec(t *testing.T, set *auditSet, gen int64) {
	t.Helper()
	var got bytes.Buffer
	if err := captureCheckpoint(set, gen).encodeTo(&got); err != nil {
		t.Fatal(err)
	}
	want, err := oracleEncodeCheckpoint(captureCheckpoint(set, gen))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
			i++
		}
		from := max(0, i-60)
		t.Fatalf("writer and oracle differ at byte %d of %d/%d:\nwriter %q\noracle %q",
			i, got.Len(), len(want), got.Bytes()[from:min(got.Len(), i+60)], want[from:min(len(want), i+60)])
	}
	var ck, ref walCheckpoint
	if err := ck.UnmarshalJSON(got.Bytes()); err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := oracleDecodeCheckpoint(got.Bytes(), &ref); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	if !reflect.DeepEqual(ck, ref) {
		t.Fatal("reader and encoding/json decode the checkpoint to different values")
	}
}

// codecStrings are what the property test writes into coinbase tags,
// addresses, source and data set names: every class of byte json.Marshal
// escapes, and some it does not.
var codecStrings = []string{
	"<pool&co>", `say "hi"`, `back\slash`, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"line\u2028para\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80", "é☃😀", "plain", "/",
}

func pickString(rng *rand.Rand) string { return codecStrings[rng.IntN(len(codecStrings))] }

// TestCheckpointCodecMatchesOracle is a seeded property test of the
// checkpoint codec: streaming sets with unbounded retention (0), tight
// ones (1, 3) and one too wide to compact, fed in random batch splits by
// one to three sources whose names, like the chain's coinbase tags and
// addresses, hold bytes json.Marshal escapes. At random batches the
// writer's bytes must equal the oracle's, and the reader must decode them
// to what encoding/json does.
func TestCheckpointCodecMatchesOracle(t *testing.T) {
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	blocks := ds.Result.Chain.Blocks()
	if len(blocks) > 16 {
		blocks = blocks[:16]
	}
	retains := []int{0, 1, 3, 1 << 20}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		retain := retains[seed%uint64(len(retains))]
		sources := []string{"s1"}
		for n := 1 + rng.IntN(3); len(sources) < n; {
			if s := pickString(rng); s != "" && !slices.Contains(sources, s) {
				sources = append(sources, s)
			}
		}
		name := "live"
		if seed%3 == 0 {
			name = pickString(rng)
		}
		t.Run(fmt.Sprintf("seed=%d/retain=%d/sources=%d", seed, retain, len(sources)), func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			set := newStreamSet(name, stream.New(name, stream.NewIndex(retain), func() time.Time { return now }))
			checkCodec(t, set, 0)
			for i := 0; i < len(blocks); {
				n := 1 + rng.IntN(4)
				batch := &stream.Batch{Source: sources[0]}
				for _, b := range blocks[i:min(i+n, len(blocks))] {
					batch.Blocks = append(batch.Blocks, codecBlock(t, rng, b))
				}
				i += n
				for _, src := range sources {
					batch.Snapshots = append(batch.Snapshots, codecSnapshot(rng, src, batch.Blocks))
				}
				if _, err := set.apply(batch); err != nil {
					t.Fatal(err)
				}
				if i >= len(blocks) || rng.IntN(2) == 0 {
					checkCodec(t, set, int64(rng.IntN(3)))
				}
			}
		})
	}
}

// codecBlock is b as a single-edge ingest block, with some coinbase tags
// and addresses given a suffix from codecStrings.
func codecBlock(t *testing.T, rng *rand.Rand, b *chain.Block) *chain.Block {
	f := FrameBlock(b)
	if len(f.Txs) > 0 && rng.IntN(3) == 0 {
		f.Txs[0].Tag += pickString(rng)
	}
	for i := range f.Txs {
		tx := &f.Txs[i]
		if tx.In != nil && rng.IntN(8) == 0 {
			tx.In.Addr += pickString(rng)
		}
		if tx.Out != nil && rng.IntN(8) == 0 {
			tx.Out.Addr += pickString(rng)
		}
	}
	blk, err := buildFrameBlock(&f)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// codecSnapshot is one source's sighting of the blocks' transactions: a
// random lag and spread, some transactions missed, some seen with no time
// of their own, and a few that never confirm.
func codecSnapshot(rng *rand.Rand, src string, blocks []*chain.Block) stream.Snapshot {
	last := blocks[len(blocks)-1]
	sn := stream.Snapshot{Time: last.Time, TipHeight: last.Height, Source: src}
	lag := time.Duration(rng.IntN(3000)) * time.Millisecond
	for _, b := range blocks {
		for _, tx := range b.Body() {
			switch rng.IntN(6) {
			case 0:
				continue
			case 1:
				sn.Seen = append(sn.Seen, stream.Seen{ID: tx.ID})
			default:
				at := tx.Time.Add(lag + time.Duration(rng.IntN(500))*time.Millisecond)
				sn.Seen = append(sn.Seen, stream.Seen{ID: tx.ID, At: at})
			}
		}
	}
	for k := rng.IntN(3); k > 0; k-- {
		var id chain.TxID
		for j := range id {
			id[j] = byte(rng.IntN(256))
		}
		sn.Seen = append(sn.Seen, stream.Seen{ID: id, At: last.Time})
	}
	sn.Count = len(sn.Seen)
	return sn
}

// FuzzDecodeCheckpoint holds the checkpoint reader to encoding/json: both
// accept the same files, into a zero checkpoint and into a filled one, and
// an accepted file yields a reflect.DeepEqual checkpoint. As for ingest
// bodies, anything but whitespace after the value is an error, and an
// accepted file cut short of its last byte does not parse, which is how
// recovery skips a checkpoint a crash left half written.
func FuzzDecodeCheckpoint(f *testing.F) {
	prefill := []byte(`{"api":"a","dataset":"d","wal_gen":2,"retain":3,"blocks":[{"height":1,"txs":[{"id":"x","in":{"txid":"y"}}]}],` +
		`"first_seen":[{"id":"x","ns":1}],"source_seen":[{"id":"x","sources":["s"],"ns":[1]}],"sources":["s"],` +
		`"shares":[{"pool":"p","blocks":1,"txs":2}],"reward_addrs":[{"pool":"p","addrs":["q"]}],` +
		`"owners":[{"addr":"q","pool":"p"}],"self_sets":[{"pool":"p","ids":["x"]}]}`)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var got, want walCheckpoint
		gotErr, wantErr := got.UnmarshalJSON(raw), oracleDecodeCheckpoint(raw, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, encoding/json error %v", gotErr, wantErr)
		}

		var gotPre, wantPre walCheckpoint
		if err := gotPre.UnmarshalJSON(prefill); err != nil {
			t.Fatal(err)
		}
		if err := oracleDecodeCheckpoint(prefill, &wantPre); err != nil {
			t.Fatal(err)
		}
		gotPreErr, wantPreErr := gotPre.UnmarshalJSON(raw), oracleDecodeCheckpoint(raw, &wantPre)
		if (gotPreErr == nil) != (wantPreErr == nil) {
			t.Fatalf("into a filled checkpoint: reader error %v, encoding/json error %v", gotPreErr, wantPreErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reader decoded\n%#v\nencoding/json decoded\n%#v", got, want)
		}
		if !reflect.DeepEqual(gotPre, wantPre) {
			t.Fatalf("into a filled checkpoint, reader decoded\n%#v\nencoding/json decoded\n%#v", gotPre, wantPre)
		}
		trimmed := bytes.TrimRight(raw, " \t\r\n")
		var torn walCheckpoint
		if torn.UnmarshalJSON(trimmed[:len(trimmed)-1]) == nil {
			t.Fatalf("torn checkpoint %q parses", trimmed[:len(trimmed)-1])
		}
	})
}

// benchCheckpoint is a two-source checkpoint of the 8 h seed-11 chain,
// shipped as TestCheckpointBytesPinned ships the fixture: s1 with a
// snapshot per four-block batch, s2 the same snapshot two seconds late
// with a sub-second spread, missing every fifth transaction.
var benchCheckpoint = sync.OnceValues(func() (*ckptState, error) {
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 8 * time.Hour})
	if err != nil {
		return nil, err
	}
	now := time.Unix(1_700_000_000, 0)
	set := newStreamSet("live", stream.New("live", stream.NewIndex(0), func() time.Time { return now }))
	for _, req := range mkIngestBatches(ds.Result.Chain, "live", 4) {
		req.Source = "s1"
		lagged := IngestRequest{Dataset: "live", Source: "s2"}
		for _, snap := range req.Mempool {
			late := SnapshotFrame{TimeNS: snap.TimeNS + 2e9, TipHeight: snap.TipHeight}
			for j, tx := range snap.Txs {
				if j%5 != 4 {
					late.Txs = append(late.Txs, SnapshotTx{ID: tx.ID, FirstSeenNS: tx.FirstSeenNS + 2e9 + int64(j%3)*1e8})
				}
			}
			lagged.Mempool = append(lagged.Mempool, late)
		}
		for _, r := range []*IngestRequest{&req, &lagged} {
			batch, err := DecodeBatch(r)
			if err != nil {
				return nil, err
			}
			if _, err := set.apply(batch); err != nil {
				return nil, err
			}
		}
	}
	return captureCheckpoint(set, 1), nil
})

// BenchmarkCheckpointEncode times the checkpoint writer against the
// encoding/json oracle it replaced, on benchCheckpoint.
func BenchmarkCheckpointEncode(b *testing.B) {
	ck, err := benchCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ck.encodeTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleEncodeCheckpoint(ck); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointDecode times the checkpoint reader against
// json.Unmarshal, on benchCheckpoint's bytes.
func BenchmarkCheckpointDecode(b *testing.B) {
	ck, err := benchCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	var raw bytes.Buffer
	if err := ck.encodeTo(&raw); err != nil {
		b.Fatal(err)
	}
	b.Run("parser", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw.Len()))
		for i := 0; i < b.N; i++ {
			var out walCheckpoint
			if err := out.UnmarshalJSON(raw.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw.Len()))
		for i := 0; i < b.N; i++ {
			var out walCheckpoint
			if err := oracleDecodeCheckpoint(raw.Bytes(), &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
