package index_test

// Arrival-ledger model tests: random operation sequences run against the
// index and against a map-of-maps model of the ledger it replaced, and
// after every step the index's FirstSeen, SourceFirstSeen and Sources must
// read exactly what the model holds. FuzzSourceLedger runs the same
// interpreter on fuzzed bytes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stats"
)

// ledgerModel is the ledger as two maps, in unix nanoseconds: the merged
// earliest sighting and, per attributed source, that source's earliest.
type ledgerModel struct {
	first   map[chain.TxID]int64
	bySrc   map[chain.TxID]map[string]int64
	sources map[string]bool
	// peak is the most per-source sightings the model has held at once.
	peak int
}

func newLedgerModel() *ledgerModel {
	return &ledgerModel{first: map[chain.TxID]int64{}, bySrc: map[chain.TxID]map[string]int64{}, sources: map[string]bool{}}
}

func (m *ledgerModel) observe(src string, seen map[chain.TxID]int64) {
	if len(seen) == 0 {
		return
	}
	attributed := src != "" && src != index.SourceAnonymous
	if attributed {
		m.sources[src] = true
	}
	for id, ns := range seen {
		if prev, ok := m.first[id]; !ok || ns < prev {
			m.first[id] = ns
		}
		if !attributed {
			continue
		}
		row := m.bySrc[id]
		if row == nil {
			row = map[string]int64{}
			m.bySrc[id] = row
		}
		if prev, ok := row[src]; !ok || ns < prev {
			row[src] = ns
		}
	}
	live := 0
	for _, row := range m.bySrc {
		live += len(row)
	}
	m.peak = max(m.peak, live)
}

func (m *ledgerModel) drop(id chain.TxID) {
	delete(m.first, id)
	delete(m.bySrc, id)
}

// check holds the index's reads to the model for every ID in universe.
func (m *ledgerModel) check(ix *index.BlockIndex, universe []chain.TxID) error {
	for _, id := range universe {
		want, wantOK := m.first[id]
		got, ok := ix.FirstSeen(id)
		if ok != wantOK || (ok && got.UnixNano() != want) {
			return fmt.Errorf("FirstSeen(%s) = %v %t, want %d %t", id, got.UnixNano(), ok, want, wantOK)
		}
		gotSrc := ix.SourceFirstSeen(id)
		if (gotSrc == nil) != (m.bySrc[id] == nil) || len(gotSrc) != len(m.bySrc[id]) {
			return fmt.Errorf("SourceFirstSeen(%s) = %v, want %v", id, gotSrc, m.bySrc[id])
		}
		for src, ns := range m.bySrc[id] {
			if t, ok := gotSrc[src]; !ok || t.UnixNano() != ns {
				return fmt.Errorf("SourceFirstSeen(%s)[%s] = %v %t, want %d", id, src, t.UnixNano(), ok, ns)
			}
		}
	}
	var want []string
	for s := range m.sources {
		want = append(want, s)
	}
	sort.Strings(want)
	if got := ix.Sources(); !slices.Equal(got, want) {
		return fmt.Errorf("Sources() = %v, want %v", got, want)
	}
	l := ix.SourceSeenTimes()
	if l.Len() != len(m.first) {
		return fmt.Errorf("ledger holds %d rows, model %d", l.Len(), len(m.first))
	}
	if l.ArenaLen() != m.peak {
		return fmt.Errorf("ledger arena holds %d entries, model peaked at %d sightings", l.ArenaLen(), m.peak)
	}
	return nil
}

// ledgerTimes are the sighting times the interpreter draws from: a cluster
// of close values, so sightings tie and re-sightings land on either side,
// and the ends of the int64 range.
var ledgerTimes = []int64{
	1_700_000_000e9, 1_700_000_000e9 + 1, 1_700_000_000e9 + 5e8, 1_700_000_001e9, 1_699_999_999e9,
	0, -1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// ledgerSources are the source IDs the interpreter attributes to; the last
// two are anonymous.
var ledgerSources = []string{"s1", "s2", "s3", "s4", index.SourceAnonymous, ""}

// runLedgerOps interprets ops as a sequence of index operations on blocks,
// with retention retain, checking the index against the model after every
// step. Opcodes, one byte each followed by their operands:
//   - 0: observe a map of sightings (ObserveFirstSeenFrom);
//   - 1: observe a snapshot list, with repeats and zero times (ObserveSeen);
//   - 2: append the next block (its transactions leave once retention
//     compacts it);
//   - 3: Snapshot → RestoreIncremental, continuing on the restored index.
func runLedgerOps(t *testing.T, reg *poolid.Registry, blocks []*chain.Block, retain int, ops []byte) {
	t.Helper()
	// The universe: a few transactions of each block, so compaction prunes
	// them, and two that no block confirms.
	var universe []chain.TxID
	for _, b := range blocks {
		body := b.Body()
		for i := 0; i < len(body) && i < 3; i++ {
			universe = append(universe, body[i].ID)
		}
	}
	for i := 0; i < 2; i++ {
		var id chain.TxID
		copy(id[:], fmt.Sprintf("unconfirmed-%d", i))
		universe = append(universe, id)
	}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	opts := []index.Option{index.WithRetention(retain)}
	ix := index.NewIncremental(reg, opts...)
	m := newLedgerModel()
	appended := 0
	for step := 0; len(ops) > 0 && step < 64; step++ {
		op := next() % 4
		switch op {
		case 0:
			src := ledgerSources[next()%len(ledgerSources)]
			seen := map[chain.TxID]time.Time{}
			want := map[chain.TxID]int64{}
			for k := next() % 8; k > 0; k-- {
				id, ns := universe[next()%len(universe)], ledgerTimes[next()%len(ledgerTimes)]
				seen[id], want[id] = time.Unix(0, ns), ns
			}
			ix.ObserveFirstSeenFrom(src, seen)
			m.observe(src, want)
		case 1:
			src := ledgerSources[next()%len(ledgerSources)]
			def := ledgerTimes[next()%len(ledgerTimes)]
			var seen []index.Seen
			want := map[chain.TxID]int64{}
			for k := next() % 8; k > 0; k-- {
				id, sel := universe[next()%len(universe)], next()
				e, ns := index.Seen{ID: id}, def
				if sel%4 != 0 { // a quarter of the sightings carry no time
					ns = ledgerTimes[sel%len(ledgerTimes)]
					e.At = time.Unix(0, ns)
				}
				seen = append(seen, e)
				want[id] = ns // the last listing of a transaction counts
			}
			ix.ObserveSeen(src, seen, time.Unix(0, def))
			m.observe(src, want)
		case 2:
			if appended == len(blocks) {
				continue
			}
			if _, err := ix.AppendBlock(blocks[appended]); err != nil {
				t.Fatalf("step %d: AppendBlock: %v", step, err)
			}
			appended++
			if evict := appended - retain - 1; retain > 0 && evict >= 0 {
				for _, tx := range blocks[evict].Txs {
					m.drop(tx.ID)
				}
			}
		case 3:
			back, err := index.RestoreIncremental(reg, ix.Snapshot(), opts...)
			if err != nil {
				t.Fatalf("step %d: RestoreIncremental: %v", step, err)
			}
			if !back.SourceSeenTimes().Equal(ix.SourceSeenTimes()) {
				t.Fatalf("step %d: restored ledger differs from its snapshot", step)
			}
			ix = back
		}
		if err := m.check(ix, universe); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
}

// ledgerFixture is the first blocks of the fixture chain: enough for
// retention to compact, few enough to keep a fuzz iteration cheap.
func ledgerFixture(t testing.TB) (*poolid.Registry, []*chain.Block) {
	ds := buildA(t)
	blocks := ds.Result.Chain.Blocks()
	return ds.Registry, blocks[:min(len(blocks), 8)]
}

// TestLedgerMatchesModel runs seeded random operation sequences, with and
// without retention.
func TestLedgerMatchesModel(t *testing.T) {
	reg, blocks := ledgerFixture(t)
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 200)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		retain := []int{0, 1, 3}[seed%3]
		t.Run(fmt.Sprintf("seed=%d/retain=%d", seed, retain), func(t *testing.T) {
			runLedgerOps(t, reg, blocks, retain, ops)
		})
	}
}

// FuzzSourceLedger runs the model interpreter on fuzzed operation bytes;
// the first byte picks the retention.
func FuzzSourceLedger(f *testing.F) {
	reg, blocks := ledgerFixture(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		runLedgerOps(t, reg, blocks, int(ops[0]%4), ops[1:])
	})
}

// TestLedgerStorageGrowsWithSightings pins the storage claim: a ledger
// holds one entry per sighting, however many sources a feed names, and
// reuses the entries of dropped rows.
func TestLedgerStorageGrowsWithSightings(t *testing.T) {
	const n = 1000
	ids := make([]chain.TxID, n)
	for i := range ids {
		binary.BigEndian.PutUint64(ids[i][:], uint64(i))
	}
	at := time.Unix(1_700_000_000, 0)

	var apart, together index.Ledger
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("src-%04d", i)
		apart.Observe(src, map[chain.TxID]time.Time{ids[i]: at})
		together.Observe(src, map[chain.TxID]time.Time{ids[0]: at})
	}
	if apart.Len() != n || apart.ArenaLen() != n {
		t.Errorf("%d sources seeing one transaction each: %d rows, %d entries; want %d, %d", n, apart.Len(), apart.ArenaLen(), n, n)
	}
	if together.Len() != 1 || together.ArenaLen() != n {
		t.Errorf("%d sources seeing one transaction: %d rows, %d entries; want 1, %d", n, together.Len(), together.ArenaLen(), n)
	}
	if got := len(apart.Sources()); got != n {
		t.Errorf("Sources() holds %d names, want %d", got, n)
	}

	// Dropped rows free their entries for the next sightings.
	for _, id := range ids {
		apart.Drop(id)
	}
	for i := 0; i < n; i++ {
		apart.Observe("src-0000", map[chain.TxID]time.Time{ids[i]: at})
	}
	if apart.Len() != n || apart.ArenaLen() != n {
		t.Errorf("after drop and re-observe: %d rows, %d entries; want %d, %d", apart.Len(), apart.ArenaLen(), n, n)
	}
}
