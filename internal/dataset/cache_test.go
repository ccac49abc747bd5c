package dataset

import (
	"sync"
	"testing"
	"time"

	"chainaudit/internal/faults"
	"chainaudit/internal/obs"
)

func TestCachedReturnsSameDataset(t *testing.T) {
	ResetCache()
	defer ResetCache()
	opts := Options{Seed: 77, Duration: 2 * time.Hour}
	a, err := Cached(BuilderA, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(BuilderA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Cached call rebuilt instead of hitting the cache")
	}
	if CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", CacheLen())
	}
}

func TestCachedNormalizesDefaultOptions(t *testing.T) {
	ResetCache()
	defer ResetCache()
	// Explicit defaults and zero values must share one entry.
	short := Options{Seed: 78, Duration: 2 * time.Hour}
	explicit := Options{Seed: 78, Duration: 2 * time.Hour, BlockCapacity: 100_000}
	a, err := Cached(BuilderA, short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(BuilderA, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("zero BlockCapacity and the explicit default built separate entries")
	}
}

func TestCachedKeysAreDistinct(t *testing.T) {
	ResetCache()
	defer ResetCache()
	a1, err := Cached(BuilderA, Options{Seed: 79, Duration: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Cached(BuilderA, Options{Seed: 80, Duration: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("different seeds shared one cache entry")
	}
	if CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", CacheLen())
	}
}

func TestCachedDeterministicAcrossColdBuilds(t *testing.T) {
	opts := Options{Seed: 81, Duration: 2 * time.Hour}
	ResetCache()
	a, err := Cached(BuilderA, opts)
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	b, err := Cached(BuilderA, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ResetCache()
	if a == b {
		t.Fatal("ResetCache did not drop the entry")
	}
	ca, cb := a.Result.Chain, b.Result.Chain
	if ca.Len() != cb.Len() || ca.TxCount() != cb.TxCount() {
		t.Fatalf("cold rebuilds diverged: (%d blocks, %d txs) vs (%d blocks, %d txs)",
			ca.Len(), ca.TxCount(), cb.Len(), cb.TxCount())
	}
	for i, blk := range ca.Blocks() {
		other := cb.Blocks()[i]
		if blk.Hash != other.Hash {
			t.Fatalf("block %d hashes diverged across cold rebuilds", i)
		}
	}
}

func TestCachedConcurrentBuildsShareOneSimulation(t *testing.T) {
	ResetCache()
	defer ResetCache()
	opts := Options{Seed: 82, Duration: 2 * time.Hour}
	const callers = 8
	results := make([]*Dataset, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Cached(BuilderA, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different datasets")
		}
	}
	if CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", CacheLen())
	}
}

func TestCachedUnknownBuilder(t *testing.T) {
	if _, err := Cached(Builder("Z"), Options{Seed: 1}); err == nil {
		t.Fatal("unknown builder did not error")
	}
}

func TestCachedRecordsHitMissAndBuildTime(t *testing.T) {
	ResetCache()
	defer ResetCache()
	hits0 := obs.Default.Counter("dataset.cache.hit").Value()
	miss0 := obs.Default.Counter("dataset.cache.miss").Value()
	builds0 := obs.Default.Timer("dataset.build.A").Stats().Count

	opts := Options{Seed: 83, Duration: 2 * time.Hour}
	if _, err := Cached(BuilderA, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Cached(BuilderA, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Cached(BuilderA, opts); err != nil {
		t.Fatal(err)
	}
	if d := obs.Default.Counter("dataset.cache.miss").Value() - miss0; d != 1 {
		t.Errorf("miss delta = %d, want 1", d)
	}
	if d := obs.Default.Counter("dataset.cache.hit").Value() - hits0; d != 2 {
		t.Errorf("hit delta = %d, want 2", d)
	}
	if d := obs.Default.Timer("dataset.build.A").Stats().Count - builds0; d != 1 {
		t.Errorf("build timer delta = %d, want 1 (cache hits must not rebuild)", d)
	}
}

// TestCachedConcurrentAccounting pins the singleflight contract under -race:
// N concurrent callers of one key produce exactly one miss, one build, and
// N-1 hits — no double-build, no double-count — regardless of interleaving.
func TestCachedConcurrentAccounting(t *testing.T) {
	ResetCache()
	defer ResetCache()
	hits0 := obs.Default.Counter("dataset.cache.hit").Value()
	miss0 := obs.Default.Counter("dataset.cache.miss").Value()
	builds0 := obs.Default.Timer("dataset.build.A").Stats().Count

	opts := Options{Seed: 84, Duration: 2 * time.Hour}
	const callers = 16
	results := make([]*Dataset, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			ds, err := Cached(BuilderA, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ds
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different datasets")
		}
	}
	if d := obs.Default.Counter("dataset.cache.miss").Value() - miss0; d != 1 {
		t.Errorf("miss delta = %d, want 1", d)
	}
	if d := obs.Default.Counter("dataset.cache.hit").Value() - hits0; d != callers-1 {
		t.Errorf("hit delta = %d, want %d", d, callers-1)
	}
	if d := obs.Default.Timer("dataset.build.A").Stats().Count - builds0; d != 1 {
		t.Errorf("build timer delta = %d, want 1 (the dataset must be built exactly once)", d)
	}
}

// TestCachedChaosFingerprintKeysEntries pins the cache-key rule for fault
// plans: an inactive plan shares the unfaulted entry (the builds are
// byte-identical), an active plan gets its own.
func TestCachedChaosFingerprintKeysEntries(t *testing.T) {
	ResetCache()
	defer ResetCache()
	base := Options{Seed: 85, Duration: 2 * time.Hour}
	plain, err := Cached(BuilderA, base)
	if err != nil {
		t.Fatal(err)
	}
	zeroRate := base
	zeroRate.Faults, err = faults.ParseSpec("seed=7")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Cached(BuilderA, zeroRate)
	if err != nil {
		t.Fatal(err)
	}
	if shared != plain {
		t.Fatal("zero-rate plan built a separate dataset despite byte-identical output")
	}
	chaotic := base
	chaotic.Faults, err = faults.ParseSpec("seed=7,pool.outage=0.3")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Cached(BuilderA, chaotic)
	if err != nil {
		t.Fatal(err)
	}
	if faulted == plain {
		t.Fatal("active fault plan shared the unfaulted cache entry")
	}
	if CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", CacheLen())
	}
	if faulted.Result.Chain.Len() >= plain.Result.Chain.Len() {
		t.Fatalf("30%% pool outages did not reduce blocks: %d vs %d",
			faulted.Result.Chain.Len(), plain.Result.Chain.Len())
	}
}

// CacheLen reports how many distinct data sets the process has built
// through Cached.
func CacheLen() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(cache)
}
