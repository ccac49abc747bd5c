package dataset

import (
	"fmt"
	"sync"
	"time"

	"chainaudit/internal/obs"
)

// Builder names one of the data-set builders for the cache API.
type Builder string

// The cacheable builders.
const (
	BuilderA Builder = "A"
	BuilderB Builder = "B"
	BuilderC Builder = "C"
)

// cacheKey identifies one deterministic build. Options are normalized with
// the builder's defaults first, so Options{} and an explicit default span
// share an entry. chaos is the fault plan's fingerprint: "" for no plan and
// for inactive (zero-rate) plans — those builds are byte-identical, so they
// must share an entry — and the canonical spec string otherwise.
type cacheKey struct {
	builder  Builder
	seed     uint64
	duration time.Duration
	capacity int64
	chaos    string
}

// cacheEntry dedupes concurrent builds of the same key: the first caller
// builds, everyone else blocks on once and shares the result.
type cacheEntry struct {
	once sync.Once
	ds   *Dataset
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = make(map[cacheKey]*cacheEntry)
)

// builderDefaults mirrors the per-builder default durations of
// BuildA/BuildB/BuildC.
var builderDefaults = map[Builder]time.Duration{
	BuilderA: 36 * time.Hour,
	BuilderB: 48 * time.Hour,
	BuilderC: 7 * 24 * time.Hour,
}

var builderFuncs = map[Builder]func(Options) (*Dataset, error){
	BuilderA: BuildA,
	BuilderB: BuildB,
	BuilderC: BuildC,
}

// Cached returns the named data set for the given options, building it at
// most once per process. Every build is deterministic in (builder, seed,
// duration, capacity), so a cache hit is indistinguishable from a rebuild —
// except that the returned *Dataset is shared: treat it as read-only, as
// every audit does. Experiments suites, benchmarks, and tests that
// previously re-simulated identical data sets per call site now share one
// build.
func Cached(b Builder, opts Options) (*Dataset, error) {
	def, ok := builderDefaults[b]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown builder %q", b)
	}
	norm := opts.withDefaults(def)
	key := cacheKey{
		builder:  b,
		seed:     norm.Seed,
		duration: norm.Duration,
		capacity: norm.BlockCapacity,
		chaos:    norm.Faults.Fingerprint(),
	}
	cacheMu.Lock()
	e := cache[key]
	if e == nil {
		e = &cacheEntry{}
		cache[key] = e
		// The entry's creator is the miss; every later caller of the same
		// key is a hit, even when it blocks on a build in flight.
		obs.Inc("dataset.cache.miss")
	} else {
		obs.Inc("dataset.cache.hit")
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		defer obs.Timed("dataset.build." + string(b))()
		e.ds, e.err = builderFuncs[b](norm)
	})
	return e.ds, e.err
}

// ResetCache drops every cached data set (for tests that need cold builds).
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = make(map[cacheKey]*cacheEntry)
}
