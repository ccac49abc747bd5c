package index

import (
	"maps"
	"slices"
	"time"

	"chainaudit/internal/chain"
)

// Ledger is the arrival ledger of a streaming index (DESIGN.md §14): for
// each transaction observers reported, the earliest sighting across every
// feed (the merged view) and, for each attributed source that reported it,
// that source's own earliest sighting (the per-source view the divergence
// audit compares).
//
// The per-transaction storage holds no pointer, so the garbage collector
// never scans it. A map from transaction ID to a row number is the only
// index; the rows sit in one slice, and every row's per-source sightings
// are (source ordinal, unix ns) entries in one arena, chained through the
// arena by slot. Source names are interned once, in the order they first
// arrive. Storage grows with the number of sightings, not with rows times
// sources: a transaction two of a thousand sources saw holds two entries.
// A dropped row swaps the last row into its place and returns its entries
// to a free list that later sightings reuse.
//
// Times are held as unix nanoseconds, the resolution checkpoints and ingest
// frames carry, and every int64 is a valid time: a row records whether it
// has a merged sighting rather than reserving a value for "none". A time
// that int64 nanoseconds cannot hold, such as the zero time.Time, has no
// representation; no ingest path produces one.
//
// The zero Ledger is empty and ready to use. A Ledger is not safe for
// concurrent use while it is written.
type Ledger struct {
	rowOf map[chain.TxID]int32
	rows  []ledgerRow
	arena []ledgerEntry
	// free is the slot+1 of the first unused arena entry, 0 when none.
	free  int32
	names []string
	ordOf map[string]int32
	// epoch numbers the observe calls, so a transaction listed twice in one
	// call is merged once (see ObserveSeen).
	epoch uint32
}

type ledgerRow struct {
	id chain.TxID
	// first is the merged earliest sighting, valid when hasFirst.
	first int64
	// head is the slot+1 of the row's first per-source entry, 0 when none.
	head     int32
	epoch    uint32
	hasFirst bool
}

type ledgerEntry struct {
	src int32
	// next is the slot+1 of the row's next entry (or, on the free list, the
	// next free slot), 0 at the end.
	next int32
	ns   int64
}

// Seen is one transaction's sighting in a mempool snapshot. A zero At
// means the observer gave no time of its own (see ObserveSeen).
type Seen struct {
	ID chain.TxID
	At time.Time
}

// Arrival is one per-source sighting of a ledger row: the source's ordinal
// in SourceNames and its earliest sighting in unix nanoseconds.
type Arrival struct {
	Source int32
	NS     int64
}

// attributed reports whether a source ID names a vantage point the
// per-source view keeps.
func attributed(source string) bool { return source != "" && source != SourceAnonymous }

// begin opens one observe call: it interns an attributed source and
// returns its ordinal (-1 for an anonymous one), and starts a new epoch.
func (l *Ledger) begin(source string) int32 {
	l.epoch++
	if l.epoch == 0 {
		// The epoch wrapped: no row may keep a stamp the next call reuses.
		for i := range l.rows {
			l.rows[i].epoch = 0
		}
		l.epoch = 1
	}
	if !attributed(source) {
		return -1
	}
	return l.intern(source)
}

// intern returns the ordinal of a source name, adding it if new.
func (l *Ledger) intern(source string) int32 {
	if ord, ok := l.ordOf[source]; ok {
		return ord
	}
	if l.ordOf == nil {
		l.ordOf = make(map[string]int32)
	}
	ord := int32(len(l.names))
	l.names = append(l.names, source)
	l.ordOf[source] = ord
	return ord
}

// row returns the row number of the transaction, adding an empty row if it
// has none.
func (l *Ledger) row(id chain.TxID) int32 {
	if r, ok := l.rowOf[id]; ok {
		return r
	}
	if l.rowOf == nil {
		l.rowOf = make(map[chain.TxID]int32)
	}
	r := int32(len(l.rows))
	l.rows = append(l.rows, ledgerRow{id: id})
	l.rowOf[id] = r
	return r
}

// entry returns the slot of row r's entry for source ord, adding one (with
// ns) if the row has none; added reports which.
func (l *Ledger) entry(r, ord int32, ns int64) (slot int32, added bool) {
	for e := l.rows[r].head; e != 0; e = l.arena[e-1].next {
		if l.arena[e-1].src == ord {
			return e - 1, false
		}
	}
	if l.free != 0 {
		slot = l.free - 1
		l.free = l.arena[slot].next
	} else {
		slot = int32(len(l.arena))
		l.arena = append(l.arena, ledgerEntry{})
	}
	l.arena[slot] = ledgerEntry{src: ord, next: l.rows[r].head, ns: ns}
	l.rows[r].head = slot + 1
	return slot, true
}

// release returns row r's per-source entries to the free list.
func (l *Ledger) release(r int32) {
	for e := l.rows[r].head; e != 0; {
		next := l.arena[e-1].next
		l.arena[e-1] = ledgerEntry{next: l.free}
		l.free = e
		e = next
	}
	l.rows[r].head = 0
}

// add merges one sighting into the ledger within the current epoch: the
// earliest time wins in the merged view and, for an attributed ord, in the
// source's entry. A transaction already merged in this epoch is skipped.
func (l *Ledger) add(ord int32, id chain.TxID, ns int64) {
	r := l.row(id)
	row := &l.rows[r]
	if row.epoch == l.epoch {
		return
	}
	row.epoch = l.epoch
	if !row.hasFirst || ns < row.first {
		row.first, row.hasFirst = ns, true
	}
	if ord < 0 {
		return
	}
	if slot, added := l.entry(r, ord, ns); !added && ns < l.arena[slot].ns {
		l.arena[slot].ns = ns
	}
}

// Observe merges one observation's arrival times attributed to source. The
// merged view keeps the earliest sighting across every source; for an
// attributed source (neither empty nor SourceAnonymous) the source's own
// entry keeps the earliest time that source reported. An anonymous
// observation touches only the merged view, and a source is recorded only
// once it reports something. The caller's map is not retained.
func (l *Ledger) Observe(source string, seen map[chain.TxID]time.Time) {
	if len(seen) == 0 {
		return
	}
	ord := l.begin(source)
	for id, t := range seen {
		l.add(ord, id, t.UnixNano())
	}
}

// Add merges one sighting of one transaction attributed to source, as
// Observe does with a one-entry map.
func (l *Ledger) Add(source string, id chain.TxID, at time.Time) {
	l.add(l.begin(source), id, at.UnixNano())
}

// ObserveSeen merges one snapshot's sightings like Observe. A zero At is
// taken as def. When the snapshot lists a transaction more than once, its
// last sighting is the one merged, as if the list had been collected into
// a map first.
func (l *Ledger) ObserveSeen(source string, seen []Seen, def time.Time) {
	if len(seen) == 0 {
		return
	}
	ord := l.begin(source)
	defNS := def.UnixNano()
	// Backwards, so the epoch check keeps each transaction's last sighting.
	for i := len(seen) - 1; i >= 0; i-- {
		ns := defNS
		if !seen[i].At.IsZero() {
			ns = seen[i].At.UnixNano()
		}
		l.add(ord, seen[i].ID, ns)
	}
}

// Drop removes the transaction's row, merged and per-source sightings
// alike. Interned source names stay: Sources is cumulative.
func (l *Ledger) Drop(id chain.TxID) {
	r, ok := l.rowOf[id]
	if !ok {
		return
	}
	l.release(r)
	delete(l.rowOf, id)
	last := int32(len(l.rows) - 1)
	if r != last {
		l.rows[r] = l.rows[last]
		l.rowOf[l.rows[r].id] = r
	}
	l.rows = l.rows[:last]
}

// AddSources records source names without any sighting, as a restored
// checkpoint's cumulative source list does.
func (l *Ledger) AddSources(names ...string) {
	for _, s := range names {
		l.intern(s)
	}
}

// SetFirstSeen sets the transaction's merged sighting, replacing any.
func (l *Ledger) SetFirstSeen(id chain.TxID, ns int64) {
	row := &l.rows[l.row(id)]
	row.first, row.hasFirst = ns, true
}

// SetArrivals replaces the transaction's per-source sightings with
// sources[i] at ns[i], names taken as given; for a name listed twice the
// last time counts. It leaves the merged sighting as it is. The slices
// must be the same length.
func (l *Ledger) SetArrivals(id chain.TxID, sources []string, ns []int64) {
	r := l.row(id)
	l.release(r)
	for i, s := range sources {
		slot, _ := l.entry(r, l.intern(s), ns[i])
		l.arena[slot].ns = ns[i]
	}
}

// Clone returns a deep copy. The per-transaction storage copies as flat
// memory: it holds no pointer to follow.
func (l *Ledger) Clone() *Ledger {
	return &Ledger{
		rowOf: maps.Clone(l.rowOf),
		rows:  slices.Clone(l.rows),
		arena: slices.Clone(l.arena),
		free:  l.free,
		names: slices.Clone(l.names),
		ordOf: maps.Clone(l.ordOf),
		epoch: l.epoch,
	}
}

// Len returns the number of rows: the transactions with any sighting.
func (l *Ledger) Len() int { return len(l.rows) }

// Row returns row r's transaction and its merged sighting in unix
// nanoseconds; ok is false when the row has per-source sightings only.
// Rows are in no particular order.
func (l *Ledger) Row(r int) (id chain.TxID, firstNS int64, ok bool) {
	row := &l.rows[r]
	return row.id, row.first, row.hasFirst
}

// AppendArrivals appends row r's per-source sightings to buf, in no
// particular order, and returns the extended slice.
func (l *Ledger) AppendArrivals(buf []Arrival, r int) []Arrival {
	for e := l.rows[r].head; e != 0; e = l.arena[e-1].next {
		ent := &l.arena[e-1]
		buf = append(buf, Arrival{Source: ent.src, NS: ent.ns})
	}
	return buf
}

// SourceNames returns the interned source names by ordinal. Shared and
// read-only.
func (l *Ledger) SourceNames() []string { return l.names }

// Sources returns the attributed source IDs ever recorded, sorted (nil
// when none).
func (l *Ledger) Sources() []string {
	if len(l.names) == 0 {
		return nil
	}
	out := slices.Clone(l.names)
	slices.Sort(out)
	return out
}

// FirstSeen returns the transaction's merged earliest sighting.
func (l *Ledger) FirstSeen(id chain.TxID) (time.Time, bool) {
	r, ok := l.rowOf[id]
	if !ok || !l.rows[r].hasFirst {
		return time.Time{}, false
	}
	return time.Unix(0, l.rows[r].first), true
}

// SourceFirstSeen returns the transaction's per-source sightings as a new
// map from source ID to time, nil when no attributed source saw it.
func (l *Ledger) SourceFirstSeen(id chain.TxID) map[string]time.Time {
	r, ok := l.rowOf[id]
	if !ok || l.rows[r].head == 0 {
		return nil
	}
	out := make(map[string]time.Time)
	for e := l.rows[r].head; e != 0; e = l.arena[e-1].next {
		out[l.names[l.arena[e-1].src]] = time.Unix(0, l.arena[e-1].ns)
	}
	return out
}

// Equal reports whether two ledgers hold the same sightings and sources,
// however each laid them out: the same rows with the same merged
// sightings, the same per-source sightings by name, and the same Sources.
//
//lint:allow deadcode seam: the index, serve and stream tests compare a replayed, restored or modelled ledger with its original through it (TestSourceLedgerRestoreRoundTrip, TestWALReplayPreservesAttribution, TestLedgerMatchesModel)
func (l *Ledger) Equal(m *Ledger) bool {
	if len(l.rows) != len(m.rows) || !slices.Equal(l.Sources(), m.Sources()) {
		return false
	}
	var a, b []Arrival
	for r := range l.rows {
		lr := &l.rows[r]
		mi, ok := m.rowOf[lr.id]
		if !ok {
			return false
		}
		mr := &m.rows[mi]
		if lr.hasFirst != mr.hasFirst || (lr.hasFirst && lr.first != mr.first) {
			return false
		}
		a, b = l.AppendArrivals(a[:0], r), m.AppendArrivals(b[:0], int(mi))
		if len(a) != len(b) {
			return false
		}
		for _, x := range a {
			if !slices.ContainsFunc(b, func(y Arrival) bool {
				return m.names[y.Source] == l.names[x.Source] && y.NS == x.NS
			}) {
				return false
			}
		}
	}
	return true
}
