package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

// Checkpoint codec (DESIGN.md §13). The writer renders a captured state
// straight into bytes, and the reader parses them back with the ingest
// parser's primitives; neither goes through encoding/json, and the bytes
// are exactly json.Marshal of the full walCheckpoint plus a newline.

// ckptChunk is how many rendered bytes the writer gathers before it hands
// them to the file's writer.
const ckptChunk = 64 << 10

// ckptWriter appends a checkpoint's bytes to one scratch buffer and hands
// the buffer to w whenever it holds a chunk. The first write error sticks
// and ends the writing.
type ckptWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// spill hands the buffer to w once it holds a chunk.
func (e *ckptWriter) spill() {
	if len(e.b) >= ckptChunk {
		e.flush()
	}
}

func (e *ckptWriter) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *ckptWriter) raw(s string) { e.b = append(e.b, s...) }

func (e *ckptWriter) int(n int64) { e.b = strconv.AppendInt(e.b, n, 10) }

func (e *ckptWriter) str(s string) { e.b = appendJSONString(e.b, s) }

func (e *ckptWriter) id(id *chain.TxID) {
	e.b = append(e.b, '"')
	e.b = hex.AppendEncode(e.b, id[:])
	e.b = append(e.b, '"')
}

// next starts the next element of an omitempty list of walCheckpoint,
// *n of whose elements are written: `,"key":[` before the first, a comma
// before any other.
func (e *ckptWriter) next(key string, n *int) {
	if *n == 0 {
		e.raw(`,"` + key + `":[`)
	} else {
		e.b = append(e.b, ',')
	}
	*n++
}

// end closes an omitempty list after n elements; one with none was never
// opened.
func (e *ckptWriter) end(n int) {
	if n > 0 {
		e.b = append(e.b, ']')
	}
}

// list writes an omitempty list of n elements, or nothing when n is 0.
func (e *ckptWriter) list(key string, n int, elem func(i int)) {
	k := 0
	for i := 0; i < n; i++ {
		e.next(key, &k)
		elem(i)
		e.spill()
	}
	e.end(k)
}

// strs writes a []string member's value: null when it is nil, as
// json.Marshal writes a nil slice.
func (e *ckptWriter) strs(s []string) {
	if s == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, v := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(v)
	}
	e.b = append(e.b, ']')
}

// encodeTo writes the checkpoint file's bytes: exactly json.Marshal of the
// full walCheckpoint plus a newline, with the retained blocks as ingest
// frames (FrameBlock) and the ledger's rows sorted by transaction ID
// (chain.TxID.Less, the order of their hex strings), a row's per-source
// sightings by source. It renders each value straight from the captured
// state, sorting what capture left unsorted, and hands the bytes to w a
// chunk at a time.
func (c *ckptState) encodeTo(w io.Writer) error {
	e := &ckptWriter{w: w, b: make([]byte, 0, ckptChunk+4<<10)}
	h := &c.head
	e.raw(`{"api":`)
	e.str(h.API)
	e.raw(`,"dataset":`)
	e.str(h.Dataset)
	if h.WALGen != 0 {
		e.raw(`,"wal_gen":`)
		e.int(h.WALGen)
	}
	e.raw(`,"fingerprint":`)
	e.str(h.Fingerprint)
	for _, f := range []struct {
		key string
		v   int64
	}{
		{`,"retain":`, int64(h.Retain)},
		{`,"ingested":`, h.Ingested},
		{`,"dropped":`, int64(h.Dropped)},
		{`,"appends":`, h.Appends},
		{`,"snapshots":`, h.Snapshots},
		{`,"last_height":`, h.LastHeight},
		{`,"txs":`, h.Txs},
	} {
		e.raw(f.key)
		e.int(f.v)
	}
	e.raw(`,"blocks":[`)
	for i, b := range c.blocks {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.block(b)
	}
	e.b = append(e.b, ']')
	e.ledger(c.seen)

	sources := c.seen.Sources()
	e.list("sources", len(sources), func(i int) { e.str(sources[i]) })
	e.list("shares", len(c.shares), func(i int) {
		s := &c.shares[i]
		e.raw(`{"pool":`)
		e.str(s.Pool)
		e.raw(`,"blocks":`)
		e.int(int64(s.Blocks))
		e.raw(`,"txs":`)
		e.int(s.Txs)
		e.b = append(e.b, '}')
	})
	slices.SortFunc(c.rewardAddrs, func(a, b ckptAddrs) int { return strings.Compare(a.Pool, b.Pool) })
	e.list("reward_addrs", len(c.rewardAddrs), func(i int) {
		r := &c.rewardAddrs[i]
		slices.Sort(r.Addrs)
		e.raw(`{"pool":`)
		e.str(r.Pool)
		e.raw(`,"addrs":`)
		e.strs(r.Addrs)
		e.b = append(e.b, '}')
	})
	slices.SortFunc(c.owners, func(a, b ckptOwner) int { return strings.Compare(a.Addr, b.Addr) })
	e.list("owners", len(c.owners), func(i int) {
		o := &c.owners[i]
		e.raw(`{"addr":`)
		e.str(o.Addr)
		e.raw(`,"pool":`)
		e.str(o.Pool)
		e.b = append(e.b, '}')
	})
	slices.SortFunc(c.selfSets, func(a, b ckptSelfIDs) int { return strings.Compare(a.pool, b.pool) })
	e.list("self_sets", len(c.selfSets), func(i int) {
		s := &c.selfSets[i]
		e.raw(`{"pool":`)
		e.str(s.pool)
		e.raw(`,"ids":`)
		if s.ids == nil {
			e.raw("null")
		} else {
			slices.SortFunc(s.ids, func(a, b chain.TxID) int { return bytes.Compare(a[:], b[:]) })
			e.b = append(e.b, '[')
			for j := range s.ids {
				if j > 0 {
					e.b = append(e.b, ',')
				}
				e.id(&s.ids[j])
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, '}')
	})
	e.raw("}\n")
	e.flush()
	return e.err
}

// block writes b as FrameBlock(b) encodes: only the first input and output
// edge, and the coinbase tag on the first transaction only.
func (e *ckptWriter) block(b *chain.Block) {
	e.raw(`{"height":`)
	e.int(b.Height)
	e.raw(`,"time_ns":`)
	e.int(b.Time.UnixNano())
	if len(b.Txs) == 0 {
		e.raw(`,"txs":null}`)
		return
	}
	e.raw(`,"txs":[`)
	for i, tx := range b.Txs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"id":`)
		e.id(&tx.ID)
		e.raw(`,"vsize":`)
		e.int(tx.VSize)
		e.raw(`,"fee":`)
		e.int(int64(tx.Fee))
		e.raw(`,"time_ns":`)
		e.int(tx.Time.UnixNano())
		if i == 0 && tx.CoinbaseTag != "" {
			e.raw(`,"coinbase_tag":`)
			e.str(tx.CoinbaseTag)
		}
		if len(tx.Inputs) > 0 {
			in := &tx.Inputs[0]
			e.raw(`,"in":{"txid":`)
			e.id(&in.PrevOut.TxID)
			e.raw(`,"index":`)
			e.b = strconv.AppendUint(e.b, uint64(in.PrevOut.Index), 10)
			e.raw(`,"addr":`)
			e.str(string(in.Address))
			e.raw(`,"value":`)
			e.int(int64(in.Value))
			e.b = append(e.b, '}')
		}
		if len(tx.Outputs) > 0 {
			out := &tx.Outputs[0]
			e.raw(`,"out":{"addr":`)
			e.str(string(out.Address))
			e.raw(`,"value":`)
			e.int(int64(out.Value))
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, '}')
		e.spill()
	}
	e.raw("]}")
}

// ckptRow is one ledger row in checkpoint order: key is its transaction
// ID's first eight bytes read big-endian, so integer order is ID order up
// to a tie the full IDs break.
type ckptRow struct {
	key uint64
	r   int32
}

// ledger writes the arrival ledger's two lists, first_seen and
// source_seen, each left out when it has no entry: the rows sorted by
// transaction ID, a row's per-source sightings by source name.
func (e *ckptWriter) ledger(l *index.Ledger) {
	rows := make([]ckptRow, l.Len())
	for r := range rows {
		id, _, _ := l.Row(r)
		rows[r] = ckptRow{key: binary.BigEndian.Uint64(id[:8]), r: int32(r)}
	}
	slices.SortFunc(rows, func(a, b ckptRow) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		ia, _, _ := l.Row(int(a.r))
		ib, _, _ := l.Row(int(b.r))
		return bytes.Compare(ia[:], ib[:])
	})

	n := 0
	for _, row := range rows {
		id, ns, ok := l.Row(int(row.r))
		if !ok {
			continue
		}
		e.next("first_seen", &n)
		e.raw(`{"id":`)
		e.id(&id)
		e.raw(`,"ns":`)
		e.int(ns)
		e.b = append(e.b, '}')
		e.spill()
	}
	e.end(n)

	// Each source's name is escaped once, and its rank in name order is
	// what a row's sightings sort by.
	names := l.SourceNames()
	quoted := make([][]byte, len(names))
	byName := make([]int32, len(names))
	for ord, name := range names {
		quoted[ord] = appendJSONString(nil, name)
		byName[ord] = int32(ord)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int32, len(names))
	for r, ord := range byName {
		rank[ord] = int32(r)
	}
	n = 0
	var arr []index.Arrival
	for _, row := range rows {
		arr = l.AppendArrivals(arr[:0], int(row.r))
		if len(arr) == 0 {
			continue
		}
		// Insertion sort: a row has one sighting per source, and few sources.
		for i := 1; i < len(arr); i++ {
			for j := i; j > 0 && rank[arr[j].Source] < rank[arr[j-1].Source]; j-- {
				arr[j], arr[j-1] = arr[j-1], arr[j]
			}
		}
		e.next("source_seen", &n)
		id, _, _ := l.Row(int(row.r))
		e.raw(`{"id":`)
		e.id(&id)
		e.raw(`,"sources":[`)
		for i, a := range arr {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, quoted[a.Source]...)
		}
		e.raw(`],"ns":[`)
		for i, a := range arr {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.int(a.NS)
		}
		e.raw("]}")
		e.spill()
	}
	e.end(n)
}

// appendJSONString appends s quoted as json.Marshal encodes a string: `"`
// and `\` escaped with a backslash; \b, \f, \n, \r and \t in their short
// form; every other control byte, and the HTML-unsafe <, > and &, as
// \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte of invalid
// UTF-8 as \ufffd. Every other byte is copied as it is.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes json.Marshal copies into a string as they
// are: no control byte, quote, backslash, <, > or &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// ---- reader ----

var (
	checkpointMembers = newMemberNames("api", "dataset", "wal_gen", "fingerprint", "retain", "ingested", "dropped",
		"appends", "snapshots", "last_height", "txs", "blocks", "first_seen", "source_seen", "sources", "shares",
		"reward_addrs", "owners", "self_sets")
	ckptSeenMembers    = newMemberNames("id", "ns")
	ckptSrcSeenMembers = newMemberNames("id", "sources", "ns")
	ckptShareMembers   = newMemberNames("pool", "blocks", "txs")
	ckptAddrsMembers   = newMemberNames("pool", "addrs")
	ckptOwnerMembers   = newMemberNames("addr", "pool")
	ckptSelfSetMembers = newMemberNames("pool", "ids")
)

// UnmarshalJSON decodes a checkpoint file's bytes in a single pass, with
// the ingest parser (IngestRequest.UnmarshalJSON, whose rules it shares):
// it accepts exactly what encoding/json accepts for walCheckpoint and
// yields the value encoding/json would. Recovery calls it on the file's
// bytes, so a torn or foreign checkpoint fails to parse as it did under
// encoding/json, and is skipped the same way.
func (ck *walCheckpoint) UnmarshalJSON(data []byte) error {
	return parseDocument(data, func(p *ingestParser) error { return p.checkpoint(ck) })
}

func (p *ingestParser) checkpoint(ck *walCheckpoint) error {
	return p.object(checkpointMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&ck.API)
		case 1:
			return p.str(&ck.Dataset)
		case 2:
			return p.int64(&ck.WALGen)
		case 3:
			return p.str(&ck.Fingerprint)
		case 4:
			return p.int(&ck.Retain)
		case 5:
			return p.int64(&ck.Ingested)
		case 6:
			return p.int(&ck.Dropped)
		case 7:
			return p.int64(&ck.Appends)
		case 8:
			return p.int64(&ck.Snapshots)
		case 9:
			return p.int64(&ck.LastHeight)
		case 10:
			return p.int64(&ck.Txs)
		case 11:
			return parseArray(p, &ck.Blocks, (*ingestParser).block)
		case 12:
			return parseArray(p, &ck.FirstSeen, (*ingestParser).ckptSeen)
		case 13:
			return parseArray(p, &ck.SourceSeen, (*ingestParser).ckptSrcSeen)
		case 14:
			return parseArray(p, &ck.Sources, (*ingestParser).str)
		case 15:
			return parseArray(p, &ck.Shares, (*ingestParser).ckptShare)
		case 16:
			return parseArray(p, &ck.RewardAddrs, (*ingestParser).ckptAddrs)
		case 17:
			return parseArray(p, &ck.Owners, (*ingestParser).ckptOwner)
		default:
			return parseArray(p, &ck.SelfSets, (*ingestParser).ckptSelfSet)
		}
	})
}

func (p *ingestParser) ckptSeen(e *ckptSeen) error {
	return p.object(ckptSeenMembers, func(m int) error {
		if m == 0 {
			return p.str(&e.ID)
		}
		return p.int64(&e.NS)
	})
}

func (p *ingestParser) ckptSrcSeen(e *ckptSrcSeen) error {
	return p.object(ckptSrcSeenMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&e.ID)
		case 1:
			return parseArray(p, &e.Sources, (*ingestParser).str)
		default:
			return parseArray(p, &e.NS, (*ingestParser).int64)
		}
	})
}

func (p *ingestParser) ckptShare(e *ckptShare) error {
	return p.object(ckptShareMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&e.Pool)
		case 1:
			return p.int(&e.Blocks)
		default:
			return p.int64(&e.Txs)
		}
	})
}

func (p *ingestParser) ckptAddrs(e *ckptAddrs) error {
	return p.object(ckptAddrsMembers, func(m int) error {
		if m == 0 {
			return p.str(&e.Pool)
		}
		return parseArray(p, &e.Addrs, (*ingestParser).str)
	})
}

func (p *ingestParser) ckptOwner(e *ckptOwner) error {
	return p.object(ckptOwnerMembers, func(m int) error {
		if m == 0 {
			return p.str(&e.Addr)
		}
		return p.str(&e.Pool)
	})
}

func (p *ingestParser) ckptSelfSet(e *ckptSelfSet) error {
	return p.object(ckptSelfSetMembers, func(m int) error {
		if m == 0 {
			return p.str(&e.Pool)
		}
		return parseArray(p, &e.IDs, (*ingestParser).str)
	})
}
