package serve

import (
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// UnmarshalJSON decodes one ingest request from data in a single pass,
// without reflection and without encoding/json's separate validity scan.
// It is the one decoder of the ingest frames: the HTTP handler and WAL
// replay call it on the body bytes, and json.Unmarshal of a request
// anywhere in the module reaches it through this method.
//
// It accepts exactly the documents encoding/json accepts for the frame
// types, anything but whitespace after the value being an error, and
// yields the value encoding/json would:
//   - strings unescape as encoding/json unescapes them: invalid UTF-8 and
//     unpaired surrogates become U+FFFD;
//   - a key matches a member exactly or else under encoding/json's case
//     folding (so "ſource" and "blocKs" match), and unknown members are
//     skipped;
//   - a repeated key decodes again into the value already there, reusing
//     a slice's elements and a pointer's target as encoding/json does;
//   - null leaves a string, number or struct as it is and sets a slice or
//     pointer to nil;
//   - an integer member takes an integer literal in its type's range;
//   - objects and arrays nest at most 10,000 deep, counted from the
//     request, encoding/json's bound, so a deep unknown member is an error
//     and never a deep Go stack.
//
// Like encoding/json, it decodes into r as it stands and leaves r partly
// written when it fails.
func (r *IngestRequest) UnmarshalJSON(data []byte) error {
	return parseDocument(data, func(p *ingestParser) error { return p.request(r) })
}

// parseDocument parses data as one JSON value, with value, and nothing but
// whitespace around it.
func parseDocument(data []byte, value func(*ingestParser) error) error {
	p := ingestParser{data: data}
	p.ws()
	if err := value(&p); err != nil {
		return err
	}
	p.ws()
	if p.pos < len(p.data) {
		return p.errorf("trailing data after the JSON value")
	}
	return nil
}

// maxIngestDepth is encoding/json's nesting bound: the most objects and
// arrays one value may have open at once.
const maxIngestDepth = 10000

// ingestParser walks one request body. Every parse method starts at the
// first byte of a value, leading whitespace skipped, and stops just past
// its last byte.
type ingestParser struct {
	data  []byte
	pos   int
	depth int    // objects and arrays open at pos
	buf   []byte // scratch for strings that need unescaping
}

// memberNames lists a frame type's JSON member names in the order its parse
// function numbers them, each with its encoding/json case fold.
type memberNames struct {
	names, folded []string
}

func newMemberNames(names ...string) *memberNames {
	m := &memberNames{names: names}
	for _, n := range names {
		m.folded = append(m.folded, string(foldKey(nil, []byte(n))))
	}
	return m
}

var (
	requestMembers  = newMemberNames("dataset", "source", "blocks", "mempool")
	blockMembers    = newMemberNames("height", "time_ns", "txs")
	txMembers       = newMemberNames("id", "vsize", "fee", "time_ns", "coinbase_tag", "in", "out")
	edgeInMembers   = newMemberNames("txid", "index", "addr", "value")
	edgeOutMembers  = newMemberNames("addr", "value")
	snapshotMembers = newMemberNames("time_ns", "tip_height", "source", "txs")
	snapTxMembers   = newMemberNames("id", "first_seen_ns")
)

// match returns the number of the member key names, or -1 for a key no
// member takes. As in encoding/json, an exact match wins over a folded one.
func (m *memberNames) match(key []byte) int {
	for i, n := range m.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := foldKey(arr[:0], key)
	for i, n := range m.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// foldKey appends encoding/json's case fold of a key to out: ASCII
// letters upper-cased, every other rune mapped to the smallest rune of its
// simple-folding orbit.
func foldKey(out, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

func (p *ingestParser) request(r *IngestRequest) error {
	return p.object(requestMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&r.Dataset)
		case 1:
			return p.str(&r.Source)
		case 2:
			return parseArray(p, &r.Blocks, (*ingestParser).block)
		default:
			return parseArray(p, &r.Mempool, (*ingestParser).snapshot)
		}
	})
}

func (p *ingestParser) block(b *BlockFrame) error {
	return p.object(blockMembers, func(m int) error {
		switch m {
		case 0:
			return p.int64(&b.Height)
		case 1:
			return p.int64(&b.TimeNS)
		default:
			return parseArray(p, &b.Txs, (*ingestParser).tx)
		}
	})
}

func (p *ingestParser) tx(t *TxFrame) error {
	return p.object(txMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&t.ID)
		case 1:
			return p.int64(&t.VSize)
		case 2:
			return p.int64(&t.Fee)
		case 3:
			return p.int64(&t.TimeNS)
		case 4:
			return p.str(&t.Tag)
		case 5:
			return parsePointer(p, &t.In, (*ingestParser).edgeIn)
		default:
			return parsePointer(p, &t.Out, (*ingestParser).edgeOut)
		}
	})
}

func (p *ingestParser) edgeIn(e *EdgeIn) error {
	return p.object(edgeInMembers, func(m int) error {
		switch m {
		case 0:
			return p.str(&e.TxID)
		case 1:
			return p.uint32(&e.Index)
		case 2:
			return p.str(&e.Addr)
		default:
			return p.int64(&e.Value)
		}
	})
}

func (p *ingestParser) edgeOut(e *EdgeOut) error {
	return p.object(edgeOutMembers, func(m int) error {
		if m == 0 {
			return p.str(&e.Addr)
		}
		return p.int64(&e.Value)
	})
}

func (p *ingestParser) snapshot(s *SnapshotFrame) error {
	return p.object(snapshotMembers, func(m int) error {
		switch m {
		case 0:
			return p.int64(&s.TimeNS)
		case 1:
			return p.int64(&s.TipHeight)
		case 2:
			return p.str(&s.Source)
		default:
			return parseArray(p, &s.Txs, (*ingestParser).snapTx)
		}
	})
}

func (p *ingestParser) snapTx(t *SnapshotTx) error {
	return p.object(snapTxMembers, func(m int) error {
		if m == 0 {
			return p.str(&t.ID)
		}
		return p.int64(&t.FirstSeenNS)
	})
}

// object parses an object, passing each member that members names to
// member and skipping the rest, or null, which leaves the value as it is.
func (p *ingestParser) object(members *memberNames, member func(int) error) error {
	switch p.peek() {
	case 'n':
		return p.null()
	case '{':
	default:
		return p.mismatch("an object")
	}
	if err := p.open(); err != nil {
		return err
	}
	p.ws()
	if p.peek() == '}' {
		p.close()
		return nil
	}
	for {
		if p.peek() != '"' {
			return p.errorf("want a member name")
		}
		key, err := p.quoted()
		if err != nil {
			return err
		}
		m := members.match(key)
		if err := p.colon(); err != nil {
			return err
		}
		if m >= 0 {
			err = member(m)
		} else {
			err = p.skip()
		}
		if err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
			p.ws()
		case '}':
			p.close()
			return nil
		default:
			return p.errorf("want ',' or '}' after an object member")
		}
	}
}

// parseArray parses an array into *s element by element, or null, which
// sets *s to nil. Like encoding/json it decodes into the elements *s
// already has, up to its capacity, truncates *s to the array's length, and
// leaves an empty array as an empty, non-nil slice.
func parseArray[T any](p *ingestParser, s *[]T, elem func(*ingestParser, *T) error) error {
	switch p.peek() {
	case 'n':
		if err := p.null(); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
	default:
		return p.mismatch("an array")
	}
	if err := p.open(); err != nil {
		return err
	}
	p.ws()
	v, i := *s, 0
	if p.peek() != ']' {
		for {
			if i == cap(v) {
				var zero T
				v = append(v, zero)
			} else if i >= len(v) {
				v = v[:i+1]
			}
			if err := elem(p, &v[i]); err != nil {
				return err
			}
			i++
			p.ws()
			if p.peek() == ']' {
				break
			}
			if p.peek() != ',' {
				return p.errorf("want ',' or ']' after an array element")
			}
			p.pos++
			p.ws()
		}
	}
	p.close()
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// parsePointer parses an object into the value *pp points to, allocating
// it when *pp is nil, or null, which sets *pp to nil.
func parsePointer[T any](p *ingestParser, pp **T, elem func(*ingestParser, *T) error) error {
	switch p.peek() {
	case 'n':
		if err := p.null(); err != nil {
			return err
		}
		*pp = nil
		return nil
	case '{':
	default:
		return p.mismatch("an object")
	}
	if *pp == nil {
		*pp = new(T)
	}
	return elem(p, *pp)
}

// str parses a string into *dst, or null, which leaves *dst as it is.
func (p *ingestParser) str(dst *string) error {
	switch p.peek() {
	case 'n':
		return p.null()
	case '"':
	default:
		return p.mismatch("a string")
	}
	s, err := p.quoted()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// int64 parses an integer literal in int64's range into *dst, or null,
// which leaves *dst as it is.
func (p *ingestParser) int64(dst *int64) error {
	switch c := p.peek(); {
	case c == 'n':
		return p.null()
	case c != '-' && (c < '0' || c > '9'):
		return p.mismatch("an integer")
	}
	start := p.pos
	neg := p.data[p.pos] == '-'
	if neg {
		p.pos++
	}
	n, ok, err := p.magnitude()
	switch {
	case err != nil:
		return err
	case !ok || !neg && n > math.MaxInt64 || neg && n > 1<<63:
		return p.rangeError(start, "int64")
	case neg:
		*dst = -int64(n) // n == 1<<63 wraps to math.MinInt64, as wanted
	default:
		*dst = int64(n)
	}
	return nil
}

// int parses an integer literal in int's range into *dst, or null, which
// leaves *dst as it is.
func (p *ingestParser) int(dst *int) error {
	start, v := p.pos, int64(*dst)
	if err := p.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return p.rangeError(start, "int")
	}
	*dst = int(v)
	return nil
}

// uint32 parses an integer literal in uint32's range into *dst, or null,
// which leaves *dst as it is. Like strconv.ParseUint, it takes no sign, so
// even -0 is out of range.
func (p *ingestParser) uint32(dst *uint32) error {
	switch c := p.peek(); {
	case c == 'n':
		return p.null()
	case c != '-' && (c < '0' || c > '9'):
		return p.mismatch("an integer")
	}
	start := p.pos
	if p.data[p.pos] == '-' {
		p.pos++
		if _, _, err := p.magnitude(); err != nil {
			return err
		}
		return p.rangeError(start, "uint32")
	}
	n, ok, err := p.magnitude()
	switch {
	case err != nil:
		return err
	case !ok || n > math.MaxUint32:
		return p.rangeError(start, "uint32")
	}
	*dst = uint32(n)
	return nil
}

// magnitude parses the digits of an integer literal, 0 or [1-9][0-9]*;
// ok is false when they overflow uint64. A literal that goes on with a
// fraction or an exponent is valid JSON but no integer, which no member
// takes.
func (p *ingestParser) magnitude() (n uint64, ok bool, err error) {
	start := p.pos
	ok = true
	if p.peek() == '0' {
		p.pos++
	} else {
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			d := uint64(p.data[p.pos] - '0')
			if n > (math.MaxUint64-d)/10 {
				ok = false
			}
			n = n*10 + d
			p.pos++
		}
		if p.pos == start {
			return 0, false, p.errorf("want a digit")
		}
	}
	return n, ok, p.integerEnd(start)
}

// integerEnd fails when the number that began at start goes on past its
// integer digits.
func (p *ingestParser) integerEnd(start int) error {
	switch p.peek() {
	case '.', 'e', 'E':
		return p.errorf("number starting at byte %d is not an integer", start)
	case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return p.errorf("leading zero in a number")
	}
	return nil
}

// skip parses and discards one value of any kind: an unknown member's. It
// tracks the containers it opens on its own stack rather than by
// recursion, so nesting costs no Go stack.
func (p *ingestParser) skip() error {
	var arr [64]byte
	open := arr[:0] // '{' or '[' for each container skip has open
	for {
		// A value starts here.
		switch c := p.peek(); c {
		case '{', '[':
			if err := p.open(); err != nil {
				return err
			}
			p.ws()
			if p.peek() == c+2 { // '}' and ']' follow '{' and '[' by two
				p.close()
				break
			}
			open = append(open, c)
			if c == '{' {
				if err := p.memberName(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := p.quoted(); err != nil {
				return err
			}
		case 't':
			if err := p.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := p.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := p.null(); err != nil {
				return err
			}
		default:
			if err := p.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one goes on.
		for {
			if len(open) == 0 {
				return nil
			}
			p.ws()
			c, top := p.peek(), open[len(open)-1]
			if c == ',' {
				p.pos++
				p.ws()
				if top == '{' {
					if err := p.memberName(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return p.errorf("want ',' or %q", top+2)
			}
			p.close()
			open = open[:len(open)-1]
		}
	}
}

// memberName parses an object member's name and the colon after it, while
// skipping.
func (p *ingestParser) memberName() error {
	if p.peek() != '"' {
		return p.errorf("want a member name")
	}
	if _, err := p.quoted(); err != nil {
		return err
	}
	return p.colon()
}

// number parses and discards a number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *ingestParser) number() error {
	if p.peek() == '-' {
		p.pos++
	}
	switch c := p.peek(); {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
		p.digits()
	default:
		return p.errorf("want a value")
	}
	if p.peek() == '.' {
		p.pos++
		if !p.digits() {
			return p.errorf("want a digit after the decimal point")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if !p.digits() {
			return p.errorf("want a digit in the exponent")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (p *ingestParser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// quoted parses a string and returns its unescaped bytes: a slice of the
// body when the string holds no escape and only valid UTF-8, else a slice
// of p.buf, valid until the next call.
func (p *ingestParser) quoted() ([]byte, error) {
	start := p.pos + 1
	i := start
	for i < len(p.data) {
		c := p.data[i]
		if plainByte[c] {
			i++
			continue
		}
		if c == '"' {
			p.pos = i + 1
			return p.data[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		r, n := utf8.DecodeRune(p.data[i:])
		if r == utf8.RuneError && n == 1 {
			break
		}
		i += n
	}
	return p.unescape(start, i)
}

// unescape finishes a string that needs rewriting, from its first byte
// that does, the way encoding/json's unquote does.
func (p *ingestParser) unescape(start, i int) ([]byte, error) {
	data := p.data
	b := append(p.buf[:0], data[start:i]...)
	for {
		if i >= len(data) {
			p.pos = i
			return nil, p.errorf("unterminated string")
		}
		switch c := data[i]; {
		case c == '"':
			p.buf, p.pos = b, i+1
			return b, nil
		case c == '\\':
			if i+1 >= len(data) {
				p.pos = i + 1
				return nil, p.errorf("unterminated string")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					p.pos = i
					return nil, p.errorf("bad \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; anything else leaves the
					// first half U+FFFD and the next escape to the loop.
					if r2 := escapedRune(data[i:]); utf16.DecodeRune(r, r2) != unicode.ReplacementChar {
						r = utf16.DecodeRune(r, r2)
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				p.pos = i
				return nil, p.errorf("bad escape")
			}
			i += 2
		case c < ' ':
			p.pos = i
			return nil, p.errorf("control character in a string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r) // invalid UTF-8 becomes U+FFFD
			i += n
		}
	}
}

// escapedRune returns the rune of a \uXXXX escape at the start of s, or -1.
func escapedRune(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// hex4 returns the value of four hex digits at the start of s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		d := hexValue[c]
		if d < 0 {
			return -1
		}
		r = r<<4 | rune(d)
	}
	return r
}

// plainByte marks the bytes a string holds as they are: ASCII, but not a
// control character, a quote or a backslash. Testing one table entry per
// byte makes the parser ~15 % faster on ID-heavy bodies than testing the
// byte's value ranges.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hexValue maps a byte to its hex digit's value, or -1.
var hexValue = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = int8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = int8(c - 'a' + 10)
		t[c-'a'+'A'] = int8(c - 'a' + 10)
	}
	return t
}()

// null parses the literal null.
func (p *ingestParser) null() error { return p.literal("null") }

func (p *ingestParser) literal(lit string) error {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errorf("want %s", lit)
	}
	p.pos += len(lit)
	return nil
}

// colon parses the colon between a member's name and its value, with the
// whitespace around it.
func (p *ingestParser) colon() error {
	p.ws()
	if p.peek() != ':' {
		return p.errorf("want ':' after a member name")
	}
	p.pos++
	p.ws()
	return nil
}

// open consumes a '{' or '[' and enforces the nesting bound.
func (p *ingestParser) open() error {
	if p.depth == maxIngestDepth {
		return p.errorf("exceeded max depth of %d", maxIngestDepth)
	}
	p.depth++
	p.pos++
	return nil
}

// close consumes a '}' or ']'.
func (p *ingestParser) close() {
	p.depth--
	p.pos++
}

func (p *ingestParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end of the body: no value,
// separator or whitespace starts with 0, so every caller rejects it.
func (p *ingestParser) peek() byte {
	if p.pos < len(p.data) {
		return p.data[p.pos]
	}
	return 0
}

// mismatch reports a value at pos that is valid JSON, or may be, but not
// of the kind the member takes.
func (p *ingestParser) mismatch(want string) error {
	if p.pos >= len(p.data) {
		return p.errorf("want %s", want)
	}
	return p.errorf("want %s, found %q", want, p.data[p.pos])
}

func (p *ingestParser) rangeError(start int, typ string) error {
	return fmt.Errorf("number %s at byte %d is out of range for %s", p.data[start:p.pos], start, typ)
}

func (p *ingestParser) errorf(format string, args ...any) error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("unexpected end of JSON input: "+format, args...)
	}
	return fmt.Errorf("byte %d: "+format, append([]any{p.pos}, args...)...)
}
