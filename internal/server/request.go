package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"mpx/internal/oracle"
)

// Build and query bodies are decoded by one strict scanner over the
// size-capped body bytes, with no reflection and nothing allocated per
// pair: pairs land straight in a pooled []oracle.Pair and verts in a
// pooled []uint32. It accepts exactly what encoding/json with
// DisallowUnknownFields would decode into the request struct, with two
// deliberate exceptions:
//
//   - any non-whitespace after the object is a 400, where
//     Decoder.More lets a trailing '}' or ']' through;
//   - a null element inside pairs or verts is a 400, where encoding/json
//     reads it as vertex 0. A null pairs or verts value means absent.
//
// Keys match as encoding/json matches them: unescaped, then compared with
// bytes.EqualFold, the last duplicate winning. Numbers follow strconv on
// the JSON literal: uint64 seed, float64 beta and delta, int level, and
// vertex ids are integers in [0, 2^32).

// field is one key a request body may carry. Each handler passes the set
// it accepts; any other key is an unknown field.
type field uint16

const (
	fieldApp field = 1 << iota
	fieldWeighted
	fieldBeta
	fieldDelta
	fieldSeed
	fieldOp
	fieldLevel
	fieldPairs
	fieldVerts

	buildFields = fieldApp | fieldWeighted | fieldBeta | fieldDelta | fieldSeed
	queryFields = buildFields | fieldOp | fieldLevel | fieldPairs | fieldVerts
)

var fieldNames = [...]struct {
	name []byte
	f    field
}{
	{[]byte("app"), fieldApp},
	{[]byte("weighted"), fieldWeighted},
	{[]byte("beta"), fieldBeta},
	{[]byte("delta"), fieldDelta},
	{[]byte("seed"), fieldSeed},
	{[]byte("op"), fieldOp},
	{[]byte("level"), fieldLevel},
	{[]byte("pairs"), fieldPairs},
	{[]byte("verts"), fieldVerts},
}

func lookupField(key []byte) field {
	for _, fn := range fieldNames {
		if bytes.EqualFold(key, fn.name) {
			return fn.f
		}
	}
	return 0
}

// request is a decoded build or query body. The build-configuration
// fields select the build; a query's op, level, pairs and verts are
// checked against it by handleQuery.
type request struct {
	buildRequest
	op       string
	level    int
	hasLevel bool
	// hasPairs and hasVerts report a present, non-null value (an empty
	// array counts).
	hasPairs, hasVerts bool
	pairs              []oracle.Pair
	verts              []uint32
	// badPair is the index of the first pairs element that is not a
	// two-element array (-1: none), badPairLen its length. The arity is
	// reported by validation, after the build lookup, so a query against
	// an unbuilt configuration is a 404 whatever its pairs hold.
	badPair, badPairLen int
	// nullPairs and nullVerts record a null element in the last pairs and
	// verts value.
	nullPairs, nullVerts bool
}

// reset clears r for a new body, keeping its slices' storage.
func (r *request) reset() {
	*r = request{pairs: r.pairs[:0], verts: r.verts[:0], badPair: -1}
}

// scratch holds one request's reusable buffers: the body, the decoded
// request, the oracle's answers and the encoded response.
type scratch struct {
	body     []byte
	req      request
	dists    []int32
	wdists   []float64
	clusters []uint32
	same     []bool
	out      []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// A scratch goes back to the pool without any buffer larger than these
// caps (1<<16 entries need about 1 MiB of body), so a one-off huge batch
// does not pin its buffers.
const (
	maxPooledEntries = 1 << 16
	maxPooledBytes   = 1 << 20
)

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	dropOver(&sc.body, maxPooledBytes)
	dropOver(&sc.out, maxPooledBytes)
	dropOver(&sc.req.pairs, maxPooledEntries)
	dropOver(&sc.req.verts, maxPooledEntries)
	dropOver(&sc.dists, maxPooledEntries)
	dropOver(&sc.wdists, maxPooledEntries)
	dropOver(&sc.clusters, maxPooledEntries)
	dropOver(&sc.same, maxPooledEntries)
	scratchPool.Put(sc)
}

func dropOver[T any](s *[]T, limit int) {
	if cap(*s) > limit {
		*s = nil
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeRequest reads the size-capped body into sc.body and decodes it
// into sc.req, accepting the keys in allowed. A false return means the
// error response has been written: 413 too_large for a body over the cap,
// 400 bad_request otherwise.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, sc *scratch, allowed field) bool {
	body, truncated, err := readBody(http.MaxBytesReader(w, r.Body, s.maxJSON), sc.body)
	sc.body = body
	if err == nil {
		sc.req.reset()
		err = decodeBody(body, truncated, allowed, &sc.req)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, errTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, kindTooLarge, "request body exceeds %d bytes", s.maxJSON)
	default:
		writeError(w, http.StatusBadRequest, kindBadRequest, "decoding request body: %v", err)
	}
	return false
}

var errTooLarge = errors.New("request body too large")

// readBody reads body to its end into buf's storage. truncated reports
// that the body hit its http.MaxBytesReader cap; the bytes up to the cap
// are returned.
func readBody(body io.Reader, buf []byte) (data []byte, truncated bool, err error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, false, nil
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return buf, true, nil
			}
			return buf, false, err
		}
	}
}

// maxDepth is encoding/json's nesting limit: deeper input is a syntax
// error.
const maxDepth = 10000

// decoder scans one body. Failures are sticky: syntax is the first
// syntax error, eof marks input that ended inside the value, and typeErr
// is the first well-formed value that does not fit the request (wrong
// kind, out of range, unknown key), which does not stop the scan.
type decoder struct {
	data    []byte
	pos     int
	depth   int
	syntax  string
	eof     bool
	typeErr string
}

// decodeBody decodes data, the whole body or, when truncated, its bytes
// up to the cap, into req. A body cut off inside its value is
// errTooLarge. As with encoding/json's Decoder, the value must be
// complete for a type error to count, and a truncated body whose object
// completes is decoded, the bytes past the cap unread.
func decodeBody(data []byte, truncated bool, allowed field, req *request) error {
	d := decoder{data: data}
	if c, ok := d.peek(); ok {
		switch c {
		case '{':
			d.object(func(key []byte) {
				f := lookupField(key)
				if f&allowed == 0 {
					d.typeError("unknown field %q", key)
					d.skipValue()
					return
				}
				d.field(req, f)
			})
		case 'n':
			d.literal("null") // the zero request, as encoding/json decodes it
		default:
			d.typeError("request body must be a JSON object")
			d.skipValue()
		}
		// A top-level scalar is only known complete from the byte after
		// it, which a truncated body does not deliver.
		if truncated && c != '{' && c != '[' && d.pos == len(d.data) {
			d.eof = true
		}
	}
	switch {
	case d.syntax != "":
		return errors.New(d.syntax)
	case d.eof && truncated:
		return errTooLarge
	case d.eof:
		return errors.New("unexpected end of JSON input")
	case d.typeErr != "":
		return errors.New(d.typeErr)
	}
	if d.skipSpace(); d.pos < len(d.data) {
		return fmt.Errorf("trailing content after the JSON object at offset %d", d.pos)
	}
	if req.nullPairs || req.nullVerts {
		return errors.New("null is not a vertex id")
	}
	return nil
}

func (d *decoder) stopped() bool { return d.syntax != "" || d.eof }

func (d *decoder) fail(format string, args ...any) {
	if d.syntax == "" {
		d.syntax = fmt.Sprintf(format, args...)
	}
}

func (d *decoder) typeError(format string, args ...any) {
	if d.typeErr == "" {
		d.typeErr = fmt.Sprintf(format, args...)
	}
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte; false means the input
// ended (and marks eof).
func (d *decoder) peek() (byte, bool) {
	d.skipSpace()
	if d.pos == len(d.data) {
		d.eof = true
		return 0, false
	}
	return d.data[d.pos], true
}

func (d *decoder) push() bool {
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth at offset %d", d.pos)
		return false
	}
	return true
}

// object scans the object whose '{' is at d.pos, calling member with
// each unquoted key and d.pos at its value.
func (d *decoder) object(member func(key []byte)) {
	d.pos++
	if !d.push() {
		return
	}
	c, ok := d.peek()
	if !ok {
		return
	}
	if c == '}' {
		d.pos++
		d.depth--
		return
	}
	for {
		if c != '"' {
			d.fail("invalid character %q looking for beginning of object key string", c)
			return
		}
		key, plain := d.str()
		if d.stopped() {
			return
		}
		if !plain {
			key = unquote(key)
		}
		if c, ok = d.peek(); !ok {
			return
		}
		if c != ':' {
			d.fail("invalid character %q after object key", c)
			return
		}
		d.pos++
		if _, ok = d.peek(); !ok {
			return
		}
		member(key)
		if d.stopped() {
			return
		}
		if c, ok = d.peek(); !ok {
			return
		}
		switch c {
		case ',':
			d.pos++
			if c, ok = d.peek(); !ok {
				return
			}
		case '}':
			d.pos++
			d.depth--
			return
		default:
			d.fail("invalid character %q after object key:value pair", c)
			return
		}
	}
}

// array scans the array whose '[' is at d.pos, calling elem with d.pos
// at each element.
func (d *decoder) array(elem func()) {
	d.pos++
	if !d.push() {
		return
	}
	c, ok := d.peek()
	if !ok {
		return
	}
	if c == ']' {
		d.pos++
		d.depth--
		return
	}
	for {
		elem()
		if d.stopped() {
			return
		}
		if c, ok = d.peek(); !ok {
			return
		}
		switch c {
		case ',':
			d.pos++
			if _, ok = d.peek(); !ok {
				return
			}
		case ']':
			d.pos++
			d.depth--
			return
		default:
			d.fail("invalid character %q after array element", c)
			return
		}
	}
}

// skipValue scans the value at d.pos, checking its syntax only.
func (d *decoder) skipValue() {
	switch c := d.data[d.pos]; {
	case c == '{':
		d.object(func([]byte) { d.skipValue() })
	case c == '[':
		d.array(d.skipValue)
	case c == '"':
		d.str()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.fail("invalid character %q looking for beginning of value", c)
	}
}

// str scans the string literal whose opening quote is at d.pos and
// returns its raw contents; plain reports that they hold no escape and no
// non-ASCII byte, so they are their own value.
func (d *decoder) str() (raw []byte, plain bool) {
	start := d.pos + 1
	plain = true
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], plain
		case c == '\\':
			plain = false
			if i+1 == len(d.data) {
				d.eof = true
				return nil, false
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(d.data) {
						d.eof = true
						return nil, false
					}
					if hexVal(d.data[j]) < 0 {
						d.fail("invalid character %q in \\u hexadecimal character escape", d.data[j])
						return nil, false
					}
				}
				i += 6
			default:
				d.fail("invalid character %q in string escape code", d.data[i+1])
				return nil, false
			}
		case c < 0x20:
			d.fail("invalid character %q in string literal", c)
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.eof = true
	return nil, false
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// hex4 decodes the four hex digits after a "\u" at s[0].
func hex4(s []byte) rune {
	return hexVal(s[2])<<12 | hexVal(s[3])<<8 | hexVal(s[4])<<4 | hexVal(s[5])
}

// unquote returns the value of a scanned string literal's contents as
// encoding/json decodes it: escapes resolved, surrogate pairs joined, and
// invalid UTF-8 or a lone surrogate replaced with U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s))
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
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
				rr := hex4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r:])); dec != unicode.ReplacementChar {
							r += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// literal scans the keyword lit (true, false or null) at d.pos.
func (d *decoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.pos+i == len(d.data) {
			d.eof = true
			return
		}
		if c := d.data[d.pos+i]; c != lit[i] {
			d.fail("invalid character %q in literal %s", c, lit)
			return
		}
	}
	d.pos += len(lit)
}

// number scans the number literal at d.pos and returns it.
func (d *decoder) number() []byte {
	data, start, i := d.data, d.pos, d.pos
	digits := func() {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
	}
	// digit requires one digit at i; false means the literal is cut off
	// or malformed (and recorded).
	digit := func() bool {
		switch {
		case i == len(data):
			d.eof = true
		case data[i] < '0' || data[i] > '9':
			d.fail("invalid character %q in numeric literal", data[i])
		default:
			return true
		}
		return false
	}
	if data[i] == '-' {
		i++
	}
	if !digit() {
		return nil
	}
	if data[i] == '0' {
		i++
	} else {
		digits()
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digit() {
			return nil
		}
		digits()
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digit() {
			return nil
		}
		digits()
	}
	d.pos = i
	return data[start:i]
}

// field decodes the value at d.pos into req's field f. As in
// encoding/json, null leaves a scalar field as it is and clears level,
// pairs and verts; a value of the wrong kind is a type error.
func (d *decoder) field(req *request, f field) {
	c := d.data[d.pos]
	if c == 'n' {
		d.literal("null")
		switch f {
		case fieldLevel:
			req.level, req.hasLevel = 0, false
		case fieldPairs:
			req.pairs, req.hasPairs, req.badPair, req.nullPairs = req.pairs[:0], false, -1, false
		case fieldVerts:
			req.verts, req.hasVerts, req.nullVerts = req.verts[:0], false, false
		}
		return
	}
	switch f {
	case fieldApp:
		d.stringField(&req.App, "app")
	case fieldOp:
		d.stringField(&req.op, "op")
	case fieldWeighted:
		switch c {
		case 't':
			d.literal("true")
			req.Weighted = true
		case 'f':
			d.literal("false")
			req.Weighted = false
		default:
			d.mismatch("weighted", "a boolean")
		}
	case fieldBeta:
		if lit := d.numberField("beta"); lit != nil {
			d.float(&req.Beta, "beta", lit)
		}
	case fieldDelta:
		if lit := d.numberField("delta"); lit != nil {
			d.float(&req.Delta, "delta", lit)
		}
	case fieldSeed:
		if lit := d.numberField("seed"); lit != nil {
			if v, err := strconv.ParseUint(string(lit), 10, 64); err != nil {
				d.typeError("seed %s is not an integer in [0, 2^64)", lit)
			} else {
				req.Seed = v
			}
		}
	case fieldLevel:
		if lit := d.numberField("level"); lit != nil {
			if v, err := strconv.ParseInt(string(lit), 10, 0); err != nil {
				d.typeError("level %s is not an integer", lit)
			} else {
				req.level, req.hasLevel = int(v), true
			}
		}
	case fieldPairs:
		if c != '[' {
			d.mismatch("pairs", "an array of [u, v] pairs")
			return
		}
		req.pairs, req.hasPairs, req.badPair, req.nullPairs = req.pairs[:0], true, -1, false
		d.array(func() { d.pair(req) })
	case fieldVerts:
		if c != '[' {
			d.mismatch("verts", "an array of vertex ids")
			return
		}
		req.verts, req.hasVerts, req.nullVerts = req.verts[:0], true, false
		d.array(func() { req.verts = append(req.verts, d.vertex("verts", &req.nullVerts)) })
	}
}

// plainID reads a vertex id at data[i] spelled the only valid way: at
// most 10 digits, no leading zero, not continued by a fraction or an
// exponent, and below 2^32. It returns the id and the offset after it;
// false leaves the input for the general number path to decide.
func plainID(data []byte, i int) (uint32, int, bool) {
	start := i
	var v uint64
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		v = v*10 + uint64(data[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > 10 || v > math.MaxUint32 || n > 1 && data[start] == '0' ||
		i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0, false
	}
	return uint32(v), i, true
}

// plainPair reads the pairs element at d.pos if it is [u, v] with plain
// ids, the shape nearly every client sends; false leaves it to pair.
func (d *decoder) plainPair() (oracle.Pair, bool) {
	data := d.data
	ws := func(i int) int {
		for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
			i++
		}
		return i
	}
	u, i, ok := plainID(data, ws(d.pos+1))
	if i = ws(i); !ok || i == len(data) || data[i] != ',' {
		return oracle.Pair{}, false
	}
	v, i, ok := plainID(data, ws(i+1))
	if i = ws(i); !ok || i == len(data) || data[i] != ']' {
		return oracle.Pair{}, false
	}
	d.pos = i + 1
	return oracle.Pair{U: u, V: v}, true
}

// pair decodes one pairs element. Like encoding/json into [][]uint32, it
// accepts an array of any length (or null, length 0); the first one that
// is not [u, v] is recorded for validation to report.
func (d *decoder) pair(req *request) {
	if d.data[d.pos] == '[' {
		if p, ok := d.plainPair(); ok {
			req.pairs = append(req.pairs, p)
			return
		}
	}
	var p oracle.Pair
	k := 0
	switch d.data[d.pos] {
	case '[':
		d.array(func() {
			v := d.vertex("pairs", &req.nullPairs)
			switch k {
			case 0:
				p.U = v
			case 1:
				p.V = v
			}
			k++
		})
	case 'n':
		d.literal("null")
	default:
		d.mismatch("pairs", "an array of [u, v] pairs")
	}
	if k != 2 && req.badPair < 0 {
		req.badPair, req.badPairLen = len(req.pairs), k
	}
	req.pairs = append(req.pairs, p)
}

// vertex decodes one vertex id of a pairs or verts array; a null element
// sets *null.
func (d *decoder) vertex(name string, null *bool) uint32 {
	if v, end, ok := plainID(d.data, d.pos); ok {
		d.pos = end
		return v
	}
	switch c := d.data[d.pos]; {
	case c == '-' || '0' <= c && c <= '9':
		lit := d.number()
		if lit == nil {
			return 0
		}
		if v, end, ok := plainID(lit, 0); ok && end == len(lit) {
			return v // "0" before more digits: the syntax error comes next
		}
		d.typeError("%s: %s is not a vertex id (an integer in [0, 2^32))", name, lit)
	case c == 'n':
		d.literal("null")
		*null = true
	default:
		d.mismatch(name, "vertex ids")
	}
	return 0
}

func (d *decoder) stringField(dst *string, name string) {
	if d.data[d.pos] != '"' {
		d.mismatch(name, "a string")
		return
	}
	raw, plain := d.str()
	if d.stopped() {
		return
	}
	if !plain {
		raw = unquote(raw)
	}
	*dst = string(raw)
}

// numberField scans a number literal; nil means it was not one (recorded).
func (d *decoder) numberField(name string) []byte {
	if c := d.data[d.pos]; c != '-' && (c < '0' || c > '9') {
		d.mismatch(name, "a number")
		return nil
	}
	return d.number()
}

func (d *decoder) float(dst *float64, name string, lit []byte) {
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.typeError("%s %s is out of the float64 range", name, lit)
		return
	}
	*dst = v
}

// mismatch records a value of the wrong kind for name and skips it.
func (d *decoder) mismatch(name, want string) {
	d.typeError("%s must be %s", name, want)
	d.skipValue()
}
