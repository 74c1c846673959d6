package ingest

// JSON-lines decoder: a reflection-free scanner that reads the body
// once into a pooled buffer and parses each object straight into a
// Summary, interning key strings and carving RTT slices through the
// decodeAlloc the binary wire uses. JSON is the default wire, and
// decoding a hot-json summary through encoding/json's reflection walk
// costs ~9 µs and ~11 allocations — most of an in-process POST.
//
// The accepted language is exactly encoding/json's for a Summary target,
// quirks included, so a device sees no contract change:
//
//   - field names match exactly, else under bytes.EqualFold (simple
//     Unicode folding: "ſent" and "SENT" both set Sent);
//   - unknown fields are syntax-checked and skipped at any depth up to
//     the stdlib's nesting limit (maxJSONDepth, counting the record);
//   - a duplicate key overwrites; JSON null is a no-op on strings,
//     numbers and bools and resets rtts_ns and sketch to nil;
//   - integer fields take only JSON integers in range (no fraction, no
//     exponent); floats go through strconv.ParseFloat;
//   - strings decode every escape, pair \u surrogates, and coerce lone
//     surrogates and invalid UTF-8 to U+FFFD;
//   - an rtts_ns element written as null keeps the slot's previous
//     value — the value an earlier rtts_ns array of the same record
//     left there, else 0 — which is what encoding/json's in-place slice
//     reuse yields;
//   - a sketch value is handed, as raw bytes, to agg.Sketch.UnmarshalJSON
//     so sketch semantics live in one place;
//   - records are whitespace-separated or back to back ("{}{}").
//
// FuzzDecodeBatch pins this against an encoding/json reference decoder.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/agg"
)

// maxJSONDepth is encoding/json's nesting limit: the record object is
// depth 1, and a value opening depth maxJSONDepth+1 is rejected.
const maxJSONDepth = 10000

// maxPooledJSONBuf bounds the scratch a pooled decoder keeps between
// requests; a larger body or RTT run is served, then dropped.
const maxPooledJSONBuf = 1 << 20

// Summary field ids, indexed into summaryFieldNames.
const (
	fieldDevice = iota
	fieldChipset
	fieldGroup
	fieldScenario
	fieldTimeMS
	fieldRTTs
	fieldSketch
	fieldSent
	fieldLost
	fieldBackgroundSent
	fieldEmulatedRTTNS
	fieldInflation
	fieldLayersOK
	fieldUserOverheadNS
	fieldSDIOOverheadNS
	fieldPSMInflationNS
	fieldPSMActive
	fieldCalibrated
	numSummaryFields
	fieldUnknown = -1
)

// summaryFieldNames are Summary's JSON names, for the case-folding
// fallback (byte slices so the comparison never converts a key).
var summaryFieldNames = func() [numSummaryFields][]byte {
	var out [numSummaryFields][]byte
	for i, s := range [numSummaryFields]string{
		"device", "chipset", "group", "scenario", "time_ms", "rtts_ns", "sketch",
		"sent", "lost", "background_sent", "emulated_rtt_ns", "inflation",
		"layers_ok", "user_overhead_ns", "sdio_overhead_ns", "psm_inflation_ns",
		"psm_active", "calibrated",
	} {
		out[i] = []byte(s)
	}
	return out
}()

// summaryField resolves a decoded key to its field id.
func summaryField(key []byte) int {
	switch string(key) {
	case "device":
		return fieldDevice
	case "chipset":
		return fieldChipset
	case "group":
		return fieldGroup
	case "scenario":
		return fieldScenario
	case "time_ms":
		return fieldTimeMS
	case "rtts_ns":
		return fieldRTTs
	case "sketch":
		return fieldSketch
	case "sent":
		return fieldSent
	case "lost":
		return fieldLost
	case "background_sent":
		return fieldBackgroundSent
	case "emulated_rtt_ns":
		return fieldEmulatedRTTNS
	case "inflation":
		return fieldInflation
	case "layers_ok":
		return fieldLayersOK
	case "user_overhead_ns":
		return fieldUserOverheadNS
	case "sdio_overhead_ns":
		return fieldSDIOOverheadNS
	case "psm_inflation_ns":
		return fieldPSMInflationNS
	case "psm_active":
		return fieldPSMActive
	case "calibrated":
		return fieldCalibrated
	}
	for f, name := range summaryFieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return fieldUnknown
}

// jsonDecoder is the pooled per-request state. Nothing a decoded
// Summary holds points into it: strings and RTTs are copied out
// through the decodeAlloc.
type jsonDecoder struct {
	buf   []byte // the whole request body
	off   int
	depth int // open containers, the record object included
	al    *decodeAlloc
	str   []byte  // unquote scratch for strings with escapes or non-ASCII
	rtts  []int64 // the record's rtts_ns slots (see rttsArray)
	// isArray has bit d set while the container at depth d is an array.
	isArray [maxJSONDepth/64 + 1]uint64
}

var jsonDecoderPool = sync.Pool{New: func() any { return new(jsonDecoder) }}

// DecodeBatch parses a JSON-lines batch (JSON objects separated by
// optional whitespace; a trailing newline is optional) and validates
// every record. maxSummaries <= 0 means unlimited. It reads r to EOF
// first, so a read error — an *http.MaxBytesError from a capped body
// included — is returned wrapped before any record is parsed. The
// accepted language is exactly what encoding/json accepts for a
// Summary (see the file comment); the decoded summaries share no
// memory with the decoder's pooled buffers.
func DecodeBatch(r io.Reader, maxSummaries int) ([]Summary, error) {
	d := jsonDecoderPool.Get().(*jsonDecoder)
	d.al = decodeAllocPool.Get().(*decodeAlloc)
	defer d.release()
	if err := d.readAll(r); err != nil {
		return nil, fmt.Errorf("ingest: batch: %w", err)
	}
	// JSON lines put one record per line, so the newline count sizes
	// the batch; the caps keep a hostile all-newline body from sizing it.
	hint := bytes.Count(d.buf, []byte{'\n'}) + 1
	if maxSummaries > 0 && hint > maxSummaries+1 {
		hint = maxSummaries + 1
	}
	out := make([]Summary, 0, min(hint, 1024))
	for {
		d.skipSpace()
		if d.off == len(d.buf) {
			break
		}
		out = append(out, Summary{})
		s := &out[len(out)-1]
		if err := d.summary(s); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out), err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out), err)
		}
		if maxSummaries > 0 && len(out) > maxSummaries {
			return nil, fmt.Errorf("ingest: batch exceeds %d summaries", maxSummaries)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	return out, nil
}

func (d *jsonDecoder) release() {
	decodeAllocPool.Put(d.al)
	d.al = nil
	if cap(d.buf) > maxPooledJSONBuf {
		d.buf = nil
	}
	if cap(d.rtts)*8 > maxPooledJSONBuf {
		d.rtts = nil
	}
	if cap(d.str) > maxPooledJSONBuf {
		d.str = nil
	}
	d.buf, d.str, d.rtts = d.buf[:0], d.str[:0], d.rtts[:0]
	jsonDecoderPool.Put(d)
}

// readAll reads the body into the pooled buffer. A read error — the
// HTTP handler's *http.MaxBytesError included — is returned as is.
func (d *jsonDecoder) readAll(r io.Reader) error {
	b := d.buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 16<<10)
	}
	d.off = 0
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func (d *jsonDecoder) syntaxErr(what string) error {
	if d.off >= len(d.buf) {
		return fmt.Errorf("json: unexpected end of input %s", what)
	}
	return fmt.Errorf("json: invalid character %q %s (offset %d)", d.buf[d.off], what, d.off)
}

func typeErr(field int, what string) error {
	return fmt.Errorf("json: cannot decode %s into field %s", what, summaryFieldNames[field])
}

func (d *jsonDecoder) skipSpace() {
	for d.off < len(d.buf) {
		if c := d.buf[d.off]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.off++
	}
}

// peek returns the byte at the cursor, 0 at end of input (0 is never
// valid where peek is used, so it reads as a syntax error).
func (d *jsonDecoder) peek() byte {
	if d.off < len(d.buf) {
		return d.buf[d.off]
	}
	return 0
}

// summary parses one record object into s.
func (d *jsonDecoder) summary(s *Summary) error {
	if d.peek() != '{' {
		// null, numbers, strings, arrays: none decodes to a valid record.
		return d.syntaxErr("looking for a record object")
	}
	d.off++
	d.depth = 1
	rttN := -1 // final rtts_ns length; -1 is nil, above the cap is over-cap
	d.rtts = d.rtts[:0]
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr("looking for an object key")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		f := summaryField(key)
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxErr("after object key")
		}
		d.off++
		d.skipSpace()
		if f == fieldRTTs {
			rttN, err = d.rttsArray()
		} else {
			err = d.field(s, f)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
			continue
		case '}':
			d.off++
		default:
			return d.syntaxErr("after object key:value pair")
		}
		break
	}
	if rttN > maxRTTsPerSummary {
		return fmt.Errorf("ingest: %.32s: more than %d RTTs", s.Device, maxRTTsPerSummary)
	}
	if rttN > 0 {
		s.RTTs = d.al.int64s(rttN)
		copy(s.RTTs, d.rtts)
	}
	return nil
}

// field decodes the value at the cursor into field f of s.
func (d *jsonDecoder) field(s *Summary, f int) error {
	c := d.peek()
	if c == 'n' {
		// null: resets the pointer field, leaves every other one alone.
		if f == fieldSketch {
			s.Sketch = nil
		}
		return d.literal("null")
	}
	switch f {
	case fieldUnknown:
		return d.skip()
	case fieldSketch:
		start := d.off
		if err := d.skip(); err != nil {
			return err
		}
		if s.Sketch == nil {
			s.Sketch = new(agg.Sketch)
		}
		return s.Sketch.UnmarshalJSON(d.buf[start:d.off])
	case fieldDevice, fieldChipset, fieldGroup, fieldScenario:
		if c != '"' {
			return typeErr(f, "non-string")
		}
		b, err := d.string()
		if err != nil {
			return err
		}
		v := d.al.str(b)
		switch f {
		case fieldDevice:
			s.Device = v
		case fieldChipset:
			s.Chipset = v
		case fieldGroup:
			s.Group = v
		default:
			s.Scenario = v
		}
	case fieldLayersOK, fieldPSMActive, fieldCalibrated:
		var v bool
		switch c {
		case 't':
			v = true
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		default:
			return typeErr(f, "non-bool")
		}
		switch f {
		case fieldLayersOK:
			s.LayersOK = v
		case fieldPSMActive:
			s.PSMActive = v
		default:
			s.Calibrated = v
		}
	case fieldInflation:
		if c != '-' && (c < '0' || c > '9') {
			return typeErr(f, "non-number")
		}
		num, err := d.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return typeErr(f, "number "+string(num))
		}
		s.Inflation = v
	default: // the integer fields
		v, err := d.int64(f)
		if err != nil {
			return err
		}
		switch f {
		case fieldTimeMS:
			s.TimeMS = v
		case fieldEmulatedRTTNS:
			s.EmulatedRTTNS = v
		case fieldUserOverheadNS:
			s.UserOverheadNS = v
		case fieldSDIOOverheadNS:
			s.SDIOOverheadNS = v
		case fieldPSMInflationNS:
			s.PSMInflationNS = v
		default:
			if int64(int(v)) != v {
				return typeErr(f, "out-of-range number")
			}
			switch f {
			case fieldSent:
				s.Sent = int(v)
			case fieldLost:
				s.Lost = int(v)
			default:
				s.BackgroundSent = int(v)
			}
		}
	}
	return nil
}

// rttsArray parses an rtts_ns value into d.rtts and returns the length
// the record's RTTs take from it: -1 for null, else the element count.
// d.rtts keeps its slots across duplicate rtts_ns keys of one record,
// because a null element leaves its slot as an earlier array wrote it
// (see the file comment); null and [] clear them, as both replace
// encoding/json's slice with a fresh one. Past maxRTTsPerSummary
// elements are checked but no longer stored, so a hostile array cannot
// grow the scratch; the caller rejects the record unless a later
// rtts_ns key replaces the array.
func (d *jsonDecoder) rttsArray() (int, error) {
	switch d.peek() {
	case 'n':
		d.rtts = d.rtts[:0]
		return -1, d.literal("null")
	case '[':
	default:
		return 0, typeErr(fieldRTTs, "non-array")
	}
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		d.rtts = d.rtts[:0]
		return 0, nil
	}
	n := 0
	for {
		var v int64
		if d.peek() == 'n' {
			if err := d.literal("null"); err != nil {
				return 0, err
			}
			if n < len(d.rtts) {
				v = d.rtts[n]
			}
		} else {
			var err error
			if v, err = d.int64(fieldRTTs); err != nil {
				return 0, err
			}
		}
		switch {
		case n < len(d.rtts):
			d.rtts[n] = v
		case n < maxRTTsPerSummary:
			d.rtts = append(d.rtts, v)
		}
		n++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
			continue
		case ']':
			d.off++
			return n, nil
		default:
			return 0, d.syntaxErr("after array element")
		}
	}
}

// int64 parses a JSON integer for field f. Fractions, exponents and
// values outside int64 are type errors, exactly where strconv.ParseInt
// would fail on the number's text; leading zeros are syntax errors.
func (d *jsonDecoder) int64(f int) (int64, error) {
	buf, i := d.buf, d.off
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(buf); i++ {
		c := buf[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	switch n := i - start; {
	case n == 0:
		d.off = i
		return 0, d.syntaxErr("looking for an integer")
	case n > 1 && buf[start] == '0':
		d.off = start + 1
		return 0, d.syntaxErr("after leading zero")
	case n > 19: // no int64 has 20 digits; 19 cannot wrap the uint64
		return 0, typeErr(f, "out-of-range number")
	}
	if i < len(buf) {
		if c := buf[i]; c == '.' || c == 'e' || c == 'E' {
			return 0, typeErr(f, "non-integer number")
		}
	}
	d.off = i
	if neg {
		if u > 1<<63 {
			return 0, typeErr(f, "out-of-range number")
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, typeErr(f, "out-of-range number")
	}
	return int64(u), nil
}

// number scans a JSON number at the cursor and returns its text.
func (d *jsonDecoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxErr("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return nil, d.syntaxErr("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return nil, d.syntaxErr("in exponent of numeric literal")
		}
	}
	return d.buf[start:d.off], nil
}

// digits skips a run of decimal digits, reporting whether there was one.
func (d *jsonDecoder) digits() bool {
	start := d.off
	for d.off < len(d.buf) && d.buf[d.off] >= '0' && d.buf[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

func (d *jsonDecoder) literal(word string) error {
	if len(d.buf)-d.off < len(word) || string(d.buf[d.off:d.off+len(word)]) != word {
		return d.syntaxErr("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// string decodes the string at the cursor (which is on its opening
// quote). Plain ASCII without escapes — every key and nearly every
// value — comes back as a slice of the body; anything else is unquoted
// into d.str. Either way the bytes are only valid until the next call.
func (d *jsonDecoder) string() ([]byte, error) {
	buf := d.buf
	start := d.off + 1
	i := start
	for i < len(buf) && plainStringByte[buf[i]] {
		i++
	}
	if i < len(buf) && buf[i] == '"' {
		d.off = i + 1
		return buf[start:i], nil
	}
	return d.unquote(start, i)
}

// plainStringByte marks the bytes a string can hold verbatim with no
// decoding: printable ASCII other than the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote finishes a string whose plain prefix is buf[start:i].
func (d *jsonDecoder) unquote(start, i int) ([]byte, error) {
	out := append(d.str[:0], d.buf[start:i]...)
	for i < len(d.buf) {
		switch c := d.buf[i]; {
		case c == '"':
			d.off = i + 1
			d.str = out
			return out, nil
		case c == '\\':
			if i+1 >= len(d.buf) {
				d.off = len(d.buf)
				return nil, d.syntaxErr("in string escape code")
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i:])
				if r < 0 {
					d.off = i
					return nil, d.syntaxErr("in \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d.buf[i:])); dec != unicode.ReplacementChar {
						i += 6
						out = utf8.AppendRune(out, dec)
						continue
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntaxErr("in string escape code")
			}
			i += 2
		case c < 0x20:
			d.off = i
			return nil, d.syntaxErr("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, d.buf[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(d.buf)
	d.str = out
	return nil, d.syntaxErr("in string literal")
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skipString checks the string at the cursor without decoding it.
func (d *jsonDecoder) skipString() error {
	i := d.off + 1
	for i < len(d.buf) {
		switch c := d.buf[i]; {
		case c == '"':
			d.off = i + 1
			return nil
		case c == '\\':
			if i+1 < len(d.buf) && d.buf[i+1] == 'u' {
				if hex4(d.buf[i:]) < 0 {
					d.off = i
					return d.syntaxErr("in \\u escape")
				}
				i += 6
				continue
			}
			if i+1 < len(d.buf) && strings.IndexByte(`"\/bfnrt`, d.buf[i+1]) < 0 {
				d.off = i + 1
				return d.syntaxErr("in string escape code")
			}
			i += 2
		case c < 0x20:
			d.off = i
			return d.syntaxErr("in string literal")
		default:
			i++
		}
	}
	d.off = len(d.buf)
	return d.syntaxErr("in string literal")
}

// skip checks and skips the value at the cursor, nested containers
// included, without allocating: container kinds are tracked in the
// isArray bitset, bounded by maxJSONDepth.
func (d *jsonDecoder) skip() error {
	base := d.depth
	for {
		// The cursor is at the start of a value.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			d.off++
			d.depth++
			if d.depth > maxJSONDepth {
				return errors.New("json: exceeded max depth")
			}
			word, bit := d.depth/64, uint64(1)<<(d.depth%64)
			d.skipSpace()
			if c == '[' {
				d.isArray[word] |= bit
				if d.peek() != ']' {
					continue
				}
			} else {
				d.isArray[word] &^= bit
				if d.peek() == '"' {
					if err := d.skipKey(); err != nil {
						return err
					}
					continue
				}
				if d.peek() != '}' {
					return d.syntaxErr("looking for an object key")
				}
			}
			d.off++
			d.depth--
		case c == '"':
			if err := d.skipString(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || (c >= '0' && c <= '9'):
			if _, err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntaxErr("looking for beginning of value")
		}
		// A value ended: close containers until one continues.
		for {
			if d.depth == base {
				return nil
			}
			inArray := d.isArray[d.depth/64]&(uint64(1)<<(d.depth%64)) != 0
			d.skipSpace()
			c := d.peek()
			d.off++
			if c == ',' {
				d.skipSpace()
				if !inArray {
					if d.peek() != '"' {
						return d.syntaxErr("looking for an object key")
					}
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			}
			if (inArray && c == ']') || (!inArray && c == '}') {
				d.depth--
				continue
			}
			d.off--
			return d.syntaxErr("after container element")
		}
	}
}

// skipKey skips an object key and its colon inside a skipped value.
func (d *jsonDecoder) skipKey() error {
	if err := d.skipString(); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return d.syntaxErr("after object key")
	}
	d.off++
	d.skipSpace()
	return nil
}
