package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"metis/internal/demand"
)

// The wire codec of the two admission endpoints, POST /v1/requests and
// POST /v1/requests/batch: one pass over the request body into
// demand.Request values, and the replies appended byte for byte as
// json.NewEncoder(w).Encode wrote them. Nothing else in the API uses
// it; every other endpoint stays on encoding/json.
//
// Compatibility contract: the decoder accepts exactly the bodies that
// json.Decoder with DisallowUnknownFields accepted into a
// []demand.Request (batch) or a demand.Request (single), and yields the
// same values (FuzzIntakeDecode holds it to that):
//
//   - the full JSON number grammar; ints through strconv.ParseInt,
//     floats through strconv.ParseFloat, so -0 keeps its sign and an
//     out-of-range number is refused;
//   - keys may carry escapes and match a field exactly or, failing
//     that, by bytes.EqualFold (encoding/json's foldName);
//   - a repeated key overwrites, so the last one wins;
//   - null leaves a field as it was, is a zero request as an element,
//     and an empty batch as the whole body;
//   - only the first JSON value is read: trailing bytes are ignored;
//   - unknown fields, mistyped values and syntax errors are refused,
//     with the byte offset (and the field) in the message.
//
// A value that cannot be accepted is refused where it starts: a field
// holds a number or null, an element an object or null, so nothing
// nested deeper is ever walked.

// maxPooledBody is the largest buffer returned to intakePool; a bigger
// body's buffer is left to the collector.
const maxPooledBody = 1 << 20

// intakePool holds the buffers a handler reads a body into and then
// appends its reply to.
var intakePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getIntakeBuf() *bytes.Buffer { return intakePool.Get().(*bytes.Buffer) }

func putIntakeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		intakePool.Put(buf)
	}
}

// writeReply sends b, a JSON reply ending in a newline, as writeJSON
// would have sent the value it encodes.
func writeReply(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// Request fields in declaration order; the index is the field's id.
var requestFields = [...]string{"id", "src", "dst", "start", "end", "rate", "value"}

const (
	fieldID = iota
	fieldSrc
	fieldDst
	fieldStart
	fieldEnd
	fieldRate
	fieldValue
)

// intakeDecoder walks one body; i is the next unread byte.
type intakeDecoder struct {
	b []byte
	i int
}

// errAt refuses the body at byte offset off.
func errAt(off int, format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", off, fmt.Sprintf(format, args...))
}

// unexpected refuses the byte at d.i (or the end of the body).
func (d *intakeDecoder) unexpected(want string) error {
	if d.i >= len(d.b) {
		return errAt(d.i, "unexpected end of body, want %s", want)
	}
	return errAt(d.i, "unexpected %q, want %s", d.b[d.i:d.i+1], want)
}

// next skips JSON whitespace and returns the byte there, or 0 at the
// end of the body (0 is never valid where next is asked).
func (d *intakeDecoder) next() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null, whose 'n' is at d.i.
func (d *intakeDecoder) null() error {
	if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		return d.unexpected("null")
	}
	d.i += 4
	return nil
}

// decodeBatch decodes a POST /v1/requests/batch body.
func decodeBatch(body []byte) ([]demand.Request, error) {
	d := intakeDecoder{b: body}
	switch d.next() {
	case 'n':
		return nil, d.null()
	case '[':
		d.i++
	default:
		return nil, d.unexpected("an array of requests")
	}
	// A marshalled request is 60-100 bytes, so this is one allocation
	// that fits the batch.
	reqs := make([]demand.Request, 0, len(body)/64+1)
	if d.next() == ']' {
		d.i++
		return reqs, nil
	}
	for {
		reqs = append(reqs, demand.Request{})
		if err := d.element(&reqs[len(reqs)-1]); err != nil {
			return nil, err
		}
		switch d.next() {
		case ',':
			d.i++
		case ']':
			d.i++
			return reqs, nil
		default:
			return nil, d.unexpected("',' or ']'")
		}
	}
}

// decodeRequest decodes a POST /v1/requests body.
func decodeRequest(body []byte) (demand.Request, error) {
	d := intakeDecoder{b: body}
	var r demand.Request
	err := d.element(&r)
	return r, err
}

// element decodes one request object, or null, into the zero request r.
func (d *intakeDecoder) element(r *demand.Request) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '{':
		d.i++
	default:
		return d.unexpected("a request object")
	}
	if d.next() == '}' {
		d.i++
		return nil
	}
	for {
		if d.next() != '"' {
			return d.unexpected("a field name")
		}
		f, err := d.key()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.unexpected("':'")
		}
		d.i++
		if err := d.value(r, f); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// key consumes the string at d.i and returns the field it names.
func (d *intakeDecoder) key() (int, error) {
	at := d.i
	d.i++
	j := d.i
	for j < len(d.b) && d.b[j] != '"' && d.b[j] != '\\' && d.b[j] >= 0x20 {
		j++
	}
	var name []byte
	if j < len(d.b) && d.b[j] == '"' {
		name, d.i = d.b[d.i:j], j+1
	} else {
		var buf [32]byte
		var err error
		if name, err = d.unquote(buf[:0]); err != nil {
			return 0, err
		}
	}
	for f, n := range requestFields {
		if string(name) == n {
			return f, nil
		}
	}
	for f, n := range requestFields {
		if bytes.EqualFold(name, []byte(n)) {
			return f, nil
		}
	}
	return 0, errAt(at, "unknown field %q", name)
}

// unquote appends the rest of the string at d.i, escapes decoded, to
// dst and consumes it with its closing quote. A surrogate escape
// decodes to U+FFFD, paired or not: no field name holds one, so only
// the escape's syntax matters.
func (d *intakeDecoder) unquote(dst []byte) ([]byte, error) {
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return dst, nil
		case c < 0x20:
			return nil, errAt(d.i, "control character %#x in string", c)
		case c != '\\':
			dst = append(dst, c)
			d.i++
			continue
		}
		if d.i+1 == len(d.b) {
			d.i++
			break
		}
		switch e := d.b[d.i+1]; e {
		case '"', '\\', '/':
			dst = append(dst, e)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			var v uint64
			err := strconv.ErrSyntax
			if d.i+6 <= len(d.b) {
				v, err = strconv.ParseUint(string(d.b[d.i+2:d.i+6]), 16, 16)
			}
			if err != nil {
				return nil, errAt(d.i, "invalid \\u escape")
			}
			r := rune(v)
			if utf16.IsSurrogate(r) {
				r = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, r)
			d.i += 4
		default:
			return nil, errAt(d.i, "invalid escape %q", d.b[d.i:d.i+2])
		}
		d.i += 2
	}
	return nil, d.unexpected("the end of the string")
}

// value decodes field f's value into r: a number, or null, which
// leaves the field as it is.
func (d *intakeDecoder) value(r *demand.Request, f int) error {
	switch c := d.next(); c {
	case 'n':
		return d.null()
	case '"', 't', 'f', '{', '[':
		return errAt(d.i, "field %q: want a number, got %q", requestFields[f], d.b[d.i:d.i+1])
	}
	at := d.i
	lit, err := d.number()
	if err != nil {
		return err
	}
	if f == fieldRate || f == fieldValue {
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return errAt(at, "field %q: number %s out of range", requestFields[f], lit)
		}
		if f == fieldRate {
			r.Rate = v
		} else {
			r.Value = v
		}
		return nil
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return errAt(at, "field %q: number %s is not an int", requestFields[f], lit)
	}
	switch f {
	case fieldID:
		r.ID = int(v)
	case fieldSrc:
		r.Src = int(v)
	case fieldDst:
		r.Dst = int(v)
	case fieldStart:
		r.Start = int(v)
	case fieldEnd:
		r.End = int(v)
	}
	return nil
}

// number consumes one JSON number at d.i and returns its literal.
func (d *intakeDecoder) number() ([]byte, error) {
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.i = i
		return nil, d.unexpected("a digit")
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits(b, i) == i {
			d.i = i
			return nil, d.unexpected("a digit")
		}
		i = digits(b, i)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits(b, i) == i {
			d.i = i
			return nil, d.unexpected("a digit")
		}
		i = digits(b, i)
	}
	d.i = i
	return b[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendBatchAck appends rs as json.NewEncoder(w).Encode(rs) writes it.
func appendBatchAck(b []byte, rs []BatchResult) []byte {
	if rs == nil {
		return append(b, "null\n"...)
	}
	b = append(b, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if r.ID != 0 {
			b = append(b, `"id":`...)
			b = strconv.AppendInt(b, r.ID, 10)
			b = append(b, ',')
		}
		b = append(b, `"status":`...)
		b = appendJSONString(b, r.Status)
		if r.Error != "" {
			b = append(b, `,"error":`...)
			b = appendJSONString(b, r.Error)
		}
		b = append(b, '}')
	}
	return append(b, "]\n"...)
}

// appendDecision appends d as json.NewEncoder(w).Encode(d) writes it.
// The request's floats are finite: they came through the decoder.
func appendDecision(b []byte, d *Decision) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, d.ID, 10)
	b = append(b, `,"status":`...)
	b = appendJSONString(b, d.Status)
	if d.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, d.Reason)
	}
	if len(d.Links) > 0 {
		b = append(b, `,"links":[`...)
		for i, l := range d.Links {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(l), 10)
		}
		b = append(b, ']')
	}
	for _, f := range [...]struct {
		key string
		v   int
	}{{`,"epoch":`, d.Epoch}, {`,"cycle":`, d.Cycle}, {`,"slot":`, d.Slot}} {
		if f.v != 0 {
			b = append(b, f.key...)
			b = strconv.AppendInt(b, int64(f.v), 10)
		}
	}
	if d.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	r := &d.Request
	b = append(b, `,"request":{"id":`...)
	b = strconv.AppendInt(b, int64(r.ID), 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(r.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(r.Dst), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(r.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(r.End), 10)
	b = append(b, `,"rate":`...)
	b = appendJSONFloat(b, r.Rate)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, r.Value)
	return append(b, "}}\n"...)
}

// appendErrorReply appends {"error":msg}, or {"error":msg,"field":field}
// when field is set, as Encode writes a map with those keys (maps
// encode in key order).
func appendErrorReply(b []byte, msg, field string) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	if field != "" {
		b = append(b, `,"field":`...)
		b = appendJSONString(b, field)
	}
	return append(b, "}\n"...)
}

// appendJSONFloat formats a finite f as encoding/json does: the
// shortest round-trip form, in exponent notation below 1e-6 and from
// 1e21 up, with a one-digit negative exponent left unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted as encoding/json does with HTML
// escaping on: <, > and & as \u00XX, control characters as their short
// escape or \u00XX, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 as an escaped U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const lineSeparator, paragraphSeparator = 0x2028, 0x2029
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == lineSeparator || r == paragraphSeparator:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
