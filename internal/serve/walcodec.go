package serve

import (
	"encoding/binary"
	"errors"
	"math"

	"metis/internal/demand"
)

// The binary encoding of the three WAL payloads the serve layer owns.
// Encoder and decoder of each frame sit side by side so the format is
// known to this file alone; DESIGN.md "Frame bodies" carries the same
// layout as a table. Building blocks:
//
//	int    : zig-zag varint (encoding/binary's Varint)
//	uint   : unsigned varint
//	count  : uint, always followed by that many elements
//	float  : 8 bytes, little-endian IEEE-754 bits (exact)
//	bool   : one byte, 0 or 1
//	string : count + that many bytes
//	ints   : count + that many int
//
// Frames (the record-type byte belongs to the wal framing, not the body):
//
//	arrival : id, src, dst, start, end int; rate, value float
//	tick    : epoch, slot int; flags byte (1 degraded, 2 has policy);
//	          count × outcome; purchased ints; then, when flagged,
//	          policy: name string, plan ints, havePlan bool, lastReplan int
//	outcome : id int; kind byte; degraded bool; start int; links ints;
//	          reason string
//	fence   : token uint
//
// Every field is always present, so no strict prefix of a frame is a
// frame. An empty list and an absent one encode alike and decode to nil
// (the omitempty semantics the JSON frames had). A decoder bounds every
// count by the bytes left before allocating, refuses trailing bytes and
// never panics; it checks structure only — what a well-formed frame
// *means* (known kind, epoch order, logged ids) is recovery's call.

// WAL record types. The serve layer owns the payload schemas; the wal
// package only frames and checksums them. Types 1–3 were the same three
// records as JSON; such a log is refused at recovery, not migrated.
const (
	walRecArrival byte = 4 // one acked arrival
	walRecTick    byte = 5 // one committed epoch tick (all its decisions)
	walRecFence   byte = 6 // a fencing token minted at promotion
)

// Outcome kinds inside a tick record. Zero is not a kind, so a zeroed
// frame never decodes into a decision.
const (
	walKindAccept  byte = 1
	walKindReject  byte = 2
	walKindExpired byte = 3
)

const (
	tickFlagDegraded  byte = 1
	tickFlagHasPolicy byte = 2

	// minOutcomeBytes is the smallest encoded outcome (six one-byte
	// fields); it bounds an outcome count by the bytes that remain.
	minOutcomeBytes = 6
)

var errWALFrame = errors.New("malformed binary frame")

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendInt(b, v)
	}
	return b
}

// walReader consumes one frame body. The first malformed field latches
// bad and empties the input, so every later read yields a zero value and
// a decoder checks once, in done.
type walReader struct {
	b   []byte
	bad bool
}

func (r *walReader) fail() {
	r.b, r.bad = nil, true
}

func (r *walReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *walReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail()
	}
	return v == 1
}

func (r *walReader) int64() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *walReader) uint64() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length prefix whose elements take at least minBytes
// each, refusing one the remaining input cannot hold.
func (r *walReader) count(minBytes int) int {
	v := r.uint64()
	if v > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *walReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *walReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *walReader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.int()
	}
	return vs
}

// done reports a malformed field or bytes left over after the last one.
func (r *walReader) done() error {
	if r.bad || len(r.b) != 0 {
		return errWALFrame
	}
	return nil
}

// appendArrival appends the frame body of one acked arrival to b; req
// carries the server-assigned id.
func appendArrival(b []byte, req *demand.Request) []byte {
	b = appendInt(b, req.ID)
	b = appendInt(b, req.Src)
	b = appendInt(b, req.Dst)
	b = appendInt(b, req.Start)
	b = appendInt(b, req.End)
	b = appendFloat(b, req.Rate)
	return appendFloat(b, req.Value)
}

func decodeArrival(body []byte) (demand.Request, error) {
	r := walReader{b: body}
	req := demand.Request{
		ID: r.int(), Src: r.int(), Dst: r.int(), Start: r.int(), End: r.int(),
		Rate: r.float(), Value: r.float(),
	}
	return req, r.done()
}

func encodeTick(t *walTick) []byte {
	// Sized for the common outcome (an accept over a few links, or a
	// short reason); append grows it for anything longer.
	b := make([]byte, 0, 64+24*len(t.Outcomes))
	b = appendInt(b, t.Epoch)
	b = appendInt(b, t.Slot)
	var flags byte
	if t.Degraded {
		flags |= tickFlagDegraded
	}
	if t.Policy != nil {
		flags |= tickFlagHasPolicy
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(t.Outcomes)))
	for i := range t.Outcomes {
		o := &t.Outcomes[i]
		b = binary.AppendVarint(b, o.ID)
		b = append(b, o.Kind)
		b = appendBool(b, o.Degraded)
		b = appendInt(b, o.Start)
		b = appendInts(b, o.Links)
		b = appendString(b, o.Reason)
	}
	b = appendInts(b, t.Purchased)
	if p := t.Policy; p != nil {
		b = appendString(b, p.Name)
		b = appendInts(b, p.Plan)
		b = appendBool(b, p.HavePlan)
		b = appendInt(b, p.LastReplan)
	}
	return b
}

func decodeTick(body []byte) (walTick, error) {
	r := walReader{b: body}
	var t walTick
	t.Epoch = r.int()
	t.Slot = r.int()
	flags := r.byte()
	if flags&^(tickFlagDegraded|tickFlagHasPolicy) != 0 {
		r.fail()
	}
	t.Degraded = flags&tickFlagDegraded != 0
	if n := r.count(minOutcomeBytes); n > 0 {
		t.Outcomes = make([]walOutcome, n)
		for i := range t.Outcomes {
			o := &t.Outcomes[i]
			o.ID = r.int64()
			o.Kind = r.byte()
			o.Degraded = r.bool()
			o.Start = r.int()
			o.Links = r.ints()
			o.Reason = r.string()
		}
	}
	t.Purchased = r.ints()
	if flags&tickFlagHasPolicy != 0 {
		t.Policy = &walPolicyDelta{
			Name: r.string(), Plan: r.ints(), HavePlan: r.bool(), LastReplan: r.int(),
		}
	}
	return t, r.done()
}

func encodeFence(token uint64) []byte { return binary.AppendUvarint(nil, token) }

func decodeFence(body []byte) (uint64, error) {
	r := walReader{b: body}
	token := r.uint64()
	return token, r.done()
}
