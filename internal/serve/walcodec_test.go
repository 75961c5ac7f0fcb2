package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"metis/internal/demand"
)

// The JSON tick frame this encoding replaced, kept here as the oracle: a
// frame that has been through it once is in the normal form recovery
// has always seen (an empty list and an absent one are both nil), and
// the binary codec must reproduce exactly that value. An arrival is a
// demand.Request, which carries its own JSON form.
type (
	oracleOutcome struct {
		ID       int64  `json:"id"`
		Kind     byte   `json:"kind"`
		Links    []int  `json:"links,omitempty"`
		Start    int    `json:"start,omitempty"`
		Reason   string `json:"reason,omitempty"`
		Degraded bool   `json:"degraded,omitempty"`
	}
	oraclePolicy struct {
		Name       string `json:"name"`
		Plan       []int  `json:"plan,omitempty"`
		HavePlan   bool   `json:"havePlan,omitempty"`
		LastReplan int    `json:"lastReplan,omitempty"`
	}
	oracleTick struct {
		Epoch     int             `json:"epoch"`
		Slot      int             `json:"slot"`
		Outcomes  []oracleOutcome `json:"outcomes,omitempty"`
		Purchased []int           `json:"purchased,omitempty"`
		Degraded  bool            `json:"degraded,omitempty"`
		Policy    *oraclePolicy   `json:"policy,omitempty"`
	}
)

func viaJSON(t *testing.T, in, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func oracleTickOf(t *testing.T, x *walTick) walTick {
	t.Helper()
	in := oracleTick{Epoch: x.Epoch, Slot: x.Slot, Purchased: x.Purchased, Degraded: x.Degraded}
	if x.Outcomes != nil {
		in.Outcomes = make([]oracleOutcome, len(x.Outcomes))
		for i, o := range x.Outcomes {
			in.Outcomes[i] = oracleOutcome(o)
		}
	}
	if x.Policy != nil {
		p := oraclePolicy(*x.Policy)
		in.Policy = &p
	}
	var out oracleTick
	viaJSON(t, in, &out)
	y := walTick{Epoch: out.Epoch, Slot: out.Slot, Purchased: out.Purchased, Degraded: out.Degraded}
	if out.Outcomes != nil {
		y.Outcomes = make([]walOutcome, len(out.Outcomes))
		for i, o := range out.Outcomes {
			y.Outcomes[i] = walOutcome(o)
		}
	}
	if out.Policy != nil {
		p := walPolicyDelta(*out.Policy)
		y.Policy = &p
	}
	return y
}

var (
	edgeInts   = []int{0, 0, 1, -1, 11, 127, -128, 300, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64}
	edgeFloats = []float64{0, 1, -1, 0.2, 1e-9, 123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64}
)

func randInt(rng *rand.Rand) int { return edgeInts[rng.Intn(len(edgeInts))] }

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return rng.NormFloat64() * 1e3
}

// randInts returns nil, an empty slice or a filled one.
func randInts(rng *rand.Rand) []int {
	switch n := rng.Intn(6); n {
	case 0:
		return nil
	case 1:
		return []int{}
	default:
		vs := make([]int, n)
		for i := range vs {
			vs[i] = randInt(rng)
		}
		return vs
	}
}

func randString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("policy error: ünïcode ✓ ", 1+rng.Intn(200))
	default:
		return "declined by policy"
	}
}

func randArrival(rng *rand.Rand) demand.Request {
	return demand.Request{
		ID: randInt(rng), Src: randInt(rng), Dst: randInt(rng), Start: randInt(rng), End: randInt(rng),
		Rate: randFloat(rng), Value: randFloat(rng),
	}
}

func randTick(rng *rand.Rand) walTick {
	x := walTick{Epoch: randInt(rng), Slot: randInt(rng), Purchased: randInts(rng), Degraded: rng.Intn(2) == 0}
	switch n := rng.Intn(5); n {
	case 0:
	case 1:
		x.Outcomes = []walOutcome{}
	default:
		x.Outcomes = make([]walOutcome, n*n)
		for i := range x.Outcomes {
			x.Outcomes[i] = walOutcome{
				ID: int64(randInt(rng)), Kind: byte(rng.Intn(5)), Links: randInts(rng),
				Start: randInt(rng), Reason: randString(rng), Degraded: rng.Intn(2) == 0,
			}
		}
	}
	if rng.Intn(3) > 0 {
		x.Policy = &walPolicyDelta{Plan: randInts(rng), HavePlan: rng.Intn(2) == 0, LastReplan: randInt(rng)}
		if rng.Intn(4) > 0 {
			x.Policy.Name = "metis-incremental"
		}
	}
	return x
}

// TestWALCodecRoundTrip: decode(encode(x)) is x as the JSON frames would
// have delivered it — nil for every empty list, so recoverTick's
// `tr.Purchased != nil` and applyReplayDelta's `len(d.Plan) == 0` keep
// their meaning — over negative, zero and extreme integers, absent and
// empty lists, long reasons and a nil Policy.
func TestWALCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		a := randArrival(rng)
		var wantA demand.Request
		viaJSON(t, a, &wantA)
		gotA, err := decodeArrival(appendArrival(nil, &a))
		if err != nil {
			t.Fatalf("arrival %+v: %v", a, err)
		}
		if gotA != wantA {
			t.Fatalf("arrival round trip:\n got %+v\nwant %+v", gotA, wantA)
		}

		x := randTick(rng)
		want := oracleTickOf(t, &x)
		got, err := decodeTick(encodeTick(&x))
		if err != nil {
			t.Fatalf("tick %+v: %v", x, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick round trip:\n got %+v\nwant %+v", got, want)
		}

		token := rng.Uint64() >> uint(rng.Intn(64))
		if got, err := decodeFence(encodeFence(token)); err != nil || got != token {
			t.Fatalf("fence %d: got %d, %v", token, got, err)
		}
	}
}

// goldenFrames pins the byte layout: a schema change that forgets the
// record-type bytes fails here.
var goldenFrames = []struct {
	name   string
	hex    string
	encode func() []byte
	decode func([]byte) (any, error)
}{
	{
		"arrival", "d20f060e0416" + "9a9999999999c93f" + "0000000000c05e40",
		func() []byte {
			return appendArrival(nil, &demand.Request{ID: 1001, Src: 3, Dst: 7, Start: 2, End: 11, Rate: 0.2, Value: 123})
		},
		func(b []byte) (any, error) { return decodeArrival(b) },
	},
	{
		"tick", "1a04" + "03" + "03" +
			"d20f" + "01" + "00" + "04" + "02080a" + "00" +
			"d40f" + "02" + "01" + "04" + "00" + "126465636c696e656420627920706f6c696379" +
			"d60f" + "03" + "00" + "00" + "00" + "00" +
			"03000406" +
			"116d657469732d696e6372656d656e74616c" + "020206" + "01" + "18",
		func() []byte {
			return encodeTick(&walTick{
				Epoch: 13, Slot: 2, Degraded: true,
				Outcomes: []walOutcome{
					{ID: 1001, Kind: walKindAccept, Links: []int{4, 5}, Start: 2},
					{ID: 1002, Kind: walKindReject, Start: 2, Reason: "declined by policy", Degraded: true},
					{ID: 1003, Kind: walKindExpired},
				},
				Purchased: []int{0, 2, 3},
				Policy:    &walPolicyDelta{Name: "metis-incremental", Plan: []int{1, 3}, HavePlan: true, LastReplan: 12},
			})
		},
		func(b []byte) (any, error) { return decodeTick(b) },
	},
	{
		"fence", "ac02",
		func() []byte { return encodeFence(300) },
		func(b []byte) (any, error) { return decodeFence(b) },
	},
}

func TestWALCodecGoldenBytes(t *testing.T) {
	if walRecArrival != 4 || walRecTick != 5 || walRecFence != 6 {
		t.Fatalf("record types moved: arrival %d, tick %d, fence %d", walRecArrival, walRecTick, walRecFence)
	}
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(g.encode()); got != g.hex {
			t.Errorf("%s frame:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// TestWALCodecTruncation: every field is mandatory, so no strict prefix
// of a frame is a (shorter) frame, and a frame with a byte appended is
// refused too.
func TestWALCodecTruncation(t *testing.T) {
	for _, g := range goldenFrames {
		full := g.encode()
		if _, err := g.decode(full); err != nil {
			t.Fatalf("%s: full frame: %v", g.name, err)
		}
		for n := 0; n < len(full); n++ {
			if v, err := g.decode(full[:n]); err == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte frame decoded to %+v", g.name, n, len(full), v)
			}
		}
		if _, err := g.decode(append(full[:len(full):len(full)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", g.name)
		}
	}
}

// FuzzWALFrameDecode feeds arbitrary bytes to the three decoders. None
// may panic or allocate beyond a constant factor of the input (a length
// prefix is a claim, not a size), and whatever decodes must re-encode to
// a frame that decodes to the same value.
func FuzzWALFrameDecode(f *testing.F) {
	for _, g := range goldenFrames {
		full := g.encode()
		f.Add(full)
		f.Add(full[:len(full)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // a 2^63 outcome count
	f.Add(bytes.Repeat([]byte{0x80}, 64))                                        // a varint that never ends
	f.Add(bytes.Repeat([]byte{0, 1, 0, 0, 0, 0}, 40))
	f.Fuzz(func(t *testing.T, body []byte) {
		// An outcome is 72 bytes in memory from at least 6 on disk, an
		// int 8 from 1; 16x plus slack for the fixed parts covers both.
		limit := uint64(16*len(body) + 1024)
		var (
			a     demand.Request
			tr    walTick
			token uint64

			errA, errT, errF error
		)
		// TotalAlloc is process-wide and the fuzz worker has goroutines of
		// its own, so a reading over the limit is taken again: only an
		// allocation the decoders make shows up every time.
		for try := 1; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a, errA = decodeArrival(body)
			tr, errT = decodeTick(body)
			token, errF = decodeFence(body)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(body), got, limit)
			}
		}
		if errA == nil {
			// Compared as bytes: a NaN rate is a legal frame and not == itself.
			enc := appendArrival(nil, &a)
			if again, err := decodeArrival(enc); err != nil || !bytes.Equal(appendArrival(nil, &again), enc) {
				t.Fatalf("arrival %+v re-decoded to %+v, %v", a, again, err)
			}
		}
		if errT == nil {
			if again, err := decodeTick(encodeTick(&tr)); err != nil || !reflect.DeepEqual(again, tr) {
				t.Fatalf("tick %+v re-decoded to %+v, %v", tr, again, err)
			}
		}
		if errF == nil {
			if again, err := decodeFence(encodeFence(token)); err != nil || again != token {
				t.Fatalf("fence %d re-decoded to %d, %v", token, again, err)
			}
		}
	})
}
