package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"metis/internal/demand"
	"metis/internal/wan"
)

// The oracle for the intake codec is the decoder it replaced.
func jsonDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sameRequest compares floats by bits, so -0 and 0 differ.
func sameRequest(a, b demand.Request) bool {
	return a.ID == b.ID && a.Src == b.Src && a.Dst == b.Dst && a.Start == b.Start && a.End == b.End &&
		math.Float64bits(a.Rate) == math.Float64bits(b.Rate) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// uesc spells the JSON escape \u<hex>.
func uesc(hex string) string { return `\` + "u" + hex }

func FuzzIntakeDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	reqs := make([]demand.Request, 3)
	for i := range reqs {
		reqs[i] = randArrival(rng)
	}
	batch, err := json.Marshal(reqs)
	if err != nil {
		f.Fatal(err)
	}
	one, err := json.Marshal(reqs[0])
	if err != nil {
		f.Fatal(err)
	}
	const ok = `{"id":7,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`
	seeds := []string{
		string(batch), string(one), "[" + ok + "]", ok,
		// whitespace
		" \t\r\n[ " + ok + " , " + ok + " ]\n", `{ "src" : 1 , "dst" : 2 }`,
		// escapes and case variants in keys
		`{"` + uesc("0073") + `rc":1}`, `{"S` + uesc("0052") + `C":1}`, `{"s\/rc":1}`, `{"src\"":1}`,
		`{"SRC":1,"Dst":2,"ID":3,"StArT":4,"END":5,"RATE":6,"VaLuE":7}`,
		`{"` + string(rune(0x17f)) + `rc":1}`, `{"` + uesc("017F") + `rc":1}`, // long s folds to s
		`{"` + string(rune(0x212a)) + `":1}`, `{"` + string(rune(0x130)) + `d":1}`,
		`{"` + uesc("d800") + `rc":1}`, `{"` + uesc("d834") + uesc("dd1e") + `":1}`, `{"` + uesc("12") + `":1}`,
		`{"\x":1}`, `{"sr` + "\x01" + `c":1}`, `{"src` + "\xff" + `":1}`, `{"src\`,
		// numbers
		`{"rate":-0,"value":-0.0}`, `{"src":-0}`, `{"rate":1e2,"value":1E+2}`, `{"rate":1e-400}`,
		`{"rate":1e400}`, `{"value":-1.5e-3}`, `{"src":1e2}`, `{"src":1.0}`, `{"id":9223372036854775807}`,
		`{"id":-9223372036854775808}`, `{"id":9223372036854775808}`, `{"src":01}`, `{"src":-}`,
		`{"rate":1.}`, `{"rate":.5}`, `{"rate":1e}`, `{"rate":1e+}`, `{"rate":+1}`, `{"rate":0x10}`,
		`{"rate":123456789012345678901234567890}`, `{"rate":4.9406564584124654e-324}`, `{"rate":1}2`,
		// nulls
		`null`, `[null]`, `[null,{}]`, `{"rate":null}`, `{"rate":1,"rate":null}`, `nul`, `nullx`, `[nul]`,
		`{"rate":nul}`, `{"rate":NULL}`,
		// repeated keys
		`{"src":1,"src":2}`, `{"src":1,"SRC":2}`,
		// nested and mistyped values
		`{"src":{"a":[1,2]}}`, `{"src":[1]}`, `[[1]]`, `[1]`, `["x"]`, `{"src":"1"}`, `{"src":true}`,
		`{"src":false}`, `"str"`, `1`, `true`, `{}`, `[]`, `[{}]`,
		// unknown fields
		`{"foo":1}`, `{"":1}`, `{"src":1,"x":{}}`,
		// trailing bytes and broken syntax
		ok + `]]`, "[" + ok + "] trailing", `[` + ok + `,]`, `[` + ok + ` ` + ok + `]`, `{"src":1,}`,
		`{"src" 1}`, `{src:1}`, "\xef\xbb\xbf" + ok, ``, ` `, `[`, `{`, `]`, `[,]`, `{,}`,
	}
	for i := 0; i < len(batch); i += len(batch)/16 + 1 {
		seeds = append(seeds, string(batch[:i]))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []demand.Request
		werr := jsonDecode(body, &want)
		got, err := decodeBatch(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("batch %q: codec error %v, encoding/json error %v", body, err, werr)
		}
		if err == nil {
			if len(got) != len(want) {
				t.Fatalf("batch %q: %d requests, encoding/json %d", body, len(got), len(want))
			}
			for i := range got {
				if !sameRequest(got[i], want[i]) {
					t.Fatalf("batch %q entry %d: %+v, encoding/json %+v", body, i, got[i], want[i])
				}
			}
		}
		var want1 demand.Request
		werr = jsonDecode(body, &want1)
		got1, err := decodeRequest(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("request %q: codec error %v, encoding/json error %v", body, err, werr)
		}
		if err == nil && !sameRequest(got1, want1) {
			t.Fatalf("request %q: %+v, encoding/json %+v", body, got1, want1)
		}
	})
}

// ackText is a string of the pieces encoding/json escapes or passes
// through: HTML-sensitive bytes, quotes, control characters, the JS line
// separators, invalid and multi-byte UTF-8.
func ackText(rng *rand.Rand) string {
	pieces := []string{
		"", "a", "shed", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\b\f\n\r\t",
		string(rune(0x2028)), string(rune(0x2029)), "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
		"é", "✓", string(rune(0x1f600)), "serve: arrival queue full",
	}
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBatchAckBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ids := []int64{0, 0, 1, 42, -7, math.MaxInt64, math.MinInt64}
	check := func(rs []BatchResult) {
		t.Helper()
		if got, want := appendBatchAck(nil, rs), encodeJSON(t, rs); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", rs, got, want)
		}
	}
	check(nil)
	check([]BatchResult{})
	for c := 0; c < 256; c++ {
		check([]BatchResult{{Status: "invalid", Error: "x" + string([]byte{byte(c)}) + "y"}})
	}
	for n := 0; n < 2000; n++ {
		rs := make([]BatchResult, rng.Intn(6))
		for i := range rs {
			rs[i] = BatchResult{ID: ids[rng.Intn(len(ids))], Status: ackText(rng), Error: ackText(rng)}
		}
		check(rs)
	}
}

// TestSubmitReplyBytes: the single-submit replies (the queued decision
// and both error shapes) are byte-identical to writeJSON's.
func TestSubmitReplyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	floats := []float64{1e20, 1e21, 1e-6, 1e-7, 9.999999e-7, 123e-9, -1e300, math.Copysign(0, -1), 0.1, 1.0 / 3}
	for n := 0; n < 2000; n++ {
		d := Decision{
			ID: int64(randInt(rng)), Status: ackText(rng), Reason: ackText(rng), Links: randInts(rng),
			Epoch: randInt(rng), Cycle: randInt(rng), Slot: randInt(rng), Degraded: rng.Intn(2) == 0,
			Request: randArrival(rng),
		}
		if n%2 == 0 {
			d.Request.Rate = floats[rng.Intn(len(floats))]
		}
		if got, want := appendDecision(nil, &d), encodeJSON(t, &d); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", d, got, want)
		}
		msg, field := ackText(rng), ackText(rng)
		want := encodeJSON(t, map[string]string{"error": msg})
		if field != "" {
			want = encodeJSON(t, map[string]any{"error": msg, "field": field})
		}
		if got := appendErrorReply(nil, msg, field); !bytes.Equal(got, want) {
			t.Fatalf("error %q field %q:\n got %q\nwant %q", msg, field, got, want)
		}
	}
}

// batchBody is one marshalled batch of n generated requests, the shape
// the benchmark harness posts.
func batchBody(tb testing.TB, n int) []byte {
	g, err := demand.NewGenerator(wan.SubB4(), demand.DefaultGeneratorConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := g.GenerateN(n)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeBatchAllocs: a batch decodes into one allocation, the
// request slice.
func TestDecodeBatchAllocs(t *testing.T) {
	body := batchBody(t, 200)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := decodeBatch(body); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("%v allocations per 200-request batch, want 1", n)
	}
}

func BenchmarkDecodeBatch200(b *testing.B) {
	body := batchBody(b, 200)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBatch(body); err != nil {
			b.Fatal(err)
		}
	}
}
