package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Test instruments are registered once for the whole package test run;
// individual tests reset them rather than re-registering.
var (
	tCounter = NewCounter("test.counter", "a test counter")
	tGauge   = NewGauge("test.gauge", "a test gauge")
)

func TestCounterGaugeBasics(t *testing.T) {
	ResetAll()
	tCounter.Inc()
	tCounter.Add(4)
	if got := tCounter.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	tGauge.Set(-7)
	if got := tGauge.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}

	snap := Snapshot()
	if snap["test.counter"] != 5 || snap["test.gauge"] != -7 {
		t.Fatalf("snapshot = %v", snap)
	}
	ResetAll()
	if tCounter.Value() != 0 || tGauge.Value() != 0 {
		t.Fatal("ResetAll did not zero the instruments")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test.counter", "dup")
}

func TestConcurrentCounters(t *testing.T) {
	ResetAll()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tCounter.Inc()
			}
		}()
	}
	wg.Wait()
	if got := tCounter.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestPromName(t *testing.T) {
	if got := PromName("lp.warm.cold-fallbacks"); got != "metis_lp_warm_cold_fallbacks" {
		t.Fatalf("PromName = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	ResetAll()
	tCounter.Add(3)
	tGauge.Set(-2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP metis_test_counter a test counter",
		"# TYPE metis_test_counter counter",
		"metis_test_counter 3",
		"# TYPE metis_test_gauge gauge",
		"metis_test_gauge -2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	start := time.Now()
	Event(tr, "run.start", Fields{"k": 100})
	Span(tr, "lp.solve", start, Fields{"iters": 42, "status": "optimal", "warm": "hit"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Kind != "event" || recs[0].Name != "run.start" || recs[0].FieldFloat("k") != 100 {
		t.Fatalf("event record = %+v", recs[0])
	}
	if recs[1].Kind != "span" || recs[1].Name != "lp.solve" {
		t.Fatalf("span record = %+v", recs[1])
	}
	if recs[1].FieldString("status") != "optimal" || recs[1].FieldString("warm") != "hit" {
		t.Fatalf("span fields = %v", recs[1].Fields)
	}
	if recs[1].FieldFloat("iters") != 42 {
		t.Fatalf("span iters = %v", recs[1].Field("iters"))
	}
}

func TestNilTracerHelpersAreNoOps(t *testing.T) {
	// Must not panic; the nil check is the whole disabled path.
	Event(nil, "x", nil)
	Span(nil, "x", time.Time{}, nil)
}

func TestJSONLTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				Event(tr, "tick", Fields{"w": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("got %d records, want 200", len(recs))
	}
}

func TestReadTraceMalformedLine(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"kind\":\"event\"}\nnot json\n")); err == nil {
		t.Fatal("want error for malformed trace line")
	}
}

func TestReadTraceLenientSkipsMalformed(t *testing.T) {
	in := "{\"kind\":\"event\",\"name\":\"a\"}\nnot json\n\n{\"kind\":\"span\",\"name\":\"b\",\"unknown_field\":7}\n{broken\n"
	recs, skipped, err := ReadTraceLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(recs) != 2 || recs[0].Name != "a" || recs[1].Name != "b" {
		t.Fatalf("records = %+v, want [a b]", recs)
	}
}

func TestServeMetrics(t *testing.T) {
	ResetAll()
	tCounter.Add(11)
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "metis_test_counter 11") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
}
