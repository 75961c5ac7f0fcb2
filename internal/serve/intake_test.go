package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestIntakeContract pins what the two admission endpoints accept and
// how they answer, independent of the decoder behind them: status codes
// and result shapes, never error text. It was written against the
// encoding/json intake and must pass unedited on any replacement.
func TestIntakeContract(t *testing.T) {
	const (
		single = "/v1/requests"
		batch  = "/v1/requests/batch"
		ok     = `{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`
	)
	cases := []struct {
		name string
		path string
		body string
		code int
		// statuses are the per-entry outcomes of a 200 batch reply.
		statuses []string
		// src is the accepted request's source DC (-1: not checked).
		src int
		// field is the blamed field of a 422 single reply.
		field string
	}{
		{name: "malformed", path: single, body: `{"src":0,`, code: 400},
		{name: "malformed", path: batch, body: `[{"src":0,`, code: 400},
		{name: "malformed/bad literal", path: batch, body: `[nul]`, code: 400},
		{name: "malformed/leading zero", path: single, body: `{"src":01,"dst":1}`, code: 400},
		{name: "malformed/trailing comma", path: batch, body: `[` + ok + `,]`, code: 400},
		{name: "empty", path: single, body: ``, code: 400},
		{name: "empty", path: batch, body: ``, code: 400},
		{name: "whitespace only", path: batch, body: " \n\t", code: 400},
		{name: "unknown field", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"foo":1}`, code: 400},
		{name: "unknown field", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"foo":1}]`, code: 400},
		{name: "fractional id", path: single, body: `{"id":1.5,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "fractional id", path: batch, body: `[{"id":1.5,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "string src", path: single, body: `{"src":"1","dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "string src", path: batch, body: `[{"src":"1","dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "rate out of range", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":1e400,"value":1}`, code: 400},
		{name: "rate out of range", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":1e400,"value":1}]`, code: 400},
		{name: "int above int64", path: single, body: `{"src":9223372036854775808,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "int above int64", path: batch, body: `[{"src":9223372036854775808,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "object not array", path: batch, body: ok, code: 400},
		{name: "array not object", path: single, body: `[` + ok + `]`, code: 400},
		{name: "upper-case key", path: single, body: `{"SRC":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 202, src: 2},
		{name: "upper-case key", path: batch, body: `[{"SRC":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "lower-case key", path: batch, body: `[{"src":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "escaped key", path: single, body: `{"` + `\` + `u0073rc":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 202, src: 2},
		{name: "escaped key", path: batch, body: `[{"s` + `\` + `u0072c":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "duplicate key, last wins", path: single, body: `{"src":9,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"src":2}`, code: 202, src: 2},
		{name: "duplicate key, last wins", path: batch, body: `[{"src":9,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"src":2}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "null rate", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":null,"value":1}`, code: 422, field: "rate"},
		{name: "null rate", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":null,"value":1}]`, code: 200, statuses: []string{"invalid"}},
		{name: "null element", path: batch, body: `[` + ok + `,null]`, code: 200, statuses: []string{"queued", "invalid"}, src: 0},
		{name: "null body", path: batch, body: `null`, code: 200, statuses: []string{}},
		{name: "null body", path: single, body: `null`, code: 422, field: "dst"},
		{name: "empty array", path: batch, body: ` [ ] `, code: 200, statuses: []string{}},
		{name: "trailing bytes", path: batch, body: `[` + ok + `] trailing {garbage`, code: 200, statuses: []string{"queued"}, src: 0},
		{name: "trailing bytes", path: single, body: ok + `]]`, code: 202, src: 0},
		{name: "whitespace and exponents", path: single, body: "\r\n {\t\"src\" : 0 , \"dst\":1,\"start\":0,\"end\":1.1e1,\"rate\":2E-1,\"value\":-0}", code: 400},
		{name: "whitespace and exponents", path: batch, body: "\r\n [ {\t\"src\" : 0 , \"dst\":1,\"start\":-0,\"end\":11,\"rate\":2E-1,\"value\":1e2} ] ", code: 200, statuses: []string{"queued"}, src: 0},
	}
	for _, tc := range cases {
		t.Run(tc.path+"/"+tc.name, func(t *testing.T) {
			s := newTestServer(t, nil)
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			if rr.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.code, rr.Body.String())
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			body := rr.Body.Bytes()
			if !bytes.HasSuffix(body, []byte("\n")) {
				t.Fatalf("reply %q does not end in a newline", body)
			}
			switch tc.code {
			case http.StatusBadRequest:
				var m map[string]string
				if err := json.Unmarshal(body, &m); err != nil {
					t.Fatalf("400 reply %q: %v", body, err)
				}
				prefix := "decode request: "
				if tc.path == batch {
					prefix = "decode batch: "
				}
				if len(m) != 1 || !strings.HasPrefix(m["error"], prefix) || len(m["error"]) == len(prefix) {
					t.Fatalf("400 reply %q, want {\"error\":%q…}", body, prefix)
				}
			case http.StatusUnprocessableEntity:
				var m map[string]string
				if err := json.Unmarshal(body, &m); err != nil {
					t.Fatalf("422 reply %q: %v", body, err)
				}
				if len(m) != 2 || m["error"] == "" || m["field"] != tc.field {
					t.Fatalf("422 reply %q, want error and field %q", body, tc.field)
				}
			case http.StatusAccepted:
				var d Decision
				if err := json.Unmarshal(body, &d); err != nil {
					t.Fatalf("202 reply %q: %v", body, err)
				}
				if d.ID == 0 || d.Status != StatusQueued || d.Request.Src != tc.src || d.Request.ID != int(d.ID) {
					t.Fatalf("202 reply %+v, want a queued decision with src %d", d, tc.src)
				}
				if got := s.Decision(d.ID); got == nil || got.Request != d.Request {
					t.Fatalf("server holds %+v for id %d, reply echoed %+v", got, d.ID, d.Request)
				}
			case http.StatusOK:
				if len(tc.statuses) == 0 && string(body) != "[]\n" {
					t.Fatalf("empty batch reply %q, want []", body)
				}
				var out []BatchResult
				if err := json.Unmarshal(body, &out); err != nil {
					t.Fatalf("200 reply %q: %v", body, err)
				}
				if len(out) != len(tc.statuses) {
					t.Fatalf("%d results, want %d: %s", len(out), len(tc.statuses), body)
				}
				for i, r := range out {
					if r.Status != tc.statuses[i] {
						t.Fatalf("entry %d: %+v, want %s", i, r, tc.statuses[i])
					}
					if r.Status == StatusQueued {
						if r.ID == 0 || r.Error != "" {
							t.Fatalf("queued entry %d: %+v", i, r)
						}
						if d := s.Decision(r.ID); d == nil || d.Request.Src != tc.src {
							t.Fatalf("entry %d: server holds %+v, want src %d", i, d, tc.src)
						}
					} else if r.ID != 0 || r.Error == "" {
						t.Fatalf("refused entry %d: %+v, want no id and an error", i, r)
					}
				}
			}
		})
	}
}
