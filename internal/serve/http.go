package serve

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/requests        submit a reservation request → 202 {id}
//	POST /v1/requests/batch  submit a JSON array of requests → 200 [results]
//	GET  /v1/decisions/{id}  decision record → 200/404
//	GET  /v1/links           per-link ledger state
//	GET  /v1/stats           counters + daemon time + latency digests
//	GET  /healthz            readiness: 200 keeping up, 503 shedding/behind/draining
//	GET  /debug/epochs       epoch health scorecard (JSON array, oldest first)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", s.handleSubmit)
	mux.HandleFunc("POST /v1/requests/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/decisions/{id}", s.handleDecision)
	mux.HandleFunc("GET /v1/links", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Links())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/epochs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.EpochRecords())
	})
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if !h.Healthy() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad id"})
		return
	}
	d := s.Decision(id)
	if d == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown decision id"})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Listen binds addr and serves the HTTP API until the server is
// closed; it returns the bound listener (useful with ":0") and a close
// function.
func (s *Server) Listen(addr string, extra func(*http.ServeMux)) (net.Listener, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if extra != nil {
		extra(mux)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln, srv.Close, nil
}
