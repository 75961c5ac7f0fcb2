package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsServer is a live metrics endpoint started by ServeMetrics.
type MetricsServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Register mounts the metrics endpoints onto mux:
//
//	/metrics        Prometheus text exposition of the obs registry
//	/debug/pprof/   the standard pprof handlers
//
// Embedding daemons (metisd) use this to expose solver metrics on
// their own API mux instead of a second listener.
func Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeMetrics starts an HTTP server on addr exposing the Register
// endpoints. It returns as soon as the listener is bound; the server
// runs until Close. Handler errors are ignored — metrics must never
// take the solver down.
func ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	Register(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ms := &MetricsServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return ms, nil
}

// Close shuts the server down immediately.
func (s *MetricsServer) Close() error { return s.srv.Close() }
