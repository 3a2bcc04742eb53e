// Package serve is the embeddable runtime-observability endpoint: a
// small HTTP server that exposes a live obs.Metrics registry in the
// Prometheus text format on /metrics, a liveness probe on /healthz, the
// Go runtime profiler on /debug/pprof, and — when a flight recorder is
// attached — the selection flight recorder on /debug/flight. Every
// long-running command (espresso-bench, espresso-sim, espresso-verify,
// espresso-serve) mounts it behind a -listen flag, so any run can be
// scraped and profiled while it works:
//
//	curl http://127.0.0.1:9090/metrics
//	curl http://127.0.0.1:9090/debug/flight
//	curl http://127.0.0.1:9090/debug/flight/r0000002a?format=chrome
//	go tool pprof http://127.0.0.1:9090/debug/pprof/profile?seconds=10
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
)

// Option configures the mux beyond the metrics registry.
type Option func(*options)

type options struct {
	flight *flight.Recorder
	mounts []mount
}

type mount struct {
	pattern string
	h       http.Handler
}

// WithFlight mounts a flight recorder at /debug/flight (retained-record
// listing as JSON) and /debug/flight/{id} (one record's full span tree;
// ?format=chrome downloads it as a Chrome trace). A nil recorder leaves
// the endpoints unmounted.
func WithFlight(fr *flight.Recorder) Option {
	return func(o *options) { o.flight = fr }
}

// WithHandler mounts h at pattern on the same mux (and so the same
// listener) as the observability endpoints. The selection API server
// uses it to share one port with /metrics, /healthz, /debug/pprof, and
// /debug/flight: serve.Start(addr, m, WithFlight(fr),
// WithHandler("/v1/", api)). Patterns use net/http.ServeMux syntax; a
// nil handler leaves the pattern unmounted.
func WithHandler(pattern string, h http.Handler) Option {
	return func(o *options) {
		if h != nil {
			o.mounts = append(o.mounts, mount{pattern: pattern, h: h})
		}
	}
}

// Handler returns the observability mux over a registry: /metrics
// (Prometheus text format v0.0.4, with a fresh Go-runtime sample folded
// in per scrape), /healthz, and net/http/pprof under /debug/pprof/. The
// registry must not be nil; scrapes are safe while other goroutines
// mutate it.
func Handler(m *obs.Metrics, opts ...Option) http.Handler {
	if m == nil {
		panic("serve: nil metrics registry")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		index := "espresso observability endpoint\n\n/metrics\n/healthz\n/debug/pprof/\n"
		if o.flight != nil {
			index += "/debug/flight\n"
		}
		for _, mt := range o.mounts {
			index += mt.pattern + "\n"
		}
		fmt.Fprint(w, index)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.SampleRuntime(m)
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := m.WritePrometheus(w); err != nil {
			// The header is gone; all we can do is abort the body.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if o.flight != nil {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := o.flight.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/debug/flight/", func(w http.ResponseWriter, r *http.Request) {
			id := strings.TrimPrefix(r.URL.Path, "/debug/flight/")
			if id == "" || strings.Contains(id, "/") {
				http.NotFound(w, r)
				return
			}
			rec, ok := o.flight.Get(id)
			if !ok {
				http.Error(w, fmt.Sprintf("flight record %q not retained", id), http.StatusNotFound)
				return
			}
			if r.URL.Query().Get("format") == "chrome" {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".trace.json"))
				if err := wtrace.WriteChrome(w, rec.Spans); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			writeRecordJSON(w, rec)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, mt := range o.mounts {
		mux.Handle(mt.pattern, mt.h)
	}
	return mux
}

// Server is a started observability endpoint.
type Server struct {
	// URL is the server's base address with the bound port resolved
	// ("http://127.0.0.1:9090"), so addr ":0" yields a usable URL.
	URL string

	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (host:port; an empty host binds all interfaces,
// port 0 picks a free one) and serves the Handler mux in a background
// goroutine until Close.
func Start(addr string, m *obs.Metrics, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		URL: "http://" + ln.Addr().String(),
		ln:  ln,
		srv: &http.Server{Handler: Handler(m, opts...), ReadHeaderTimeout: 10 * time.Second},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return s, nil
}

// Close stops the server and releases the port. In-flight scrapes are
// cut off; the CLIs call this on exit, where that is the point.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to drain, up to ctx's deadline — the graceful counterpart to
// Close, used by espresso-serve so a selection mid-flight completes and
// its report is persisted before the process exits. When the context
// expires first the remaining connections are cut and ctx.Err is
// returned.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// writeRecordJSON renders one flight record with the same indentation as
// the listing dump.
func writeRecordJSON(w http.ResponseWriter, rec flight.Record) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(rec); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
