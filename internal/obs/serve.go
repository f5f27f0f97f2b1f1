package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// StatusServer is the read-only live view of a running process: current
// metrics, health and readiness, and the stdlib pprof handlers. It never
// mutates observability state — every endpoint renders a mutex-guarded
// snapshot — so serving cannot perturb analysis output (wall-clock
// perturbation from profiling aside, which is exactly what pprof is for).
//
//	GET /metrics   — registry snapshot; JSON (schema-versioned
//	                 SnapshotExport) when the Accept header prefers
//	                 application/json, aligned text otherwise
//	GET /healthz   — liveness probe: 200 with the build identity (go
//	                 version, GOMAXPROCS, git revision) under the same
//	                 field names the perfdiff bench records carry, so a
//	                 live harness is attributable to a bench capture
//	GET /readyz    — readiness probe: 200 only in the serving state, 503
//	                 while recovering (journal replay) or draining
//	                 (shutdown), so balancers stop routing at both edges
//	GET /debug/pprof/ — net/http/pprof index, profiles, symbolization
type StatusServer struct {
	lis net.Listener
	srv *http.Server
}

// ServeOptions carries the HTTP server's slow-client protections. The
// zero value gets the defaults below; set a field negative to disable that
// timeout explicitly (for long-lived pprof profile captures, say).
type ServeOptions struct {
	// ReadHeaderTimeout bounds header receipt (the classic Slowloris
	// exposure). Default 5s.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds receipt of the whole request. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the whole response. Default 0
	// (disabled): /debug/pprof/profile and /debug/pprof/trace stream for
	// their requested duration, which a write deadline would sever.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive idleness. Default 2m.
	IdleTimeout time.Duration
}

func timeoutOr(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// ServeOpts listens on addr (host:port; :0 picks a free port) and starts
// the status server over reg in a background goroutine, with extra routes
// mounted beside the status routes — cmd/admitd uses it to serve the
// admission API and the observability surface from one listener. Extra
// routes appear on the "/" index alongside the built-in ones. The returned
// server reports its bound address via Addr and is shut down with Close.
func ServeOpts(addr string, reg *Registry, opts ServeOptions, extra ...Route) (*StatusServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &StatusServer{lis: lis}
	s.srv = &http.Server{
		Handler:           StatusHandlerWith(reg, extra...),
		ReadHeaderTimeout: timeoutOr(opts.ReadHeaderTimeout, 5*time.Second),
		ReadTimeout:       timeoutOr(opts.ReadTimeout, 30*time.Second),
		WriteTimeout:      timeoutOr(opts.WriteTimeout, 0),
		IdleTimeout:       timeoutOr(opts.IdleTimeout, 2*time.Minute),
	}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the server's bound listen address.
func (s *StatusServer) Addr() string { return s.lis.Addr().String() }

// closeGrace bounds how long Close waits for in-flight responses. Scrapes
// are snapshot renders that finish in microseconds; the grace only matters
// for a pprof profile capture caught mid-flight, and two seconds keeps
// harness teardown prompt even then.
const closeGrace = 2 * time.Second

// Close stops accepting connections and waits briefly for in-flight
// responses to finish, so a scrape racing harness teardown still gets its
// complete body instead of a reset connection. If the grace period expires
// (or shutdown fails) the remaining connections are torn down hard.
func (s *StatusServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Route is one mountable endpoint. Pattern is a net/http mux pattern and
// may carry a Go 1.22 method prefix ("POST /v1/clusters"); the "/" index
// lists the path of every registered route.
type Route struct {
	Pattern string
	Handler http.Handler
}

// StatusHandlerWith builds the read-only status mux over reg (nil means the
// Default registry) with extra routes mounted beside the built-in ones. The
// "/" index is generated from the full route list, so it stays truthful no
// matter what is mounted.
func StatusHandlerWith(reg *Registry, extra ...Route) http.Handler {
	routes := append(statusRoutes(reg), extra...)
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	index := "endpoints: " + strings.Join(routePaths(routes), " ")
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, index)
	})
	return mux
}

// routePaths extracts the deduplicated path list for the "/" index,
// dropping any method prefix (GET and DELETE on one path list it once).
func routePaths(routes []Route) []string {
	paths := make([]string, 0, len(routes))
	seen := make(map[string]bool, len(routes))
	for _, rt := range routes {
		p := rt.Pattern
		if i := strings.IndexByte(p, ' '); i >= 0 {
			p = p[i+1:]
		}
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	return paths
}

// statusRoutes lists the built-in read-only endpoints over reg (nil means
// the Default registry).
func statusRoutes(reg *Registry) []Route {
	if reg == nil {
		reg = Default
	}
	metrics := func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		switch {
		case wantsJSON(r):
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
		case wantsPrometheus(r):
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			snap.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap.WriteText(w)
		}
	}
	healthz := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(healthInfo())
	}
	return []Route{
		{"/metrics", http.HandlerFunc(metrics)},
		{"/healthz", http.HandlerFunc(healthz)},
		{"/readyz", http.HandlerFunc(readyzHandler)},
		{"/debug/pprof/", http.HandlerFunc(pprof.Index)},
		{"/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline)},
		{"/debug/pprof/profile", http.HandlerFunc(pprof.Profile)},
		{"/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol)},
		{"/debug/pprof/trace", http.HandlerFunc(pprof.Trace)},
	}
}

// wantsJSON implements the /metrics content negotiation: JSON when the
// Accept header mentions application/json, text otherwise. A missing
// Accept header means text, so a bare curl prints human-readable output.
func wantsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json")
}

// wantsPrometheus selects the Prometheus text exposition: an explicit
// ?format=prometheus, or an Accept header asking for text/plain (what the
// Prometheus scraper sends, with a version parameter) or an openmetrics
// type. A bare curl sends Accept: */* and still gets the aligned
// human-readable text.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// Health is the /healthz body. The identity fields deliberately use the
// perfdiff.Meta JSON names (go_version, gomaxprocs, git_rev), so a live
// harness can be matched against the BENCH_hotpath.json capture metadata.
type Health struct {
	OK         bool   `json:"ok"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`
}

var (
	healthOnce sync.Once
	health     Health
)

// healthInfo resolves the build identity once per process: the git revision
// comes from the binary's embedded VCS stamp when present (release builds),
// falling back to asking git directly (go test / go run builds have no
// stamp), then to "unknown" — the same fallback chain the bench-record
// capture uses, so the two agree on any given checkout.
func healthInfo() Health {
	healthOnce.Do(func() {
		health = Health{
			OK:         true,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GitRev:     "unknown",
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 7 {
					health.GitRev = s.Value[:7]
					return
				}
			}
		}
		if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			if v := strings.TrimSpace(string(rev)); v != "" {
				health.GitRev = v
			}
		}
	})
	return health
}
