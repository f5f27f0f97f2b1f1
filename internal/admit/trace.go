package admit

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Request tracing (DESIGN.md §15): every request gets an ID — the client's
// X-Request-Id when it sent a usable one, a generated one otherwise — echoed
// on every response (including 4xx/5xx and gate sheds), threaded through the
// engine into journal records, and stamped on the access log and the
// slow/errored-request ring. The ID is the join key across all four views:
// an operator holding one from a client report can grep the access log, pull
// the ring entry, and find the exact WAL record the request produced.

// RequestIDHeader is the request-ID header, accepted inbound and always set
// outbound.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds accepted client-supplied IDs; longer (or
// non-printable) values are replaced with a generated ID rather than
// laundered into logs.
const maxRequestIDLen = 128

// idPrefix is a per-process random prefix so IDs from different admitd
// instances (or restarts) never collide; idSeq makes them unique within the
// process. Format: 8 hex chars, '-', decimal sequence.
var (
	idPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy exhaustion at init is effectively fatal elsewhere;
			// a fixed prefix only weakens cross-process uniqueness.
			return "admitd00"
		}
		return hex.EncodeToString(b[:])
	}()
	idSeq atomic.Uint64
)

// newRequestID mints a process-unique request ID.
func newRequestID() string {
	seq := idSeq.Add(1)
	// Hand-rolled append keeps this a single small allocation.
	buf := make([]byte, 0, len(idPrefix)+1+20)
	buf = append(buf, idPrefix...)
	buf = append(buf, '-')
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + seq%10)
		seq /= 10
		if seq == 0 {
			break
		}
	}
	buf = append(buf, tmp[i:]...)
	return string(buf)
}

// usableRequestID reports whether a client-supplied ID is safe to propagate
// into headers and JSONL logs: non-empty, bounded, printable ASCII.
func usableRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// reqInfoKey is the context key for the per-request trace info.
type reqInfoKey struct{}

// ReqInfo is the per-request trace state. The handler chain mutates it in
// place (handleAdmit fills Verdict/Cause), so it travels by pointer.
type ReqInfo struct {
	ID      string
	Verdict string // "accepted" / "rejected" on admit routes
	Cause   string // partition cause on rejections
}

// RequestIDFrom returns the request ID threaded through ctx, or "" outside a
// traced request. Cluster mutations pass it into journal records.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if ri, ok := ctx.Value(reqInfoKey{}).(*ReqInfo); ok {
		return ri.ID
	}
	return ""
}

// EnsureRequestID resolves the request's ID (inbound header or generated)
// and sets it on the response; an ID an outer layer already set on the
// response is kept. It is for handlers outside the traced route set —
// cmd/admitd's ready guard uses it so even a 503 "not ready yet" carries
// the ID the client can quote, and Service.Handler so the mux's own 404,
// 405 and redirect answers do.
func EnsureRequestID(w http.ResponseWriter, r *http.Request) string {
	if id := w.Header().Get(RequestIDHeader); id != "" {
		return id
	}
	id := r.Header.Get(RequestIDHeader)
	if !usableRequestID(id) {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// statusWriter captures the response status for metrics/log attribution.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.code, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(b)
}

// TraceConfig wires the optional per-request sinks. All fields are optional:
// a zero config still assigns/echoes request IDs and records RED metrics.
type TraceConfig struct {
	// Ring retains recent slow/errored requests for GET /debug/requests.
	Ring *obs.RequestRing
	// SlowThreshold marks a successful request as ring-worthy. Zero means
	// only errored requests enter the ring.
	SlowThreshold time.Duration
	// AccessLog receives one JSONL record per (sampled) request.
	AccessLog *obs.AccessLog
}

// SetTracing installs the per-request sinks. Like SetGate, wire it at
// startup — it is not safe to call with requests in flight.
func (s *Service) SetTracing(cfg TraceConfig) { s.trace = cfg }

// httpLatencyBounds is the route-latency bucket layout in microseconds:
// 25µs–1s, covering the warm cache-hit admit (tens of µs) through a gate
// queue wait at the default 1s deadline.
var httpLatencyBounds = []int64{
	25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000,
	50000, 100000, 250000, 500000, 1000000,
}

// routeMetrics is one route's RED instruments, pre-registered at package
// init so the hot path never touches the registry mutex.
type routeMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

func newRouteMetrics(route string) *routeMetrics {
	return &routeMetrics{
		requests: obs.NewCounter("admit.http." + route + ".requests"),
		errors:   obs.NewCounter("admit.http." + route + ".errors"),
		latency:  obs.NewHistogram("admit.http."+route+".latency_us", httpLatencyBounds...),
	}
}

// Route keys, one per endpoint. Metrics are per-route-key, not per-URL, so
// tenant names never explode the metric namespace.
var httpRouteMetrics = map[string]*routeMetrics{
	"create": newRouteMetrics("create"),
	"list":   newRouteMetrics("list"),
	"status": newRouteMetrics("status"),
	"delete": newRouteMetrics("delete"),
	"admit":  newRouteMetrics("admit"),
	"remove": newRouteMetrics("remove"),
	"canon":  newRouteMetrics("canon"),
}

// traced wraps a route handler with the tracing/RED layer: resolve the
// request ID, set the response header before the handler runs (so every
// error path — including a gate shed that never reaches the handler —
// carries it), time the request, and fan the outcome out to metrics, the
// ring, and the access log. It wraps *outside* the gate on admission routes:
// a 429 shed is precisely the response an operator most wants attributable.
func (s *Service) traced(route string, h http.Handler) http.Handler {
	rm := httpRouteMetrics[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &ReqInfo{ID: EnsureRequestID(w, r)}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
		dur := time.Since(start)
		durUS := dur.Microseconds()

		status := sw.code
		if !sw.wrote {
			status = http.StatusOK // handler wrote nothing: implicit 200
		}
		rm.requests.Inc()
		if status >= 400 {
			rm.errors.Inc()
		}
		rm.latency.Observe(durUS)

		cfg := &s.trace
		if cfg.Ring == nil && cfg.AccessLog == nil {
			return
		}
		tenant := r.PathValue("name")
		if cfg.Ring != nil && (status >= 400 || (cfg.SlowThreshold > 0 && dur >= cfg.SlowThreshold)) {
			cfg.Ring.Record(obs.RequestRecord{
				ID: ri.ID, Time: start, Method: r.Method, Route: route,
				Path: r.URL.Path, Tenant: tenant, Status: status,
				DurUS: durUS, Verdict: ri.Verdict, Cause: ri.Cause,
			})
		}
		cfg.AccessLog.Log(obs.AccessRecord{
			ID: ri.ID, Method: r.Method, Route: route, Tenant: tenant,
			Status: status, Verdict: ri.Verdict, Cause: ri.Cause, DurUS: durUS,
		})
	})
}
