package admit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs/obshttp"
	"repro/internal/task"
)

// HTTP/JSON surface of the service (mounted by cmd/admitd, typically next
// to the obshttp status routes):
//
//	POST   /v1/clusters               {"name","m","policy","surcharge"}  → 201 Status
//	GET    /v1/clusters                                                  → 200 {"clusters":[Status...]}
//	GET    /v1/clusters/{name}                                           → 200 Status
//	DELETE /v1/clusters/{name}                                           → 204
//	POST   /v1/clusters/{name}/admit  {"name","c","t","d","evidence"}    → 200 Result
//	POST   /v1/clusters/{name}/remove {"handle"}                         → 200 {"removed":true}
//
// An analyzed rejection answers with its verdict (cause, causeDetail,
// reason); the per-processor evidence is probed and sent only when the
// admit body sets "evidence":true.
//
// Both admission verdicts are 200s — a rejection is an analyzed answer, not
// a transport error (mirroring cmd/explain's exit-code contract, where only
// usage errors are distinguished from verdicts). Malformed requests are
// 400, oversized bodies 413, unknown clusters and handles 404, duplicate
// cluster names 409. When a Gate is installed, a full wait queue on the
// admit and remove endpoints sheds with 429 + Retry-After; a journaled
// mutation that cannot be made durable — or a request whose deadline
// expires, whether queued at the gate or inside the handler — is 503.
// Handler's mux answers a request no route takes itself: 404 for an
// unknown path, 405 for a known path with another method, 301 to the
// cleaned form of a path with dot or empty segments.
//
// GET /v1/canon returns a digest-friendly hex dump of the registry's
// canonical state (Service.CanonicalState) — the crash-recovery smoke
// compares this across a SIGKILL/restart cycle.

// encBufs pools response-encoding buffers across requests, the service's
// per-request workspace (the same recycle-don't-reallocate discipline as
// experiments.Workspace on the batch side).
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxBodyBytes caps request bodies; admission requests are tiny.
const maxBodyBytes = 1 << 20

// CreateRequest is the POST /v1/clusters body.
type CreateRequest struct {
	Name      string `json:"name"`
	M         int    `json:"m"`
	Policy    string `json:"policy,omitempty"`
	Surcharge int64  `json:"surcharge,omitempty"`
}

// AdmitRequest is the POST /v1/clusters/{name}/admit body: one task in the
// paper's model (c, t, optional constrained deadline d, optional label).
// Evidence asks for the per-processor evidence of an analyzed rejection
// (Cluster.AdmitWithEvidence); it must be a JSON bool.
type AdmitRequest struct {
	Name     string `json:"name,omitempty"`
	C        int64  `json:"c"`
	T        int64  `json:"t"`
	D        int64  `json:"d,omitempty"`
	Evidence bool   `json:"evidence,omitempty"`
}

// RemoveRequest is the POST /v1/clusters/{name}/remove body.
type RemoveRequest struct {
	Handle uint64 `json:"handle"`
}

// Handler returns the service's HTTP mux. The routes are also exported via
// Routes for mounting beside other handlers (the obshttp status server).
// Every response carries a request ID, the mux's own 404, 405 and
// path-cleaning redirects included.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.Routes() {
		mux.Handle(r.Pattern, r.Handler)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		EnsureRequestID(w, r)
		mux.ServeHTTP(w, r)
	})
}

// Routes lists the service's endpoints (Go 1.22 method+path patterns) as
// obshttp routes, so cmd/admitd can mount them beside the status routes
// with obshttp.ServeOpts and the "/" index names them. Every route is wrapped in the
// tracing layer (trace.go), with the tracer *outside* the gate on the
// admission routes — a 429 shed must still echo the request ID and count in
// the route's RED metrics.
func (s *Service) Routes() []obshttp.Route {
	return []obshttp.Route{
		{Pattern: "POST /v1/clusters", Handler: s.traced("create", http.HandlerFunc(s.handleCreate))},
		{Pattern: "GET /v1/clusters", Handler: s.traced("list", http.HandlerFunc(s.handleList))},
		{Pattern: "GET /v1/clusters/{name}", Handler: s.traced("status", http.HandlerFunc(s.handleStatus))},
		{Pattern: "DELETE /v1/clusters/{name}", Handler: s.traced("delete", http.HandlerFunc(s.handleDelete))},
		{Pattern: "POST /v1/clusters/{name}/admit", Handler: s.traced("admit", s.gated(s.handleAdmit))},
		{Pattern: "POST /v1/clusters/{name}/remove", Handler: s.traced("remove", s.gated(s.handleRemove))},
		{Pattern: "GET /v1/canon", Handler: s.traced("canon", http.HandlerFunc(s.handleCanon))},
	}
}

// gated wraps an admission-path handler with the backpressure gate: derive
// the per-request deadline, claim an execution slot (bounded queue, 429 +
// Retry-After when shed), and thread the deadline context to the handler.
// With no gate installed the handler runs bare. The injected
// HandlerLatency fault runs inside the held slot, so tests can saturate
// the gate deterministically.
func (s *Service) gated(h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := s.gate
		if g == nil {
			h(w, r)
			return
		}
		ctx, cancel := g.requestContext(r.Context())
		defer cancel()
		if err := g.Acquire(ctx); err != nil {
			if errors.Is(err, ErrShed) {
				w.Header().Set("Retry-After", g.retryAfterSeconds())
				writeError(w, http.StatusTooManyRequests, "overloaded: admission gate saturated, retry later")
				return
			}
			// Deadline expired while queued: same 503 as expiring inside
			// the handler — the status depends on what happened, not where
			// the clock ran out.
			writeOpError(w, err)
			return
		}
		defer g.Release()
		if d := faultinject.HandlerLatencyDelay(); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		h(w, r.WithContext(ctx))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encBufs.Get().(*bytes.Buffer)
	defer encBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeResult answers an admission with its verdict, encoded by
// appendResult into a pooled buffer.
func writeResult(w http.ResponseWriter, res *Result) {
	buf := encBufs.Get().(*bytes.Buffer)
	defer encBufs.Put(buf)
	buf.Reset()
	b, err := appendResult(buf.AvailableBuffer(), res)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	buf.Write(b) // keeps a grown encoding in the pooled buffer
	writeBody(w, http.StatusOK, buf.Bytes())
}

// removedBody is the remove route's constant acknowledgement.
var removedBody = []byte("{\"removed\":true}\n")

// writeBody sends a complete JSON body with an explicit Content-Length:
// without it net/http frames any body past its 2 KB pre-chunking buffer
// (every analyzed rejection on a large cluster) as chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes one JSON object into v, followed by nothing
// but whitespace. Oversized bodies are a clean 413 (http.MaxBytesReader
// both enforces the cap and tells the server to close the connection, the
// slow-client-safe behavior), not the truncation-induced 400 a bare
// LimitReader would produce.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Token, not More: More reports false before a stray '}' or ']',
		// while Token reaches io.EOF only past trailing whitespace.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

func (s *Service) cluster(w http.ResponseWriter, r *http.Request) (*Cluster, bool) {
	name := r.PathValue("name")
	c, ok := s.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown cluster %q", name)
		return nil, false
	}
	return c, true
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c, err := s.Create(r.Context(), req.Name, req.M, req.Policy, task.Time(req.Surcharge))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrExists) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.Names()
	statuses := make([]Status, 0, len(names))
	for _, name := range names {
		if c, ok := s.Get(name); ok {
			statuses = append(statuses, c.Status())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"clusters": statuses})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.cluster(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.Delete(r.Context(), r.PathValue("name"))
	if err != nil {
		writeOpError(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown cluster %q", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleAdmit(w http.ResponseWriter, r *http.Request) {
	c, ok := s.cluster(w, r)
	if !ok {
		return
	}
	var req AdmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := c.admit(r.Context(), task.Task{Name: req.Name, C: req.C, T: req.T, D: req.D}, req.Evidence)
	if err != nil {
		writeOpError(w, err)
		return
	}
	// Attribute the verdict on the trace info so the access log and the
	// slow-request ring can tell a slow rejection from a slow acceptance.
	if ri, ok := r.Context().Value(reqInfoKey{}).(*ReqInfo); ok {
		if res.Accepted {
			ri.Verdict = "accepted"
		} else {
			ri.Verdict, ri.Cause = "rejected", res.Cause
		}
	}
	writeResult(w, &res)
}

func (s *Service) handleRemove(w http.ResponseWriter, r *http.Request) {
	c, ok := s.cluster(w, r)
	if !ok {
		return
	}
	var req RemoveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	removed, err := c.Remove(r.Context(), req.Handle)
	if err != nil {
		writeOpError(w, err)
		return
	}
	if !removed {
		writeError(w, http.StatusNotFound, "no resident task with handle %d", req.Handle)
		return
	}
	writeBody(w, http.StatusOK, removedBody)
}

// writeOpError maps service-level operation failures: durability failures
// and expired request deadlines are both 503 — the request may well
// succeed on retry, nothing about it was invalid. A cluster deleted
// between lookup and operation is 404, exactly as if the lookup had
// missed.
func writeOpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDeleted):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request deadline expired before admission ran")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Service) handleCanon(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"canon": fmt.Sprintf("%x", s.CanonicalState())})
}
