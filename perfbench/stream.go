package main

import (
	"math"
	"math/rand"
	"strconv"

	"repro/internal/task"
)

// tenantSpec is one virtual cluster the admission workloads hold near
// capacity: each closed-loop connection owns exactly one tenant.
type tenantSpec struct {
	Name   string
	M      int
	Policy string
	// Target is the resident population at which the stream starts removing.
	Target int
}

// opKind distinguishes the two mutating requests of the op stream.
type opKind uint8

const (
	opAdmit opKind = iota
	opRemove
)

// op is one request of a tenant's stream.
type op struct {
	Kind   opKind
	Task   task.Task // admit
	Handle uint64    // remove
	Retry  bool      // an identical resend of the previous rejected admit
}

// verdict is what the service answered to one op; the verdict oracle
// compares these field by field (CacheHit is deliberately absent).
type verdict struct {
	Accepted bool
	Handle   uint64
	Proc     int
	Cause    string
	Removed  bool
}

// class buckets an answered op for the latency report.
func (o op) class(v verdict) string {
	switch {
	case o.Kind == opRemove:
		return "remove"
	case v.Accepted:
		return "accept"
	}
	return "reject"
}

// body renders the op's JSON request body, exactly as sent over HTTP.
func (o op) body() []byte {
	if o.Kind == opRemove {
		b := append([]byte(`{"handle":`), strconv.FormatUint(o.Handle, 10)...)
		return append(b, '}')
	}
	b := append([]byte(`{"name":"`), o.Task.Name...)
	b = append(b, `","c":`...)
	b = strconv.AppendInt(b, o.Task.C, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, o.Task.T, 10)
	if o.Task.D != 0 {
		b = append(b, `,"d":`...)
		b = strconv.AppendInt(b, o.Task.D, 10)
	}
	return append(b, '}')
}

// streamGen produces one tenant's seeded op stream. The stream reacts to
// verdicts (removals pick among the current residents), and admission is
// deterministic in (state, candidate), so a seed fixes the whole stream:
// every layer the benchmark drives sees the same ops in the same order.
//
// Candidates have log-uniform periods in [100, 10000], utilizations uniform
// in [0.02, 0.22] and, one time in five, a constrained deadline. Half of
// the rejections are followed by an identical retry (a memo hit); the
// others, and every retry, by the removal of a random resident, as is every
// op once the population reaches the target. Removing on rejection holds
// the tenant at its capacity edge without ever stalling on a full cluster.
type streamGen struct {
	spec      tenantSpec
	rng       *rand.Rand
	residents []uint64
	retry     *task.Task
	evict     bool
	made      int
}

func newStreamGen(spec tenantSpec, seed int64, idx int) *streamGen {
	return &streamGen{spec: spec, rng: rand.New(rand.NewSource(seed*1000003 + int64(idx)*7919 + 17))}
}

// next returns the tenant's next op. The caller must report its answer
// through observe before asking for another.
func (g *streamGen) next() op {
	if g.retry != nil {
		t := *g.retry
		g.retry = nil
		return op{Kind: opAdmit, Task: t, Retry: true}
	}
	if g.evict || len(g.residents) >= g.spec.Target {
		g.evict = false
		k := g.rng.Intn(len(g.residents))
		h := g.residents[k]
		g.residents[k] = g.residents[len(g.residents)-1]
		g.residents = g.residents[:len(g.residents)-1]
		return op{Kind: opRemove, Handle: h}
	}
	g.made++
	period := math.Exp(math.Log(100) + g.rng.Float64()*(math.Log(10000)-math.Log(100)))
	tt := int64(math.Round(period))
	u := 0.02 + g.rng.Float64()*0.20
	c := int64(math.Round(u * float64(tt)))
	if c < 1 {
		c = 1
	}
	var d int64
	if g.rng.Intn(5) == 0 {
		// Constrained deadline in [C, T).
		d = c + g.rng.Int63n(tt-c)
	}
	return op{Kind: opAdmit, Task: task.Task{Name: "t" + strconv.Itoa(g.made), C: c, T: tt, D: d}}
}

// observe feeds the answer to o back into the generator.
func (g *streamGen) observe(o op, v verdict) {
	if o.Kind == opRemove {
		return
	}
	if v.Accepted {
		g.residents = append(g.residents, v.Handle)
		return
	}
	if !o.Retry && g.rng.Intn(2) == 0 {
		t := o.Task
		g.retry = &t
		return
	}
	g.evict = len(g.residents) > 0
}

// population is the number of residents the generator believes it holds.
func (g *streamGen) population() int { return len(g.residents) }
