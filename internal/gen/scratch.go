package gen

import (
	"fmt"
	"strconv"

	"repro/internal/task"
)

// Scratch holds reusable generator buffers so the acceptance-sweep hot
// path can draw task sets without allocating: the utilization vector, the
// materialized set, the harmonic period ladders and the constrained-
// deadline copy all grow once to the working-set size and are then
// recycled. The zero value is ready to use.
//
// Ownership rule: a task.Set returned by one of the *Into generators
// aliases the scratch and stays valid only until the next generate call on
// the same Scratch. Callers that need to retain a set must Clone it. A
// Scratch is not safe for concurrent use; the experiment harness keeps one
// per worker.
type Scratch struct {
	us      []float64
	set     task.Set
	out     task.Set // ConstrainInto output (its input may alias set)
	ladders [][]task.Time
}

// usBuf returns the utilization accumulation buffer (nil Scratch → fresh).
func (sc *Scratch) usBuf() []float64 {
	if sc == nil {
		return nil
	}
	return sc.us[:0]
}

// saveUs records the grown utilization buffer for reuse.
func (sc *Scratch) saveUs(us []float64) {
	if sc != nil {
		sc.us = us
	}
}

// setBuf returns the task-set accumulation buffer (nil Scratch → fresh
// with the given capacity hint).
func (sc *Scratch) setBuf(capHint int) task.Set {
	if sc == nil {
		return make(task.Set, 0, capHint)
	}
	return sc.set[:0]
}

// saveSet records the grown set buffer for reuse.
func (sc *Scratch) saveSet(ts task.Set) {
	if sc != nil {
		sc.set = ts
	}
}

// laddersBuf returns a [][]Time with exactly chains entries, reusing outer
// and inner capacity (nil Scratch → fresh).
func (sc *Scratch) laddersBuf(chains int) [][]task.Time {
	if sc == nil {
		return make([][]task.Time, chains)
	}
	if cap(sc.ladders) < chains {
		grown := make([][]task.Time, chains)
		copy(grown, sc.ladders[:cap(sc.ladders)])
		sc.ladders = grown
	} else {
		sc.ladders = sc.ladders[:chains]
	}
	for k := range sc.ladders {
		sc.ladders[k] = sc.ladders[k][:0]
	}
	return sc.ladders
}

// Generated task names are interned so the per-sample path does not
// Sprintf: sets beyond the cache size (far past any experiment's) fall
// back to formatting.
const nameCacheSize = 1024

var uniformNames, harmonicNames [nameCacheSize]string

func init() {
	internNames(&uniformNames, 't')
	internNames(&harmonicNames, 'h')
}

// internNames fills names[i] with prefix followed by i in decimal, all
// sliced from one backing string, so the table costs two allocations
// instead of one formatted string per name.
func internNames(names *[nameCacheSize]string, prefix byte) {
	var ends [nameCacheSize]int
	buf := make([]byte, 0, 5*nameCacheSize) // "x1023" is the longest name
	for i := range names {
		buf = append(buf, prefix)
		buf = strconv.AppendInt(buf, int64(i), 10)
		ends[i] = len(buf)
	}
	all, start := string(buf), 0
	for i, end := range ends {
		names[i] = all[start:end]
		start = end
	}
}

func uniformName(i int) string {
	if i < nameCacheSize {
		return uniformNames[i]
	}
	return fmt.Sprintf("t%d", i)
}

func harmonicName(i int) string {
	if i < nameCacheSize {
		return harmonicNames[i]
	}
	return fmt.Sprintf("h%d", i)
}
