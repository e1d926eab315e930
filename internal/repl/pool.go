package repl

import (
	"sync"

	"remus/internal/wal"
)

// Allocation control for the catch-up hot path (§3.6): the propagator makes
// one update cache queue and one record slice per source transaction and the
// replayer retires them at the same rate, so both are recycled through
// sync.Pools. Only async-phase (taskApply) record slices are pooled on the
// replay side — a validation task's records stay referenced until its
// shadow's outcome task (SubmitCommitShadow/SubmitAbortShadow) re-registers
// them, and task
// structs themselves are never pooled because the dependency index retains
// completed-task pointers (recycling one would alias a dependency's done
// channel).

var recsPool = sync.Pool{
	New: func() any {
		s := make([]wal.Record, 0, 8)
		return &s
	},
}

// getRecs returns an empty record slice with pooled capacity.
func getRecs() []wal.Record {
	return (*recsPool.Get().(*[]wal.Record))[:0]
}

// putRecs recycles a record slice's backing array. Callers must be the last
// reader of the slice.
func putRecs(s []wal.Record) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	recsPool.Put(&s)
}

var queuePool = sync.Pool{New: func() any { return new(queue) }}

// newQueue returns an empty update cache queue backed by pooled storage.
func newQueue() *queue {
	q := queuePool.Get().(*queue)
	q.records = getRecs()
	return q
}

// putQueue recycles a queue whose records and spill file have already been
// detached or released.
func putQueue(q *queue) {
	*q = queue{}
	queuePool.Put(q)
}
