// Package wal implements the write-ahead log of a node. Every data change,
// prepare/validation event and transaction outcome is appended as a typed
// record with a monotonically increasing LSN.
//
// Remus (§3.3) tracks incremental changes over a migration snapshot by
// tailing this log: the propagation process reads streaming records
// continuously through a Reader, buffers each transaction's changes, and
// ships them to the destination when it sees the transaction's commit (async
// mode) or validation/prepare record (sync mode, §3.5.2).
package wal

import (
	"fmt"
	"sync"

	"remus/internal/base"
)

// LSN is a log sequence number. LSNs are dense: the n-th appended record has
// LSN n (1-based). ByteOffset accounting is tracked separately per record.
type LSN uint64

// RecordType enumerates WAL record kinds.
type RecordType uint8

const (
	// RecInsert logs a new tuple.
	RecInsert RecordType = iota + 1
	// RecUpdate logs an overwrite of an existing tuple.
	RecUpdate
	// RecDelete logs a tombstone.
	RecDelete
	// RecLock logs an explicit row-level lock taken by a transaction (FOR
	// UPDATE); it carries no value but participates in MOCC validation.
	RecLock
	// RecPrepare logs the 2PC prepare of a transaction. When Validation is
	// set it doubles as the MOCC validation record of §3.5.2: the
	// propagation process ships the transaction's buffered changes when it
	// encounters it.
	RecPrepare
	// RecCommit logs a transaction commit with its commit timestamp.
	RecCommit
	// RecAbort logs a transaction rollback.
	RecAbort
	// RecCommitPrepared logs the commit decision for a previously prepared
	// transaction (second phase of 2PC).
	RecCommitPrepared
	// RecRollbackPrepared logs the rollback decision for a previously
	// prepared transaction.
	RecRollbackPrepared
)

func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecUpdate:
		return "update"
	case RecDelete:
		return "delete"
	case RecLock:
		return "lock"
	case RecPrepare:
		return "prepare"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCommitPrepared:
		return "commit-prepared"
	case RecRollbackPrepared:
		return "rollback-prepared"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// IsChange reports whether the record mutates tuple state (and therefore must
// be replayed on a migration destination).
func (t RecordType) IsChange() bool {
	switch t {
	case RecInsert, RecUpdate, RecDelete, RecLock:
		return true
	}
	return false
}

// Record is one WAL entry. Not every field is meaningful for every type; see
// the RecordType docs.
type Record struct {
	LSN        LSN
	Type       RecordType
	XID        base.XID       // local transaction id
	Txn        base.TxnID     // global transaction id (distributed txns)
	Table      base.TableID   // change records
	Shard      base.ShardID   // change records
	Key        base.Key       // change records
	Value      base.Value     // insert/update payload
	CommitTS   base.Timestamp // commit / commit-prepared records
	StartTS    base.Timestamp // prepare records: the txn's snapshot, needed by shadow txns
	Validation bool           // prepare records: MOCC validation record
}

// Size returns the approximate on-wire size of the record in bytes, used for
// network byte accounting and propagation-lag estimation.
func (r *Record) Size() int {
	return 64 + len(r.Key) + len(r.Value)
}

// Backend is a durable sink attached behind the in-memory log. When present,
// every Append is written through before it is acknowledged, a SyncTo that
// is not already covered fsyncs it, and Truncate offers the covered prefix
// for retirement.
// The backend sees records in LSN order (calls are made under the log mutex)
// but must not assume LSNs are dense: restart-from-disk recovery re-logs the
// replayed tail in memory only, leaving gaps in the on-disk sequence.
type Backend interface {
	// Append durably buffers one record (an OS write, not yet an fsync).
	Append(rec Record) error
	// Sync makes everything appended so far durable (fsync).
	Sync() error
	// Retire tells the backend that records with LSN <= upto are no longer
	// needed by readers. The backend is free to keep them anyway (it must,
	// unless a checkpoint already covers them).
	Retire(upto LSN)
	// Close releases backend resources. Appends after Close are invalid.
	Close() error
}

// Log is one node's write-ahead log. Appends are synchronous (the paper's
// experiments enable synchronous WAL logging); records remain available to
// readers until Truncate.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	records []Record // records[i] has LSN = firstLSN + i
	first   LSN      // LSN of records[0]
	next    LSN      // next LSN to assign
	bytes   uint64   // total bytes ever appended
	syncs   uint64   // fsyncs issued (see SyncTo)
	synced  LSN      // highest LSN covered by a sync
	closed  bool
	backend Backend // nil: purely in-memory
}

// New returns an empty log whose first record will have LSN 1.
func New() *Log {
	l := &Log{first: 1, next: 1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// AttachBackend installs a durable backend. From this point every Append is
// written through to it and SyncTo fsyncs it. Attach before the first append
// that must be durable; attaching replaces any previous backend.
func (l *Log) AttachBackend(b Backend) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.backend = b
}

// ResetTo positions an empty log so its next append gets LSN next. It is used
// by restart-from-disk recovery to resume the LSN sequence after the
// recovered tail; calling it on a log that has already been appended to
// panics.
func (l *Log) ResetTo(next LSN) {
	if next == 0 {
		next = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.records) > 0 || l.next != 1 {
		panic("wal: ResetTo on a non-empty log")
	}
	l.first = next
	l.next = next
	l.synced = next - 1
}

// Append assigns the next LSN to rec, appends it, and returns the LSN.
// Append on a closed log panics: it indicates writes after node shutdown.
func (l *Log) Append(rec Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		panic("wal: append to closed log")
	}
	rec.LSN = l.next
	l.next++
	l.records = append(l.records, rec)
	l.bytes += uint64(rec.Size())
	if l.backend != nil {
		// A failed durable append cannot be reported through this API (the
		// commit path treats Append as infallible); it means the node lost
		// its disk, which is fatal.
		if err := l.backend.Append(rec); err != nil {
			panic(fmt.Sprintf("wal: durable append failed: %v", err))
		}
	}
	l.cond.Broadcast()
	return rec.LSN
}

// FirstLSN returns the LSN of the oldest record still held (the truncation
// horizon). It equals FlushLSN()+1 when the log holds no records.
func (l *Log) FirstLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// FlushLSN returns the LSN of the last appended record (the current tail
// position; §3.4 records it as LSN_unsync). Zero means the log is empty.
func (l *Log) FlushLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Bytes returns the total bytes ever appended.
func (l *Log) Bytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// SyncTo makes every record up to lsn durable and returns the highest LSN
// a sync covers. A commit calls it with its commit record's LSN before it
// publishes the commit. When an earlier sync already covers lsn it returns
// at once: the record rode along in another committer's fsync. Otherwise it
// syncs the whole tail. The fsync runs under the log mutex, so appends wait
// for it; a leader/follower sync outside the mutex measured a worse
// median commit latency. Without a backend the sync moves no data but
// is still counted, so Syncs() is the same figure on a memory-only log.
func (l *Log) SyncTo(lsn LSN) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.synced {
		return l.synced
	}
	if l.backend != nil {
		if err := l.backend.Sync(); err != nil {
			panic(fmt.Sprintf("wal: durable sync failed: %v", err))
		}
	}
	l.syncs++
	l.synced = l.next - 1
	return l.synced
}

// Syncs reports the number of fsyncs issued; a SyncTo that an earlier sync
// covered is not one.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// SyncedLSN reports the highest LSN covered by a sync.
func (l *Log) SyncedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Get returns the record at lsn. It returns false if the LSN was truncated
// away or not yet written.
func (l *Log) Get(lsn LSN) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.first || lsn >= l.next {
		return Record{}, false
	}
	return l.records[lsn-l.first], true
}

// Truncate drops all records with LSN <= upto. Readers positioned before the
// truncation point will fail their next read.
func (l *Log) Truncate(upto LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upto >= l.next {
		upto = l.next - 1
	}
	if upto < l.first {
		return
	}
	n := upto - l.first + 1
	l.records = append([]Record(nil), l.records[n:]...)
	l.first = upto + 1
	if l.backend != nil {
		l.backend.Retire(upto)
	}
}

// Close wakes all blocked readers; subsequent reads return ErrClosed once
// they exhaust the log. A durable backend is closed as well.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.backend != nil {
		_ = l.backend.Close()
		l.backend = nil
	}
	l.cond.Broadcast()
}

// ErrClosed is returned by Reader.Next after the log is closed and drained.
var ErrClosed = fmt.Errorf("wal: log closed")

// ErrTruncated is returned when a reader's position was truncated away.
var ErrTruncated = fmt.Errorf("wal: position truncated")

// Reader tails the log from a position. Reader is not safe for concurrent
// use by multiple goroutines.
type Reader struct {
	log *Log
	pos LSN // next LSN to deliver
}

// NewReader returns a reader that will deliver records starting at from
// (typically FlushLSN()+1 captured when a migration snapshot is taken).
func (l *Log) NewReader(from LSN) *Reader {
	if from == 0 {
		from = 1
	}
	return &Reader{log: l, pos: from}
}

// Next blocks until a record at the reader's position exists and returns it.
// If stop is closed while waiting, Next returns base.ErrTimeout. Closing the
// log makes Next return ErrClosed once the position passes the tail.
func (r *Reader) Next(stop <-chan struct{}) (Record, error) {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if r.pos < l.first {
			return Record{}, ErrTruncated
		}
		if r.pos < l.next {
			rec := l.records[r.pos-l.first]
			r.pos++
			return rec, nil
		}
		if l.closed {
			return Record{}, ErrClosed
		}
		if stopped(stop) {
			return Record{}, base.ErrTimeout
		}
		// Block; a stop-channel close is observed by the poller goroutine
		// pattern used by callers: they close the log or rely on the
		// broadcast below. To keep the reader simple and condition-based we
		// re-check stop each wakeup and also arrange a watcher.
		waitOrStop(l, stop)
	}
}

// TryNextBatch copies up to len(buf) pending records into buf without
// blocking and advances the reader past them. It returns n == 0 with a nil
// error at the tail of an open log; once the log is closed and drained it
// returns ErrClosed. Batch reads take the log mutex once per batch instead
// of once per record — the propagation hot path depends on that.
func (r *Reader) TryNextBatch(buf []Record) (int, error) {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.pos < l.first {
		return 0, ErrTruncated
	}
	n := copy(buf, l.records[r.pos-l.first:l.next-l.first])
	if n == 0 && l.closed {
		return 0, ErrClosed
	}
	r.pos += LSN(n)
	return n, nil
}

// TryNext returns the next record without blocking; ok is false when the
// reader is at the tail.
func (r *Reader) TryNext() (Record, bool, error) {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.pos < l.first {
		return Record{}, false, ErrTruncated
	}
	if r.pos < l.next {
		rec := l.records[r.pos-l.first]
		r.pos++
		return rec, true, nil
	}
	if l.closed {
		return Record{}, false, ErrClosed
	}
	return Record{}, false, nil
}

// Pos returns the LSN of the next record the reader will deliver.
func (r *Reader) Pos() LSN { return r.pos }

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// waitOrStop waits on the log's condition variable, waking early if stop is
// closed. Caller holds l.mu.
func waitOrStop(l *Log, stop <-chan struct{}) {
	if stop == nil {
		l.cond.Wait()
		return
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-stop:
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		case <-done:
		}
	}()
	l.cond.Wait()
	close(done)
}
