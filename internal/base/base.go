// Package base defines the primitive identifier and timestamp types shared by
// every layer of the database: nodes, shards, transactions, keys and the
// errors that cross package boundaries.
//
// The types are deliberately tiny: everything above this package (MVCC, WAL,
// transaction manager, migration) speaks in terms of these identifiers, so
// keeping them in one dependency-free package avoids import cycles.
package base

import (
	"errors"
	"fmt"
)

// Timestamp is a cluster-wide transaction timestamp. With the centralized GTS
// scheme it is a plain monotonically increasing counter; with the
// decentralized DTS scheme it is a Hybrid Logical Clock value encoded as
// (physical time << LogicalBits) | logical counter. Both encodings compare
// correctly with <, which is all snapshot isolation needs.
type Timestamp uint64

const (
	// TsZero is the zero timestamp; no transaction ever commits at TsZero.
	TsZero Timestamp = 0
	// TsBootstrap is the reserved minimal commit timestamp used when
	// installing migrated snapshot tuples on a destination node (§3.2 of the
	// paper): it makes the snapshot visible to every transaction that starts
	// after the snapshot was taken.
	TsBootstrap Timestamp = 1
	// TsMax is larger than any timestamp an oracle will ever hand out.
	TsMax Timestamp = ^Timestamp(0)
)

// LogicalBits is the number of low bits of a DTS Timestamp reserved for the
// logical component of the hybrid logical clock.
const LogicalBits = 16

// HLC composes a physical time and logical counter into a Timestamp.
func HLC(physical uint64, logical uint16) Timestamp {
	return Timestamp(physical<<LogicalBits | uint64(logical))
}

// Physical extracts the physical component of a DTS timestamp.
func (t Timestamp) Physical() uint64 { return uint64(t) >> LogicalBits }

// Logical extracts the logical component of a DTS timestamp.
func (t Timestamp) Logical() uint16 { return uint16(uint64(t) & (1<<LogicalBits - 1)) }

func (t Timestamp) String() string {
	if t == TsMax {
		return "ts(max)"
	}
	return fmt.Sprintf("ts(%d)", uint64(t))
}

// NodeID identifies an elastic node in the cluster. The control-plane node is
// not a NodeID; it is addressed separately.
type NodeID int32

func (n NodeID) String() string { return fmt.Sprintf("node%d", int32(n)) }

// NoNode is the zero NodeID used to mean "no node".
const NoNode NodeID = -1

// ShardID identifies a shard of a user table. Shards are the unit of
// placement and of migration.
type ShardID int32

func (s ShardID) String() string { return fmt.Sprintf("shard%d", int32(s)) }

// NoShard is the zero ShardID used to mean "no shard".
const NoShard ShardID = -1

// XID is a node-local transaction identifier, in the PostgreSQL sense: the id
// recorded in tuple headers and resolved through that node's CLOG. XIDs from
// different nodes are unrelated. The node allocates them from a counter.
type XID uint64

// InvalidXID is never allocated to a transaction.
const InvalidXID XID = 0

func (x XID) String() string { return fmt.Sprintf("xid%d", uint64(x)) }

// TxnID is a cluster-wide transaction identifier, carried by distributed
// transactions across nodes (each participant still has its own local XID).
// Encoded as coordinator NodeID in the high bits and a per-node sequence in
// the low bits so it is allocatable without coordination.
type TxnID uint64

// MakeTxnID builds a globally unique TxnID from the coordinating node and a
// per-node sequence number.
func MakeTxnID(node NodeID, seq uint64) TxnID {
	return TxnID(uint64(uint32(node))<<40 | (seq & (1<<40 - 1)))
}

// Node returns the coordinating node encoded in the TxnID.
func (t TxnID) Node() NodeID { return NodeID(uint64(t) >> 40) }

func (t TxnID) String() string { return fmt.Sprintf("txn(%s,%d)", t.Node(), uint64(t)&(1<<40-1)) }

// Key is a tuple primary key. Keys are ordered byte strings; composite keys
// (TPC-C) are encoded with order-preserving encoders, see keys.go.
type Key string

// Value is an opaque tuple payload.
type Value []byte

// Clone returns a copy of the value so callers can retain it beyond the
// lifetime of the buffer it was decoded from.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// TableID identifies a user table.
type TableID int32

func (t TableID) String() string { return fmt.Sprintf("table%d", int32(t)) }

// Errors shared across layers. Layers wrap these with context; callers test
// with errors.Is.
var (
	// ErrWWConflict reports a write-write conflict under snapshot isolation
	// (first-updater-wins): the tuple was modified by a transaction that is
	// concurrent with or newer than the writer's snapshot. A row-lock
	// request older than the lock's holder fails with it at once, because
	// the holder's commit would conflict anyway.
	ErrWWConflict = errors.New("serialization failure: concurrent update (ww-conflict)")
	// ErrAborted reports that the transaction was aborted (by itself or by
	// a migration approach that kills transactions, e.g. lock-and-abort).
	ErrAborted = errors.New("transaction aborted")
	// ErrMigrationAbort reports a migration-induced abort: the transaction
	// was killed or invalidated by an ongoing shard migration. Benchmarks
	// classify aborts with errors.Is(err, ErrMigrationAbort).
	ErrMigrationAbort = fmt.Errorf("%w: killed by migration", ErrAborted)
	// ErrKeyNotFound reports that no visible version of the key exists.
	ErrKeyNotFound = errors.New("key not found")
	// ErrDuplicateKey reports a unique-constraint violation on insert.
	ErrDuplicateKey = errors.New("duplicate key violates unique constraint")
	// ErrShardMoved reports that the shard is no longer owned by this node;
	// the client should re-route and retry.
	ErrShardMoved = errors.New("shard moved: retry on current owner")
	// ErrNodeDown reports that the target node has crashed.
	ErrNodeDown = errors.New("node down")
	// ErrTxnFinished reports an operation on a committed/aborted transaction.
	ErrTxnFinished = errors.New("transaction already finished")
	// ErrTimeout reports that a wait (lock, prepare-wait, validation ack)
	// exceeded its deadline.
	ErrTimeout = errors.New("timeout")
	// ErrUnreachable reports that the interconnect refused delivery: the
	// link is partitioned or persistently lossy. Senders treat it like a
	// transient outage — retry after the partition heals or fail the
	// operation up to a recovery layer.
	ErrUnreachable = errors.New("peer unreachable (network partition)")
	// ErrNotFailed reports a recovery request for a migration that is not
	// in the failed phase: there is nothing to recover. The controller's
	// retry loop distinguishes it from real recovery errors.
	ErrNotFailed = errors.New("migration not in failed phase")
)

// TxnStatus is the lifecycle state of a transaction as recorded in the CLOG.
type TxnStatus uint8

const (
	// StatusInProgress means the transaction is running; its versions are
	// invisible to everyone else.
	StatusInProgress TxnStatus = iota
	// StatusPrepared means the transaction has finished its prepare phase
	// (the "reserved special timestamp" of §2.2); readers that encounter a
	// prepared writer must wait for it to finish (prepare-wait).
	StatusPrepared
	// StatusCommitted means the transaction committed; its commit timestamp
	// is recorded alongside.
	StatusCommitted
	// StatusAborted means the transaction rolled back; its versions are dead.
	StatusAborted
)

func (s TxnStatus) String() string {
	switch s {
	case StatusInProgress:
		return "in-progress"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}
