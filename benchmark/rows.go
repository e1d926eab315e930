package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"

	"remus/internal/base"
)

// Every value the benchmark stores is self-describing, so any read — point,
// scan, the final table scan, the scan after a restart from disk — can be
// checked without a second copy of the database:
//
//	[0:8]   row id (big endian)
//	[8:12]  writer sequence: 0 when loaded, +1 per acknowledged update
//	[12:16] CRC-32C of the rest of the value
//	[16:]   filler bytes drawn from the seeded generator
//
// A row has exactly one writer (the client that owns it), so the sequence a
// row must hold at any time is known to that client alone, without sharing.
const valueHeader = 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// newRand returns the generator of one stream of the run's seed: stream 0
// loads the table, client i draws from stream i+1.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func valueCRC(v []byte) uint32 {
	c := crc32.Update(0, crcTable, v[:12])
	return crc32.Update(c, crcTable, v[valueHeader:])
}

// makeValue builds the value of row id at sequence seq, n bytes long.
func makeValue(rng *rand.Rand, id uint64, seq uint32, n int) base.Value {
	v := make([]byte, n)
	binary.BigEndian.PutUint64(v[0:8], id)
	binary.BigEndian.PutUint32(v[8:12], seq)
	i := valueHeader
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], rng.Uint64())
	}
	for ; i < n; i++ {
		v[i] = byte(rng.Uint32())
	}
	binary.BigEndian.PutUint32(v[12:16], valueCRC(v))
	return v
}

// parseValue checks that v is a well-formed value of row id and returns its
// writer sequence.
func parseValue(v base.Value, id uint64) (uint32, error) {
	if len(v) < valueHeader {
		return 0, fmt.Errorf("row %d: value of %d bytes is shorter than its header", id, len(v))
	}
	if got := binary.BigEndian.Uint64(v[0:8]); got != id {
		return 0, fmt.Errorf("row %d: value belongs to row %d", id, got)
	}
	if got, want := binary.BigEndian.Uint32(v[12:16]), valueCRC(v); got != want {
		return 0, fmt.Errorf("row %d: checksum %08x, value hashes to %08x", id, got, want)
	}
	return binary.BigEndian.Uint32(v[8:12]), nil
}

// ledger is one client's record of the rows it owns: the last sequence the
// cluster acknowledged for each. A client touches only the entries of its
// own rows, so ledgers need no synchronisation.
type ledger struct {
	acked []uint32 // indexed by row id
	// unsure holds rows whose last update returned an error from Commit: the
	// write may or may not have been applied, so both sequences are legal.
	unsure map[uint64]bool
	// wroteIn, by unit of the migrating group, is the migration generation
	// read right after the unit's last write was acknowledged: odd when a
	// migration was in flight then (client.wroteInFlight).
	wroteIn []uint32
}

func newLedger(rows, units uint64) *ledger {
	return &ledger{acked: make([]uint32, rows), unsure: map[uint64]bool{}, wroteIn: make([]uint32, units)}
}

// check verifies that a sequence read from the cluster is the one the owner
// last had acknowledged: anything else is a lost or a not yet visible write.
func (l *ledger) check(id uint64, seq uint32) error {
	want := l.acked[id]
	if seq == want || (l.unsure[id] && seq == want+1) {
		return nil
	}
	return fmt.Errorf("row %d: holds sequence %d, its owner was last acknowledged %d", id, seq, want)
}
