package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// OracleStore is the durable backend of the replicated timestamp oracle's
// high-water mark (it implements clock.HWMStore). The (fencing epoch, HWM)
// pair is append-only write-ahead state: each Save appends one fixed-size
// CRC-framed record to hwm.log and fsyncs before returning, so the pair a
// restart Loads covers every timestamp the oracle could ever have granted
// ("persist before grant"). Leasing and reservation batching above keep the
// Save rate amortized — one fsync per Batch timestamps, not per grant.
//
// The log tolerates a torn tail exactly like the segment WAL: recovery keeps
// the last intact record and truncates the rest. Because epoch and HWM are
// both monotone, the last intact record is always the highest pair that was
// durably acknowledged. The log is compacted (rewritten to one record via
// temp+fsync+rename) when it has grown past a threshold at open.

const (
	oracleLogName = "hwm.log"
	// oracleRecBytes frames one record: u32 crc | u64 epoch | u64 hwm.
	oracleRecBytes = 4 + 8 + 8
	// oracleCompactAt rewrites the log at open once it holds this many
	// records (keeps the file a few KB at most across long uptimes).
	oracleCompactAt = 4096
)

// OracleStore persists (epoch, hwm) records in a single append-only log.
// Safe for use by one oracle group at a time (the hwmRegister above it
// already serializes Saves).
type OracleStore struct {
	dir   string
	f     *os.File
	epoch uint64
	hwm   uint64
	valid bool // a record was recovered or written
	saves uint64
}

// OpenOracleStore opens (creating if needed) the oracle state directory,
// recovers the last durable (epoch, hwm) pair from hwm.log, truncates any
// torn tail, and compacts the log when it has grown large.
func OpenOracleStore(dir string) (*OracleStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: oracle dir: %w", err)
	}
	removeTempFiles(dir)
	s := &OracleStore{dir: dir}
	path := filepath.Join(dir, oracleLogName)
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: oracle log: %w", err)
	}
	good := 0
	for off := 0; off+oracleRecBytes <= len(buf); off += oracleRecBytes {
		crc := binary.LittleEndian.Uint32(buf[off:])
		body := buf[off+4 : off+oracleRecBytes]
		if crc32.ChecksumIEEE(body) != crc {
			break // torn or corrupt tail: keep what preceded it
		}
		s.epoch = binary.LittleEndian.Uint64(body)
		s.hwm = binary.LittleEndian.Uint64(body[8:])
		s.valid = true
		good++
	}
	if s.valid && good >= oracleCompactAt {
		if err := s.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: oracle log: %w", err)
	}
	// The log may have just been created; its name must survive a crash.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: oracle log: %w", err)
	}
	// Truncate past the last intact record (drops a torn tail; a compacted
	// log is already exactly one record).
	keep := int64(good) * oracleRecBytes
	if s.valid && good >= oracleCompactAt {
		keep = oracleRecBytes
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: oracle log truncate: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: oracle log seek: %w", err)
	}
	s.f = f
	return s, nil
}

// compact rewrites the log to its single latest record via
// temp+fsync+rename (crash-safe: the old log stays intact until the rename).
func (s *OracleStore) compact() error {
	tmp := filepath.Join(s.dir, ".tmp-"+oracleLogName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	if _, err := f.Write(encodeOracleRec(s.epoch, s.hwm)); err != nil {
		f.Close()
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, oracleLogName)); err != nil {
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("storage: oracle compact: %w", err)
	}
	return nil
}

func encodeOracleRec(epoch, hwm uint64) []byte {
	rec := make([]byte, oracleRecBytes)
	binary.LittleEndian.PutUint64(rec[4:], epoch)
	binary.LittleEndian.PutUint64(rec[12:], hwm)
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	return rec
}

// Load implements clock.HWMStore: the last durable pair, (0, 0) on a fresh
// store.
func (s *OracleStore) Load() (uint64, uint64, error) {
	if !s.valid {
		return 0, 0, nil
	}
	return s.epoch, s.hwm, nil
}

// Save implements clock.HWMStore: append one record and fsync. The pair is
// durable when Save returns — the oracle's persist-before-grant rule hangs
// off exactly this property.
func (s *OracleStore) Save(epoch, hwm uint64) error {
	if _, err := s.f.Write(encodeOracleRec(epoch, hwm)); err != nil {
		return fmt.Errorf("storage: oracle save: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: oracle save: %w", err)
	}
	s.epoch, s.hwm, s.valid = epoch, hwm, true
	s.saves++
	return nil
}

// Saves reports durable Save calls (tests assert reservation batching keeps
// this amortized).
func (s *OracleStore) Saves() uint64 { return s.saves }

// Close closes the log file.
func (s *OracleStore) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
