package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"remus/internal/wal"
)

// Segmented on-disk WAL backend. Records are written through from the
// in-memory wal.Log into fixed-size segment files; each record is framed as
//
//	u32 payloadLen  u32 crc32(payload)  payload = wal.Encode(record)
//
// A segment file is named wal-%016x.seg after the LSN of its first record,
// so the directory listing alone orders the log. Opening a directory scans
// the segments in order and truncates at the first torn or corrupt frame
// (a crash mid-write leaves at most one partial frame at the tail); any
// segments after the torn point are deleted.

const (
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	frameHdrBytes = 8 // u32 len + u32 crc

	// DefaultSegmentBytes is the rotation threshold when Config leaves it 0.
	DefaultSegmentBytes = 1 << 20
)

type segInfo struct {
	name  string  // file name within dir
	first wal.LSN // LSN of the first record
	last  wal.LSN // LSN of the last record (0 while empty)
}

// SegmentWAL implements wal.Backend over a directory of segment files.
type SegmentWAL struct {
	dir      string
	segBytes int64

	mu      sync.Mutex
	f       *os.File // active segment, nil until the first append
	size    int64    // bytes written to the active segment
	segs    []segInfo
	next    wal.LSN // next append position (last seen LSN + 1)
	covered wal.LSN // highest LSN covered by a durable checkpoint
	syncs   uint64
	newSeg  bool   // a segment was created since the directory was last synced
	frame   []byte // Append's encode buffer, reused across records
}

// OpenSegmentWAL opens (creating if needed) the segment directory, scans
// existing segments, and truncates any torn tail left by a crash.
func OpenSegmentWAL(dir string, segBytes int64) (*SegmentWAL, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open wal dir: %w", err)
	}
	s := &SegmentWAL{dir: dir, segBytes: segBytes, next: 1}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

func segName(first wal.LSN) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}

func parseSegName(name string) (wal.LSN, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return wal.LSN(v), true
}

// scan loads the segment list, validating frames and truncating the torn
// tail. After the first bad frame the containing segment is truncated at
// that offset and every later segment is removed.
func (s *SegmentWAL) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: scan wal dir: %w", err)
	}
	var names []segInfo
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			names = append(names, segInfo{name: e.Name(), first: first})
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i].first < names[j].first })

	var kept []segInfo
	var prev wal.LSN
	for i := 0; i < len(names); i++ {
		si := names[i]
		path := filepath.Join(s.dir, si.name)
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("storage: read segment %s: %w", si.name, err)
		}
		valid, last, ok := scanFrames(buf, prev)
		if valid > 0 {
			if !ok {
				// Torn tail: keep the valid prefix.
				if err := os.Truncate(path, int64(valid)); err != nil {
					return fmt.Errorf("storage: truncate torn segment %s: %w", si.name, err)
				}
			}
			si.last = last
			prev = last
			kept = append(kept, si)
		} else {
			os.Remove(path)
		}
		if !ok {
			// Everything after the torn point is unreachable log; drop it.
			for _, later := range names[i+1:] {
				os.Remove(filepath.Join(s.dir, later.name))
			}
			break
		}
	}
	s.segs = kept
	if n := len(s.segs); n > 0 {
		tail := s.segs[n-1]
		path := filepath.Join(s.dir, tail.name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("storage: reopen segment %s: %w", tail.name, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("storage: stat segment %s: %w", tail.name, err)
		}
		s.f = f
		s.size = st.Size()
		s.next = tail.last + 1
	}
	return nil
}

// scanFrames walks the framed records in buf. It returns the byte length of
// the valid prefix, the last LSN seen, and whether the whole buffer was
// valid. prev is the last LSN of the previous segment; LSNs must strictly
// increase (they need not be dense: recovery leaves gaps).
func scanFrames(buf []byte, prev wal.LSN) (valid int, last wal.LSN, ok bool) {
	last = prev
	off := 0
	for off < len(buf) {
		if len(buf)-off < frameHdrBytes {
			return off, last, false
		}
		plen := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if plen <= 0 || len(buf)-off-frameHdrBytes < plen {
			return off, last, false
		}
		payload := buf[off+frameHdrBytes : off+frameHdrBytes+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, last, false
		}
		rec, rest, err := wal.Decode(payload)
		if err != nil || len(rest) != 0 || rec.LSN <= last {
			return off, last, false
		}
		last = rec.LSN
		off += frameHdrBytes + plen
	}
	return off, last, true
}

// Append implements wal.Backend. Called under the wal.Log mutex, so records
// arrive in LSN order.
func (s *SegmentWAL) Append(rec wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil || s.size >= s.segBytes {
		if err := s.rotate(rec.LSN); err != nil {
			return err
		}
	}
	// Encode the payload straight after room for the header, in one buffer
	// that lives as long as the backend.
	frame := wal.Encode(append(s.frame[:0], make([]byte, frameHdrBytes)...), &rec)
	s.frame = frame
	payload := frame[frameHdrBytes:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := s.f.Write(frame); err != nil {
		return err
	}
	s.size += int64(len(frame))
	s.next = rec.LSN + 1
	s.segs[len(s.segs)-1].last = rec.LSN
	return nil
}

// rotate fsyncs and closes the active segment and starts a new one whose
// name carries the LSN of its first record. Caller holds s.mu.
func (s *SegmentWAL) rotate(first wal.LSN) error {
	if s.f != nil {
		err := syncClose(s.f)
		s.f = nil
		if err != nil {
			return err
		}
	}
	name := segName(first)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment %s: %w", name, err)
	}
	s.f = f
	s.size = 0
	s.segs = append(s.segs, segInfo{name: name, first: first})
	s.newSeg = true
	return nil
}

// Sync implements wal.Backend: fsync the active segment, and the directory
// when a segment was created since its last sync, so the new segment's
// name survives a crash along with its records.
func (s *SegmentWAL) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	return s.syncNewSeg()
}

// syncNewSeg fsyncs the directory if a segment was created since its last
// sync. Caller holds s.mu.
func (s *SegmentWAL) syncNewSeg() error {
	if !s.newSeg {
		return nil
	}
	err := syncDir(s.dir)
	s.newSeg = err != nil
	return err
}

// Syncs reports the number of real fsyncs issued (bench instrumentation).
func (s *SegmentWAL) Syncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// SetCovered raises the checkpoint-covered horizon: records at or below lsn
// are reconstructible from a durable checkpoint and may be retired.
func (s *SegmentWAL) SetCovered(lsn wal.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.covered {
		s.covered = lsn
	}
}

// Covered returns the checkpoint-covered horizon.
func (s *SegmentWAL) Covered() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.covered
}

// Retire implements wal.Backend: delete closed segments fully at or below
// min(upto, covered). Without a covering checkpoint nothing is ever deleted —
// in-memory truncation must not lose the only durable copy.
func (s *SegmentWAL) Retire(upto wal.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := upto
	if s.covered < limit {
		limit = s.covered
	}
	keep := 0
	for i, si := range s.segs {
		// Never retire the active (last) segment.
		if i == len(s.segs)-1 || si.last == 0 || si.last > limit {
			break
		}
		os.Remove(filepath.Join(s.dir, si.name))
		keep = i + 1
	}
	if keep > 0 {
		s.segs = append([]segInfo(nil), s.segs[keep:]...)
	}
}

// NextLSN returns the LSN the next appended record is expected to carry
// (one past the newest record on disk).
func (s *SegmentWAL) NextLSN() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// ensureNext raises the append horizon; used when all segments covering the
// tail were retired so the scan position lags the checkpoint.
func (s *SegmentWAL) ensureNext(lsn wal.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.next {
		s.next = lsn
	}
}

// ReadFrom returns all records with LSN >= from, in order. It tolerates a
// torn tail (stops at the first bad frame) so it can run on a directory that
// was not cleanly closed.
func (s *SegmentWAL) ReadFrom(from wal.LSN) ([]wal.Record, error) {
	s.mu.Lock()
	segs := append([]segInfo(nil), s.segs...)
	s.mu.Unlock()
	var out []wal.Record
	for _, si := range segs {
		if si.last != 0 && si.last < from {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(s.dir, si.name))
		if err != nil {
			return nil, fmt.Errorf("storage: read segment %s: %w", si.name, err)
		}
		off := 0
		for off+frameHdrBytes <= len(buf) {
			plen := int(binary.LittleEndian.Uint32(buf[off:]))
			crc := binary.LittleEndian.Uint32(buf[off+4:])
			if plen <= 0 || len(buf)-off-frameHdrBytes < plen {
				break
			}
			payload := buf[off+frameHdrBytes : off+frameHdrBytes+plen]
			if crc32.ChecksumIEEE(payload) != crc {
				break
			}
			rec, _, err := wal.Decode(payload)
			if err != nil {
				break
			}
			if rec.LSN >= from {
				out = append(out, rec)
			}
			off += frameHdrBytes + plen
		}
	}
	return out, nil
}

// Close implements wal.Backend: fsync and close the active segment.
func (s *SegmentWAL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := syncClose(s.f)
	s.f = nil
	if derr := s.syncNewSeg(); err == nil {
		err = derr
	}
	return err
}

// syncClose fsyncs and closes f, reporting the fsync error ahead of the
// close error.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
