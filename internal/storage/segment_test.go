package storage

import (
	"os"
	"path/filepath"
	"testing"

	"remus/internal/base"
	"remus/internal/wal"
)

func rec(lsn wal.LSN, key string) wal.Record {
	return wal.Record{
		LSN: lsn, Type: wal.RecInsert, XID: base.XID(lsn), Txn: base.MakeTxnID(1, uint64(lsn)),
		Table: 1, Shard: 1, Key: base.Key(key), Value: base.Value("v-" + key),
		StartTS: base.Timestamp(lsn),
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestSegmentRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentWAL(dir, 256) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if err := s.Append(rec(wal.LSN(i), string(base.EncodeUint64Key(uint64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.NextLSN(); got != n+1 {
		t.Fatalf("NextLSN = %d, want %d", got, n+1)
	}
	if files := segFiles(t, dir); len(files) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", files)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and read everything back.
	s2, err := OpenSegmentWAL(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NextLSN(); got != n+1 {
		t.Fatalf("reopened NextLSN = %d, want %d", got, n+1)
	}
	recs, err := s2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("ReadFrom(1) returned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := rec(wal.LSN(i+1), string(base.EncodeUint64Key(uint64(i+1))))
		if r.LSN != want.LSN || r.Key != want.Key || string(r.Value) != string(want.Value) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	// Partial read from the middle.
	recs, err = s2.ReadFrom(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n-29 || recs[0].LSN != 30 {
		t.Fatalf("ReadFrom(30): %d records starting at %v", len(recs), recs[0].LSN)
	}
}

func TestSegmentTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Append(rec(wal.LSN(i), string(base.EncodeUint64Key(uint64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Chop a few bytes off the tail, tearing the last frame.
	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one segment, got %v", files)
	}
	path := filepath.Join(dir, files[0])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentWAL(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("after torn tail: %d records, want 9", len(recs))
	}
	if got := s2.NextLSN(); got != 10 {
		t.Fatalf("NextLSN after torn tail = %d, want 10", got)
	}
	// New appends resume at the truncation point.
	if err := s2.Append(rec(10, "replacement")); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTornMiddleDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentWAL(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if err := s.Append(rec(wal.LSN(i), string(base.EncodeUint64Key(uint64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	files := segFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("want >= 3 segments, got %v", files)
	}
	// Corrupt the FIRST segment's tail: everything after it is unreachable.
	first := filepath.Join(dir, files[0])
	st, _ := os.Stat(first)
	if err := os.Truncate(first, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentWAL(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := segFiles(t, dir); len(got) != 1 {
		t.Fatalf("later segments should be deleted, still have %v", got)
	}
	recs, err := s2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[len(recs)-1].LSN != wal.LSN(len(recs)) {
		t.Fatalf("surviving prefix is not dense: %d records, last %v", len(recs), recs[len(recs)-1].LSN)
	}
	if got := s2.NextLSN(); got != wal.LSN(len(recs))+1 {
		t.Fatalf("NextLSN = %d, want %d", got, len(recs)+1)
	}
}

func TestRetireRequiresCoverage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentWAL(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 30; i++ {
		if err := s.Append(rec(wal.LSN(i), string(base.EncodeUint64Key(uint64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	before := len(segFiles(t, dir))
	if before < 3 {
		t.Fatalf("want >= 3 segments, got %d", before)
	}
	// Without a covering checkpoint nothing is retired.
	s.Retire(30)
	if got := len(segFiles(t, dir)); got != before {
		t.Fatalf("Retire without coverage removed segments: %d -> %d", before, got)
	}
	// Covered up to 20: segments fully below 20 go, the rest stay.
	s.SetCovered(20)
	s.Retire(30)
	after := segFiles(t, dir)
	if len(after) >= before {
		t.Fatalf("Retire with coverage removed nothing (%d segments)", len(after))
	}
	recs, err := s.ReadFrom(21)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[0].LSN != 21 {
		t.Fatalf("records above the horizon must survive: got %d starting %v", len(recs), recs[0].LSN)
	}
}

// TestTryNextBatchAcrossSegmentBoundary drives the in-memory reader over a
// log whose durable backend rotates segments mid-stream: batch reads must
// deliver the exact sequence the segments persist, boundary included.
func TestTryNextBatchAcrossSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	seg, err := OpenSegmentWAL(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New()
	l.AttachBackend(seg)
	const n = 40
	for i := 1; i <= n; i++ {
		l.Append(wal.Record{
			Type: wal.RecInsert, XID: base.XID(i), Table: 1, Shard: 1,
			Key: base.EncodeUint64Key(uint64(i)), Value: base.Value("v"),
		})
	}
	if len(segFiles(t, dir)) < 2 {
		t.Fatalf("test needs a segment boundary; raise n or lower segBytes")
	}

	r := l.NewReader(1)
	buf := make([]wal.Record, 7) // deliberately misaligned with segment size
	var fromReader []wal.Record
	for {
		k, err := r.TryNextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			break
		}
		fromReader = append(fromReader, buf[:k]...)
	}
	if len(fromReader) != n {
		t.Fatalf("reader delivered %d records, want %d", len(fromReader), n)
	}
	fromDisk, err := seg.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDisk) != n {
		t.Fatalf("disk holds %d records, want %d", len(fromDisk), n)
	}
	for i := range fromReader {
		a, b := fromReader[i], fromDisk[i]
		if a.LSN != b.LSN || a.XID != b.XID || a.Key != b.Key {
			t.Fatalf("record %d: reader %+v != disk %+v", i, a, b)
		}
	}
	l.Close() // closes the backend too
}

func TestRotateReportsSyncError(t *testing.T) {
	s, err := OpenSegmentWAL(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	big := rec(1, "k")
	big.Value = make(base.Value, 128) // fills the 64-byte segment in one record
	if err := s.Append(big); err != nil {
		t.Fatal(err)
	}
	// Pull the full segment's file out from under the WAL: the fsync that
	// rotation owes it must now fail, and the failure must reach the caller.
	s.f.Close()
	if err := s.Append(rec(2, "k2")); err == nil {
		t.Fatal("Append that rotated past a segment whose fsync failed returned nil")
	}
}

// TestSegmentAppendAllocatesNothing: once the active segment is open, an
// append encodes into the backend's reused frame buffer, so a 1 KB record
// costs no allocation, and the frames still read back intact.
func TestSegmentAppendAllocatesNothing(t *testing.T) {
	s, err := OpenSegmentWAL(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rec(1, "k")
	r.Value = make(base.Value, 1024)
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.LSN++
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f times per record, want 0", allocs)
	}
	got, err := s.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != int(r.LSN) || got[len(got)-1].LSN != r.LSN || len(got[len(got)-1].Value) != 1024 {
		t.Fatalf("read back %d records, want %d ending at LSN %v with a 1 KB value", len(got), r.LSN, r.LSN)
	}
}
