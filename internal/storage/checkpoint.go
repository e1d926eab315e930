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

	"remus/internal/base"
	"remus/internal/wal"
)

// Fuzzy checkpoint files. One checkpoint generation = one shard file per
// shard plus a done-marker manifest, all sharing a sequence number, a
// snapshot timestamp, and a covered-LSN horizon:
//
//	ck-%016x-%08x.ckpt   (seq, shard)  sorted key/value pages
//	ck-%016x.done        (seq)         manifest, written last
//
// Shard file layout:
//
//	header  u32 magic  u32 version  u64 seq  u64 snapTS  u64 covered
//	        u32 shard  u32 table                                   (40 bytes)
//	pages   u32 payloadLen  u32 crc32(payload)
//	        payload = repeated { u32 klen, key, u32 vlen, value }
//	footer  u32 magic  u64 tuples  u64 pages  u64 payloadBytes
//	        u32 crc32(previous 28 bytes)                           (32 bytes)
//
// Manifest layout:
//
//	u32 magic  u32 version  u64 seq  u64 snapTS  u64 covered
//	u32 nShards  nShards * { u32 shard, u32 table }
//	u32 crc32(everything before)
//
// Every file is written to a temp name, fsynced, then renamed; the manifest
// is written only after all shard files are durable, so a generation is
// valid iff its manifest exists AND every shard file it lists validates.
// A shard file with a truncated footer (crash mid-checkpoint) invalidates
// the generation and the loader falls back to the previous one.

const (
	ckptMagic       = 0x524d434b // "RMCK"
	ckptFooterMagic = 0x524d4346 // "RMCF"
	doneMagic       = 0x524d434d // "RMCM"
	ckptVersion     = 1

	ckptHeaderBytes = 40
	ckptFooterBytes = 32

	// DefaultPageBytes is the checkpoint page size when Config leaves it 0.
	DefaultPageBytes = 64 << 10
)

// ShardCheckpoint describes one shard's file within a generation.
type ShardCheckpoint struct {
	Seq     uint64
	Shard   base.ShardID
	Table   base.TableID
	SnapTS  base.Timestamp
	Covered wal.LSN
	Tuples  uint64
	Bytes   uint64 // sum of page payload bytes (keys + values + framing)
	Path    string
}

// Checkpoint is one complete, validated generation.
type Checkpoint struct {
	Seq     uint64
	SnapTS  base.Timestamp
	Covered wal.LSN
	Shards  map[base.ShardID]ShardCheckpoint
}

// Covers reports whether the generation contains a file for every shard in
// ids.
func (c *Checkpoint) Covers(ids []base.ShardID) bool {
	for _, id := range ids {
		if _, ok := c.Shards[id]; !ok {
			return false
		}
	}
	return true
}

func shardCkptName(seq uint64, shard base.ShardID) string {
	return fmt.Sprintf("ck-%016x-%08x.ckpt", seq, uint32(shard))
}

func doneName(seq uint64) string {
	return fmt.Sprintf("ck-%016x.done", seq)
}

func parseDoneName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ck-") || !strings.HasSuffix(name, ".done") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ck-"), ".done"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeDurable writes buf-producing content via fn to a temp file, fsyncs,
// and renames it to name.
func writeDurable(dir, name string, fn func(f *os.File) error) error {
	tmp, err := os.CreateTemp(dir, ".tmp-"+name+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fn(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// writeShardCheckpoint streams the tuples produced by scan into a durable
// shard checkpoint file. scan must emit keys in sorted order and call emit
// once per tuple.
func writeShardCheckpoint(dir string, sc ShardCheckpoint, pageBytes int, scan func(emit func(key base.Key, value base.Value)) error) (ShardCheckpoint, error) {
	if pageBytes <= 0 {
		pageBytes = DefaultPageBytes
	}
	name := shardCkptName(sc.Seq, sc.Shard)
	err := writeDurable(dir, name, func(f *os.File) error {
		hdr := make([]byte, 0, ckptHeaderBytes)
		hdr = binary.LittleEndian.AppendUint32(hdr, ckptMagic)
		hdr = binary.LittleEndian.AppendUint32(hdr, ckptVersion)
		hdr = binary.LittleEndian.AppendUint64(hdr, sc.Seq)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(sc.SnapTS))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(sc.Covered))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(sc.Shard))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(sc.Table))
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		page := make([]byte, 0, pageBytes+256)
		var pages uint64
		flush := func() error {
			if len(page) == 0 {
				return nil
			}
			fr := make([]byte, 8)
			binary.LittleEndian.PutUint32(fr, uint32(len(page)))
			binary.LittleEndian.PutUint32(fr[4:], crc32.ChecksumIEEE(page))
			if _, err := f.Write(fr); err != nil {
				return err
			}
			if _, err := f.Write(page); err != nil {
				return err
			}
			pages++
			sc.Bytes += uint64(len(page))
			page = page[:0]
			return nil
		}
		var scanErr error
		emit := func(key base.Key, value base.Value) {
			if scanErr != nil {
				return
			}
			page = binary.LittleEndian.AppendUint32(page, uint32(len(key)))
			page = append(page, key...)
			page = binary.LittleEndian.AppendUint32(page, uint32(len(value)))
			page = append(page, value...)
			sc.Tuples++
			if len(page) >= pageBytes {
				scanErr = flush()
			}
		}
		if err := scan(emit); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		if err := flush(); err != nil {
			return err
		}
		ftr := make([]byte, 0, ckptFooterBytes)
		ftr = binary.LittleEndian.AppendUint32(ftr, ckptFooterMagic)
		ftr = binary.LittleEndian.AppendUint64(ftr, sc.Tuples)
		ftr = binary.LittleEndian.AppendUint64(ftr, pages)
		ftr = binary.LittleEndian.AppendUint64(ftr, sc.Bytes)
		ftr = binary.LittleEndian.AppendUint32(ftr, crc32.ChecksumIEEE(ftr))
		_, err := f.Write(ftr)
		return err
	})
	if err != nil {
		return ShardCheckpoint{}, fmt.Errorf("storage: write checkpoint %s: %w", name, err)
	}
	sc.Path = filepath.Join(dir, name)
	return sc, nil
}

// writeManifest durably writes the done-marker for a generation, then
// fsyncs dir: covered WAL segments are retired on the strength of the
// manifest, so its rename, and the renames of the shard files it names, must
// survive a crash first. Until that sync returns, a crash falls back to the
// previous generation, whose WAL is still whole.
func writeManifest(dir string, ck Checkpoint) error {
	name := doneName(ck.Seq)
	shards := make([]ShardCheckpoint, 0, len(ck.Shards))
	for _, sc := range ck.Shards {
		shards = append(shards, sc)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	err := writeDurable(dir, name, func(f *os.File) error {
		buf := make([]byte, 0, 36+8*len(shards))
		buf = binary.LittleEndian.AppendUint32(buf, doneMagic)
		buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
		buf = binary.LittleEndian.AppendUint64(buf, ck.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.SnapTS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Covered))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(shards)))
		for _, sc := range shards {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(sc.Shard))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(sc.Table))
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
		_, err := f.Write(buf)
		return err
	})
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("storage: write manifest %s: %w", name, err)
	}
	return nil
}

// parseManifest reads and validates a done-marker, returning the generation
// skeleton (shard entries carry Seq/Shard/Table only).
func parseManifest(path string) (Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	if len(buf) < 36+4 {
		return Checkpoint{}, fmt.Errorf("storage: manifest %s: short", path)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return Checkpoint{}, fmt.Errorf("storage: manifest %s: bad crc", path)
	}
	if binary.LittleEndian.Uint32(buf) != doneMagic || binary.LittleEndian.Uint32(buf[4:]) != ckptVersion {
		return Checkpoint{}, fmt.Errorf("storage: manifest %s: bad magic/version", path)
	}
	ck := Checkpoint{
		Seq:     binary.LittleEndian.Uint64(buf[8:]),
		SnapTS:  base.Timestamp(binary.LittleEndian.Uint64(buf[16:])),
		Covered: wal.LSN(binary.LittleEndian.Uint64(buf[24:])),
		Shards:  map[base.ShardID]ShardCheckpoint{},
	}
	n := int(binary.LittleEndian.Uint32(buf[32:]))
	if len(body) != 36+8*n {
		return Checkpoint{}, fmt.Errorf("storage: manifest %s: bad length", path)
	}
	for i := 0; i < n; i++ {
		off := 36 + 8*i
		shard := base.ShardID(int32(binary.LittleEndian.Uint32(buf[off:])))
		table := base.TableID(int32(binary.LittleEndian.Uint32(buf[off+4:])))
		ck.Shards[shard] = ShardCheckpoint{
			Seq: ck.Seq, Shard: shard, Table: table,
			SnapTS: ck.SnapTS, Covered: ck.Covered,
		}
	}
	return ck, nil
}

// validateShardFile fully checks one shard checkpoint file (header fields,
// page CRCs, footer) and fills in Tuples/Bytes/Path.
func validateShardFile(dir string, sc ShardCheckpoint) (ShardCheckpoint, error) {
	path := filepath.Join(dir, shardCkptName(sc.Seq, sc.Shard))
	buf, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if len(buf) < ckptHeaderBytes+ckptFooterBytes {
		return sc, fmt.Errorf("storage: checkpoint %s: short file", path)
	}
	if binary.LittleEndian.Uint32(buf) != ckptMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != ckptVersion ||
		binary.LittleEndian.Uint64(buf[8:]) != sc.Seq ||
		base.Timestamp(binary.LittleEndian.Uint64(buf[16:])) != sc.SnapTS ||
		wal.LSN(binary.LittleEndian.Uint64(buf[24:])) != sc.Covered ||
		base.ShardID(int32(binary.LittleEndian.Uint32(buf[32:]))) != sc.Shard ||
		base.TableID(int32(binary.LittleEndian.Uint32(buf[36:]))) != sc.Table {
		return sc, fmt.Errorf("storage: checkpoint %s: header mismatch", path)
	}
	ftr := buf[len(buf)-ckptFooterBytes:]
	if crc32.ChecksumIEEE(ftr[:28]) != binary.LittleEndian.Uint32(ftr[28:]) {
		return sc, fmt.Errorf("storage: checkpoint %s: bad footer crc", path)
	}
	if binary.LittleEndian.Uint32(ftr) != ckptFooterMagic {
		return sc, fmt.Errorf("storage: checkpoint %s: bad footer magic", path)
	}
	wantTuples := binary.LittleEndian.Uint64(ftr[4:])
	wantPages := binary.LittleEndian.Uint64(ftr[12:])
	wantBytes := binary.LittleEndian.Uint64(ftr[20:])
	var tuples, pages, payload uint64
	body := buf[ckptHeaderBytes : len(buf)-ckptFooterBytes]
	off := 0
	for off < len(body) {
		if len(body)-off < 8 {
			return sc, fmt.Errorf("storage: checkpoint %s: torn page header", path)
		}
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		crc := binary.LittleEndian.Uint32(body[off+4:])
		if plen <= 0 || len(body)-off-8 < plen {
			return sc, fmt.Errorf("storage: checkpoint %s: torn page", path)
		}
		pg := body[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(pg) != crc {
			return sc, fmt.Errorf("storage: checkpoint %s: bad page crc", path)
		}
		n, err := countPageTuples(pg)
		if err != nil {
			return sc, fmt.Errorf("storage: checkpoint %s: %w", path, err)
		}
		tuples += n
		pages++
		payload += uint64(plen)
		off += 8 + plen
	}
	if tuples != wantTuples || pages != wantPages || payload != wantBytes {
		return sc, fmt.Errorf("storage: checkpoint %s: footer totals mismatch", path)
	}
	sc.Tuples = tuples
	sc.Bytes = payload
	sc.Path = path
	return sc, nil
}

func countPageTuples(pg []byte) (uint64, error) {
	var n uint64
	off := 0
	for off < len(pg) {
		if len(pg)-off < 4 {
			return 0, fmt.Errorf("bad page encoding")
		}
		klen := int(binary.LittleEndian.Uint32(pg[off:]))
		off += 4 + klen
		if off+4 > len(pg) {
			return 0, fmt.Errorf("bad page encoding")
		}
		vlen := int(binary.LittleEndian.Uint32(pg[off:]))
		off += 4 + vlen
		if off > len(pg) {
			return 0, fmt.Errorf("bad page encoding")
		}
		n++
	}
	return n, nil
}

// ReadShardCheckpoint streams the tuples of a shard checkpoint file into fn
// in stored (key-sorted) order. fn returning false stops the read.
func ReadShardCheckpoint(path string, fn func(key base.Key, value base.Value) bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(buf) < ckptHeaderBytes+ckptFooterBytes || binary.LittleEndian.Uint32(buf) != ckptMagic {
		return fmt.Errorf("storage: checkpoint %s: not a checkpoint file", path)
	}
	body := buf[ckptHeaderBytes : len(buf)-ckptFooterBytes]
	off := 0
	for off < len(body) {
		if len(body)-off < 8 {
			return fmt.Errorf("storage: checkpoint %s: torn page header", path)
		}
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		crc := binary.LittleEndian.Uint32(body[off+4:])
		if plen <= 0 || len(body)-off-8 < plen {
			return fmt.Errorf("storage: checkpoint %s: torn page", path)
		}
		pg := body[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(pg) != crc {
			return fmt.Errorf("storage: checkpoint %s: bad page crc", path)
		}
		po := 0
		for po < len(pg) {
			if len(pg)-po < 4 {
				return fmt.Errorf("storage: checkpoint %s: bad page encoding", path)
			}
			klen := int(binary.LittleEndian.Uint32(pg[po:]))
			if po+4+klen+4 > len(pg) {
				return fmt.Errorf("storage: checkpoint %s: bad page encoding", path)
			}
			key := base.Key(pg[po+4 : po+4+klen])
			po += 4 + klen
			vlen := int(binary.LittleEndian.Uint32(pg[po:]))
			if po+4+vlen > len(pg) {
				return fmt.Errorf("storage: checkpoint %s: bad page encoding", path)
			}
			val := base.Value(append([]byte(nil), pg[po+4:po+4+vlen]...))
			po += 4 + vlen
			if !fn(key, val) {
				return nil
			}
		}
		off += 8 + plen
	}
	return nil
}

// loadLatestCheckpoint scans dir for the newest generation whose manifest
// and all listed shard files validate. Invalid generations (torn footer,
// missing shard file, bad CRC) are skipped, falling back to older ones.
func loadLatestCheckpoint(dir string) (Checkpoint, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Checkpoint{}, false, nil
		}
		return Checkpoint{}, false, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseDoneName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		ck, err := parseManifest(filepath.Join(dir, doneName(seq)))
		if err != nil {
			continue
		}
		valid := true
		for shard, sc := range ck.Shards {
			full, err := validateShardFile(dir, sc)
			if err != nil {
				valid = false
				break
			}
			ck.Shards[shard] = full
		}
		if valid {
			return ck, true, nil
		}
	}
	return Checkpoint{}, false, nil
}

// pruneCheckpoints removes generation files with seq < keepFrom.
func pruneCheckpoints(dir string, keepFrom uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		var ok bool
		if s, isDone := parseDoneName(name); isDone {
			seq, ok = s, true
		} else if strings.HasPrefix(name, "ck-") && strings.HasSuffix(name, ".ckpt") {
			parts := strings.SplitN(strings.TrimSuffix(strings.TrimPrefix(name, "ck-"), ".ckpt"), "-", 2)
			if len(parts) == 2 {
				if s, err := strconv.ParseUint(parts[0], 16, 64); err == nil {
					seq, ok = s, true
				}
			}
		}
		if ok && seq < keepFrom {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
