package server

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indexfile"
)

// Store persists the registry under a data directory so trussd restarts
// warm. Each graph gets its own subdirectory holding two files:
//
//   - index.tix — snapshot v2: the complete indexfile (see
//     internal/indexfile) at some version. Recovery memory-maps it and
//     serves straight off the page cache — no replay, no re-peeling.
//     Written atomically (temp file + fsync + rename + directory fsync).
//   - wal.bin — mutations applied after the snapshot, one length- and
//     CRC-prefixed record per batch: {version, adds, dels}. Appended (and
//     synced) before a mutation is published, so a crash between the WAL
//     write and the in-memory install replays to the same state.
//
// Recovery loads the snapshot, replays the WAL in order, and stops at the
// first truncated or corrupt record — the tail that a crash mid-append
// leaves behind is discarded, everything before it is kept. When the WAL
// outgrows its snapshot the server folds it in: it rewrites the snapshot
// at the current version and truncates the WAL (compaction).
//
// Store methods are not synchronized; the Server serializes access per
// graph with its mutation locks.
type Store struct {
	dir string

	// VerifyOnLoad makes load additionally check every indexfile section
	// checksum (indexfile.Verify) before serving it. Off by default: the
	// atomic write discipline means a torn file cannot appear, so this
	// guards only against at-rest bit rot, at the cost of one sequential
	// read of the file during recovery.
	VerifyOnLoad bool
	// OnOpen, when non-nil, observes every successful indexfile open
	// (recovery instrumentation).
	OnOpen func(elapsed time.Duration, mappedBytes int64)
}

// Data directory layout constants.
const (
	indexFile   = "index.tix" // snapshot v2: mmap-able indexfile
	walFile     = "wal.bin"
	graphDirPre = "g-"
)

// NewStore opens (creating if necessary) a data directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the data directory path.
func (st *Store) Dir() string { return st.dir }

// graphDir maps a registry name to its subdirectory. Names are hex-coded
// so arbitrary registry names (slashes, dots, unicode) stay inside one
// flat, filesystem-safe namespace.
func (st *Store) graphDir(name string) string {
	return filepath.Join(st.dir, graphDirPre+hex.EncodeToString([]byte(name)))
}

// PersistedGraph is one recovered graph: the snapshot state plus the WAL
// mutations to replay on top of it.
type PersistedGraph struct {
	Name    string
	Source  string
	Version uint64
	// File is the open indexfile mapping and Index the TrussIndex view
	// aliasing it. The caller owns File — either keep it open for as long
	// as Index serves, or Close it once done (e.g. after replaying
	// Mutations into a heap copy).
	File  *indexfile.File
	Index *index.TrussIndex
	// Mutations are the WAL records appended after the snapshot, in
	// order; Version above is the snapshot's, each record carries its own.
	Mutations []MutationRec
	// TornWAL reports that the WAL ends in bytes that are not an intact
	// record — a crash mid-append. They must be dropped before the graph
	// takes writes, or every record appended after them is unreadable.
	TornWAL bool
}

// MutationRec is one durable mutation batch.
type MutationRec struct {
	Version uint64
	Adds    []graph.Edge
	Dels    []graph.Edge
}

// SaveIndexSnapshot atomically writes the v2 snapshot of name at
// version — the complete indexfile, ready to be mmap'd by the next
// recovery — and truncates its WAL (the snapshot subsumes it). Callers
// must ensure no append lands between the write and the unlink (the
// server holds the graph's mutation lock); when appends must keep
// flowing, use WriteIndexSnapshot + TruncateWAL instead.
func (st *Store) SaveIndexSnapshot(name, source string, version uint64, ix *index.TrussIndex) error {
	if err := st.WriteIndexSnapshot(name, source, version, ix); err != nil {
		return err
	}
	// The WAL is now folded into the indexfile. Failing to unlink it is
	// not fatal to durability — recovery skips WAL records at or below the
	// snapshot's version — but surfacing the error keeps disk usage honest.
	return st.removeWAL(name)
}

// WriteIndexSnapshot atomically writes the v2 snapshot of name at
// version without touching the WAL. It is the first phase of an
// asynchronous compaction: the snapshot can be written while mutations
// keep appending, because recovery ignores WAL records at or below the
// snapshot's version; TruncateWAL reclaims them afterwards.
func (st *Store) WriteIndexSnapshot(name, source string, version uint64, ix *index.TrussIndex) error {
	dir := st.graphDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := indexfile.Meta{Source: source, GraphVersion: version, CreatedUnixNano: time.Now().UnixNano()}
	return indexfile.WriteFile(filepath.Join(dir, indexFile), ix, meta)
}

// removeWAL unlinks name's WAL, if any, and syncs the directory.
func (st *Store) removeWAL(name string) error {
	dir := st.graphDir(name)
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return indexfile.SyncDir(dir)
}

// TruncateWAL drops name's WAL records at or below version upto (already
// covered by a snapshot), keeping later ones; a torn tail is dropped
// too. The surviving records are rewritten atomically (temp + fsync +
// rename + directory fsync); a WAL left with no records is removed
// outright. Returns the WAL's size in bytes afterwards. Callers must
// exclude concurrent appends (the server holds the graph's mutation
// lock).
func (st *Store) TruncateWAL(name string, upto uint64) (int64, error) {
	dir := st.graphDir(name)
	path := filepath.Join(dir, walFile)
	recs, _, err := readWAL(path)
	if err != nil {
		return 0, err
	}
	var keep []byte
	for _, rec := range recs {
		if rec.Version > upto {
			keep = append(keep, encodeMutationRecord(rec.Version, rec.Adds, rec.Dels)...)
		}
	}
	if len(keep) == 0 {
		return 0, st.removeWAL(name)
	}
	tmp, err := os.CreateTemp(dir, "wal-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(keep); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return int64(len(keep)), indexfile.SyncDir(dir)
}

// AppendMutation durably appends one mutation batch to name's WAL and
// returns the WAL's size in bytes afterwards (the compaction signal).
func (st *Store) AppendMutation(name string, version uint64, adds, dels []graph.Edge) (int64, error) {
	dir := st.graphDir(name)
	path := filepath.Join(dir, walFile)
	// The first append creates the WAL file; its directory entry needs
	// the same fsync discipline as a snapshot rename, or a power cut
	// could lose the whole file while its records were "durably" synced.
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(encodeMutationRecord(version, adds, dels)); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && created {
		err = indexfile.SyncDir(dir)
	}
	return size, err
}

// encodeMutationRecord renders one WAL record: u32 payload length, u32
// CRC32-IEEE of the payload, then {u64 version, u32 nAdds, u32 nDels,
// edge pairs}. AppendMutation and TruncateWAL share it so a rewritten
// WAL is byte-identical to one appended record by record.
func encodeMutationRecord(version uint64, adds, dels []graph.Edge) []byte {
	payload := make([]byte, 0, 16+8*(len(adds)+len(dels)))
	payload = binary.LittleEndian.AppendUint64(payload, version)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(adds)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(dels)))
	for _, e := range adds {
		payload = binary.LittleEndian.AppendUint32(payload, e.U)
		payload = binary.LittleEndian.AppendUint32(payload, e.V)
	}
	for _, e := range dels {
		payload = binary.LittleEndian.AppendUint32(payload, e.U)
		payload = binary.LittleEndian.AppendUint32(payload, e.V)
	}
	rec := make([]byte, 0, 8+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// Remove deletes name's persisted state entirely.
func (st *Store) Remove(name string) error {
	return os.RemoveAll(st.graphDir(name))
}

// IndexPath returns the path of name's v2 snapshot (which may not exist
// yet). The replication layer serves and replaces this file.
func (st *Store) IndexPath(name string) string {
	return filepath.Join(st.graphDir(name), indexFile)
}

// SnapshotInfo reports the version and size of name's on-disk v2
// snapshot — what the replication manifest advertises to followers. The
// open is O(sections + kmax) validation, no data read.
func (st *Store) SnapshotInfo(name string) (version uint64, bytes int64, err error) {
	f, err := indexfile.Open(st.IndexPath(name))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return f.Meta().GraphVersion, f.MappedBytes(), nil
}

// WALRecordsAfter returns name's WAL records with versions strictly
// greater than from, in order. The WAL tail endpoint re-reads it on
// each wakeup; compaction keeps the file (and so this read) bounded.
func (st *Store) WALRecordsAfter(name string, from uint64) ([]MutationRec, error) {
	recs, _, err := readWAL(filepath.Join(st.graphDir(name), walFile))
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, rec := range recs {
		if rec.Version > from {
			out = append(out, rec)
		}
	}
	return out, nil
}

// ReceiveIndexSnapshot atomically installs snapshot bytes streamed from
// a primary as name's index.tix, dropping any WAL of the lineage it
// replaces (temp file + fsync + rename + directory
// fsync, same discipline as locally written snapshots). It returns the
// byte count received; the caller validates the file by opening it.
func (st *Store) ReceiveIndexSnapshot(name string, r io.Reader) (int64, error) {
	dir := st.graphDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, "hydrate-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := io.Copy(tmp, r)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, indexFile)); err != nil {
		return n, err
	}
	return n, st.removeWAL(name)
}

// LoadAll recovers every persisted graph in the data directory. Graphs
// whose snapshot is missing or fails integrity checks are returned in
// broken with their errors; a corrupt or truncated WAL tail only drops
// the tail, which PersistedGraph.TornWAL reports.
func (st *Store) LoadAll() (graphs []*PersistedGraph, broken map[string]error, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, nil, err
	}
	broken = map[string]error{}
	for _, de := range entries {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), graphDirPre) {
			continue
		}
		raw, decErr := hex.DecodeString(strings.TrimPrefix(de.Name(), graphDirPre))
		if decErr != nil {
			continue // not ours
		}
		name := string(raw)
		pg, loadErr := st.load(name)
		if loadErr != nil {
			broken[name] = loadErr
			continue
		}
		graphs = append(graphs, pg)
	}
	return graphs, broken, nil
}

// load maps one graph's snapshot and reads its WAL. The returned
// PersistedGraph aliases the mapping; the caller owns File.
func (st *Store) load(name string) (*PersistedGraph, error) {
	start := time.Now()
	f, err := indexfile.Open(st.IndexPath(name))
	if err != nil {
		return nil, err
	}
	if st.VerifyOnLoad {
		if err := f.Verify(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if st.OnOpen != nil {
		st.OnOpen(time.Since(start), f.MappedBytes())
	}
	pg := &PersistedGraph{
		Name:    name,
		Source:  f.Meta().Source,
		Version: f.Meta().GraphVersion,
		File:    f,
		Index:   f.Index(),
	}
	pg.Mutations, pg.TornWAL, err = readWAL(filepath.Join(st.graphDir(name), walFile))
	if err != nil {
		f.Close()
		return nil, err
	}
	return pg, nil
}

// readWAL parses WAL records up to the first truncated or corrupt one;
// torn reports whether any bytes follow the last intact record.
func readWAL(path string) (recs []MutationRec, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	for len(raw) >= 8 {
		size := binary.LittleEndian.Uint32(raw)
		sum := binary.LittleEndian.Uint32(raw[4:])
		if uint64(len(raw)) < 8+uint64(size) || size < 16 {
			break // truncated tail: a crash mid-append
		}
		payload := raw[8 : 8+size]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn write: discard from here on
		}
		rec := MutationRec{Version: binary.LittleEndian.Uint64(payload)}
		nAdds := binary.LittleEndian.Uint32(payload[8:])
		nDels := binary.LittleEndian.Uint32(payload[12:])
		if uint64(size) != 16+8*(uint64(nAdds)+uint64(nDels)) {
			break
		}
		p := payload[16:]
		u32 := func() uint32 { v := binary.LittleEndian.Uint32(p); p = p[4:]; return v }
		for i := uint32(0); i < nAdds; i++ {
			rec.Adds = append(rec.Adds, graph.Edge{U: u32(), V: u32()})
		}
		for i := uint32(0); i < nDels; i++ {
			rec.Dels = append(rec.Dels, graph.Edge{U: u32(), V: u32()})
		}
		recs = append(recs, rec)
		raw = raw[8+size:]
	}
	return recs, len(raw) > 0, nil
}
