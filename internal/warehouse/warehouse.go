// Package warehouse is the longitudinal epoch store: an append-only,
// columnar, on-disk warehouse of inference snapshots keyed by the
// interned AS index. Consecutive epochs are delta-encoded (varint
// ASN-column deltas, XOR'd cone slabs, changed-relationship runs) so a
// year of monthly snapshots costs a small multiple of one full epoch;
// every segment is CRC-framed with a content-hash trailer so a torn
// write is detected and Open recovers at the last good epoch. The
// manifest's per-epoch hashes plug into the apiserver ETag scheme, and
// an in-memory History index answers per-AS time-travel queries
// without touching disk.
package warehouse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

const (
	manifestName = "MANIFEST.json"
	// DefaultCheckpointEvery bounds every delta chain: epoch IDs
	// divisible by it are stored full, so Snapshot(id) replays at most
	// CheckpointEvery-1 deltas.
	DefaultCheckpointEvery = 16
)

// Options configures a Store.
type Options struct {
	// CheckpointEvery forces a full (non-delta) segment every N epochs;
	// <= 0 selects DefaultCheckpointEvery.
	CheckpointEvery int
	// Workers bounds parallelism in snapshot reconstruction helpers
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// Registry and Tracer attach observability; both may be nil.
	Registry *obs.Registry
	Tracer   *trace.Tracer
}

// EpochInfo is one manifest entry: the durable identity of an epoch.
type EpochInfo struct {
	ID    uint32 `json:"id"`
	Label string `json:"label"`
	Kind  string `json:"kind"` // "full" or "delta"
	Base  uint32 `json:"base"` // predecessor epoch a delta applies to (== ID for full)
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	Hash  string `json:"hash"` // fnv64a of the segment image, hex
	ETag  string `json:"etag,omitempty"`
	ASes  int    `json:"ases"`
	Links int    `json:"links"`
	// Note is an opaque caller annotation (e.g. the streaming engine's
	// CommitReport) carried in the manifest but never interpreted by the
	// store: it does not participate in segment hashing, delta encoding,
	// or recovery decisions.
	Note json.RawMessage `json:"note,omitempty"`
}

type manifest struct {
	Version         int         `json:"version"`
	CheckpointEvery int         `json:"checkpointEvery"`
	Epochs          []EpochInfo `json:"epochs"`
}

// Store is an open warehouse directory. Append is serialized; readers
// (Epochs, Snapshot, History) are safe concurrently with appends.
type Store struct {
	dir     string
	opts    Options
	metrics *Metrics
	tracer  *trace.Tracer

	mu sync.RWMutex
	//asrank:guardedby mu
	epochs []EpochInfo
	//asrank:guardedby mu
	last *Snapshot // latest epoch, decoded — the delta base for the next Append
	//asrank:guardedby mu
	hist *History
}

// Open opens (or creates) a warehouse at dir and validates every epoch
// listed in the manifest, in order: segment framing, block CRCs,
// content-hash trailer, and replayability of the delta chain. The
// first epoch that fails validation truncates the store there —
// corruption of the tail is recovered from, not reported as an error —
// so a crash mid-append leaves a store that reopens at the last good
// epoch.
func Open(dir string, opts Options) (*Store, error) {
	ctx, span := opts.Tracer.StartSpan(context.Background(), "warehouse.open")
	defer span.End()
	span.SetAttr("dir", dir)

	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: create dir %s: %w", dir, err)
	}
	st := &Store{
		dir:     dir,
		opts:    opts,
		metrics: NewMetrics(opts.Registry),
		tracer:  opts.Tracer,
		hist:    newHistory(),
	}

	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if man.CheckpointEvery > 0 {
		// The cadence the segments were written with wins over the
		// caller's preference; mixing them would misplace checkpoints.
		st.opts.CheckpointEvery = man.CheckpointEvery
	}

	dropped := 0
	for i, info := range man.Epochs {
		snap, err := st.loadEpoch(info, st.last)
		if err != nil {
			// Tail truncation: everything from the first bad epoch on is
			// unreadable (deltas chain), so recovery keeps the good prefix.
			dropped = len(man.Epochs) - i
			span.SetAttr("recovery_error", err.Error())
			break
		}
		st.epochs = append(st.epochs, info)
		st.hist = st.hist.extend(info, st.last, snap)
		st.last = snap
	}
	st.metrics.addTruncations(dropped)
	st.metrics.setLive(len(st.epochs), st.totalBytesLocked())
	span.SetAttrInt("epochs", int64(len(st.epochs)))
	span.SetAttrInt("dropped", int64(dropped))
	_ = ctx
	return st, nil
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &manifest{Version: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("warehouse: read manifest %s: %w", path, err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		// A torn manifest cannot happen under the atomic-rename write
		// protocol, so a parse failure means the file was damaged in
		// place; recovering zero epochs would silently orphan good
		// segments, so surface it.
		return nil, fmt.Errorf("warehouse: manifest %s is corrupt: %w", path, err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("warehouse: manifest %s has unsupported version %d", path, man.Version)
	}
	return &man, nil
}

// loadEpoch reads, validates, and decodes one epoch. prev is the
// decoded predecessor (nil for the first epoch); delta epochs replay
// against it.
func (st *Store) loadEpoch(info EpochInfo, prev *Snapshot) (*Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(st.dir, info.File))
	if err != nil {
		return nil, fmt.Errorf("warehouse: read segment %s: %w", info.File, err)
	}
	hdr, cols, hash, err := parseSegment(raw)
	if err != nil {
		return nil, fmt.Errorf("warehouse: segment %s: %w", info.File, err)
	}
	if got := fmt.Sprintf("%016x", hash); got != info.Hash {
		return nil, fmt.Errorf("warehouse: segment %s content hash %s does not match manifest %s", info.File, got, info.Hash)
	}
	if hdr.epoch != info.ID {
		return nil, fmt.Errorf("warehouse: segment %s carries epoch %d, manifest says %d", info.File, hdr.epoch, info.ID)
	}
	switch hdr.kind {
	case kindFull:
		return decodeFull(cols)
	default:
		if prev == nil {
			return nil, fmt.Errorf("warehouse: segment %s is a delta but epoch %d has no predecessor", info.File, info.ID)
		}
		if hdr.base != info.ID-1 {
			return nil, fmt.Errorf("warehouse: segment %s delta base %d is not the preceding epoch %d", info.File, hdr.base, info.ID-1)
		}
		return applyDelta(prev, cols)
	}
}

func segmentName(id uint32) string { return fmt.Sprintf("epoch-%06d.seg", id) }

// Append persists snap as the next epoch and publishes it to readers
// atomically: the segment file is written and synced first, the
// manifest is atomically replaced second, and the in-memory history is
// swapped last — a crash between any two steps leaves a store that
// reopens at the previous epoch. label names the epoch (a corpus path,
// a date); etag optionally records the serving ETag of the snapshot so
// the API layer can prove round-trip identity. snap must not be
// mutated after Append.
func (st *Store) Append(snap *Snapshot, label, etag string) (EpochInfo, error) {
	return st.AppendNote(snap, label, etag, nil)
}

// AppendNote is Append with an opaque manifest annotation: note (any
// valid JSON, typically a provenance record such as the streaming
// engine's CommitReport) is stored verbatim on the epoch's manifest
// entry and returned by Epochs/Latest, but never interpreted — epoch
// identity (segment hash, ETag) is unchanged by it.
func (st *Store) AppendNote(snap *Snapshot, label, etag string, note json.RawMessage) (EpochInfo, error) {
	_, stage := st.tracer.StartStage(context.Background(), "warehouse.append", st.metrics.appendHistogram())
	defer stage.End()

	st.mu.Lock()
	defer st.mu.Unlock()

	id := uint32(len(st.epochs))
	kind := byte(kindFull)
	base := id
	if st.last != nil && int(id)%st.opts.CheckpointEvery != 0 {
		kind = kindDelta
		base = id - 1
	}

	var cols []segColumn
	if kind == kindFull {
		cols = encodeFull(snap)
	} else {
		cols = encodeDelta(st.last, snap)
	}
	img, hash := encodeSegment(kind, id, base, cols)

	file := segmentName(id)
	if err := writeFileSync(filepath.Join(st.dir, file), img); err != nil {
		return EpochInfo{}, err
	}

	kindName := "full"
	if kind == kindDelta {
		kindName = "delta"
	}
	info := EpochInfo{
		ID: id, Label: label, Kind: kindName, Base: base,
		File: file, Bytes: int64(len(img)), Hash: fmt.Sprintf("%016x", hash),
		ETag: etag, ASes: snap.NumASes(), Links: len(snap.Links),
		Note: note,
	}
	next := append(append([]EpochInfo(nil), st.epochs...), info)
	if err := st.writeManifest(next); err != nil {
		return EpochInfo{}, err
	}

	st.hist = st.hist.extend(info, st.last, snap)
	st.epochs = next
	st.last = snap

	st.metrics.observeAppend(len(img))
	st.metrics.setLive(len(st.epochs), st.totalBytesLocked())
	span := stage.Span()
	span.SetAttrInt("epoch", int64(id))
	span.SetAttr("kind", kindName)
	span.SetAttrInt("bytes", int64(len(img)))
	return info, nil
}

func (st *Store) writeManifest(epochs []EpochInfo) error {
	man := manifest{Version: 1, CheckpointEvery: st.opts.CheckpointEvery, Epochs: epochs}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: marshal manifest: %w", err)
	}
	final := filepath.Join(st.dir, manifestName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("warehouse: publish manifest %s: %w", final, err)
	}
	return nil
}

// writeFileSync writes data and fsyncs before close, so a subsequent
// manifest publish never points at a segment the disk has not accepted.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("warehouse: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("warehouse: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("warehouse: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("warehouse: close %s: %w", path, err)
	}
	return nil
}

// Len returns the number of readable epochs.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.epochs)
}

// Epochs returns the manifest entries of all readable epochs, oldest
// first. The slice is a copy.
func (st *Store) Epochs() []EpochInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]EpochInfo(nil), st.epochs...)
}

// Latest returns the most recent epoch's decoded snapshot and its
// manifest entry; ok is false for an empty store. The snapshot is
// shared and must not be mutated.
func (st *Store) Latest() (*Snapshot, EpochInfo, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.last == nil {
		return nil, EpochInfo{}, false
	}
	return st.last, st.epochs[len(st.epochs)-1], true
}

// Snapshot materializes epoch id by decoding from the nearest full
// checkpoint at or below id and replaying the delta chain — bounded by
// the checkpoint cadence, never by store length. The latest epoch is
// already decoded and is returned without a warehouse.snapshot stage.
func (st *Store) Snapshot(id uint32) (*Snapshot, error) {
	st.mu.RLock()
	if int(id) >= len(st.epochs) {
		n := len(st.epochs)
		st.mu.RUnlock()
		return nil, fmt.Errorf("warehouse: epoch %d out of range [0,%d)", id, n)
	}
	if st.last != nil && int(id) == len(st.epochs)-1 {
		snap := st.last
		st.mu.RUnlock()
		return snap, nil
	}
	// Copy the chain's manifest entries so decoding runs without the
	// lock (appends never rewrite published epochs).
	start := id - id%uint32(st.opts.CheckpointEvery)
	chain := append([]EpochInfo(nil), st.epochs[start:id+1]...)
	st.mu.RUnlock()

	_, stage := st.tracer.StartStage(context.Background(), "warehouse.snapshot", st.metrics.decodeHistogram())
	defer stage.End()
	stage.Span().SetAttrInt("epoch", int64(id))
	stage.Span().SetAttrInt("chain", int64(len(chain)))
	var snap *Snapshot
	for _, info := range chain {
		next, err := st.loadEpoch(info, snap)
		if err != nil {
			return nil, fmt.Errorf("warehouse: materialize epoch %d: %w", id, err)
		}
		snap = next
	}
	return snap, nil
}

// History returns the immutable in-memory time-travel index over all
// readable epochs. The returned value never changes; re-call after
// Append to observe new epochs.
func (st *Store) History() *History {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.hist
}

// Dir returns the warehouse directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) totalBytesLocked() int64 {
	var sum int64
	for _, e := range st.epochs {
		sum += e.Bytes
	}
	return sum
}
