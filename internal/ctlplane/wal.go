package ctlplane

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/config"
)

// Durable desired-state layer: a write-ahead log plus snapshot making
// peeringd crash-only. Every Store commit (create / CAS-update /
// tombstone / remove), every deploy operation, and every successful
// actuation fingerprint is appended to the WAL and fsynced before the
// commit is acknowledged; on startup the snapshot and WAL replay
// rebuild desired state exactly — per-object revisions, the mirrored
// config revision log with its commit notes, the deployed map, and the
// fingerprints announcements were actuated with (so recovery re-adopts
// matching installs without burning the §4.7 update budget).
//
// The on-disk discipline mirrors internal/history's segment log:
// length-prefixed CRC-32C records, fsync-on-commit, snapshot-then-
// truncate compaction, and fail-closed rejection of corruption with
// the byte offset. The one deliberate exception is the final record: a
// crash mid-append leaves a torn tail (short frame or bad checksum
// extending to EOF), which is expected damage — it is truncated away
// and recovery proceeds from the last durable record. A bad checksum
// or sequence gap anywhere *before* the tail is real corruption and
// recovery refuses to proceed.

// walCastagnoli is the CRC-32C polynomial every frame is checked with
// (same discipline as internal/history).
var walCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// walMagic / snapMagic head the two files in a state directory.
var (
	walMagic  = []byte("vbgpwal1")
	snapMagic = []byte("vbgpsnp1")
)

// File names inside the state directory.
const (
	walFileName  = "ctlplane.wal"
	snapFileName = "ctlplane.snap"
)

// maxWALRecord bounds one frame's payload; anything larger mid-file is
// corruption, not data (a spec is capped at 1 MiB; a full-model commit
// record stays well under this).
const maxWALRecord = 8 << 20

// defaultCompactEvery is how many appended records trigger an automatic
// snapshot-then-truncate compaction.
const defaultCompactEvery = 1024

// Record types.
const (
	walTypeCommit byte = 1
	walTypeDeploy byte = 2
	walTypeAct    byte = 3
)

// walCommit is the durable form of one Store commit. Created, updated
// and deleted commits carry the full object; removed commits carry only
// the name. Model and Note reproduce the commit's mirrored config
// revision verbatim, so replay rebuilds the config.Store revision log
// byte-for-byte (including revision numbering and commit notes).
type walCommit struct {
	Kind     ChangeKind    `json:"kind"`
	Name     string        `json:"name"`
	Revision int64         `json:"revision"`
	Object   *Object       `json:"object,omitempty"`
	Model    *config.Model `json:"model,omitempty"`
	Note     string        `json:"note,omitempty"`
}

// walDeploy is one deploy-plane operation. Deployed snapshots the
// per-PoP revision map after the operation (replay restores it without
// re-applying); NewRevision records the revision a rollback appended.
type walDeploy struct {
	Verb        string         `json:"verb"`
	Revision    int            `json:"revision"`
	PoPs        []string       `json:"pops,omitempty"`
	NewRevision int            `json:"new_revision,omitempty"`
	Deployed    map[string]int `json:"deployed,omitempty"`
}

// walAct is one successful actuation: the fingerprint an announcement
// was installed with (op "announce") or its retraction (op "withdraw").
// Recovery hands these to the actuator so matching installs are
// re-adopted with exact knob knowledge instead of re-announced.
type walAct struct {
	Op         string `json:"op"` // "announce" | "withdraw"
	Experiment string `json:"experiment"`
	PoP        string `json:"pop"`
	Prefix     string `json:"prefix"`
	Version    uint32 `json:"version"`
	Fp         string `json:"fp,omitempty"`
}

// key rebuilds the in-memory announcement key.
func (a walAct) key() (AnnKey, error) {
	p, err := netip.ParsePrefix(a.Prefix)
	if err != nil {
		return AnnKey{}, fmt.Errorf("bad act prefix %q: %v", a.Prefix, err)
	}
	return AnnKey{Experiment: a.Experiment, PoP: a.PoP, Prefix: p, Version: a.Version}, nil
}

// walSnapshot is the compaction checkpoint: full store, config-mirror,
// deploy and actuation state as of sequence Seq. WAL records with
// seq <= Seq are superseded.
type walSnapshot struct {
	Seq      uint64         `json:"seq"`
	NextRev  int64          `json:"next_rev"`
	Objects  []Object       `json:"objects,omitempty"`
	Config   []ConfigRev    `json:"config,omitempty"`
	Deployed map[string]int `json:"deployed,omitempty"`
	Acts     []walAct       `json:"acts,omitempty"`
}

// ConfigRev is one recovered config.Store revision: the model and its
// commit note.
type ConfigRev struct {
	Model config.Model `json:"model"`
	Note  string       `json:"note,omitempty"`
}

// RecoveredState is what OpenWAL rebuilds from snapshot + replay: the
// input to a Store resuming after a restart.
type RecoveredState struct {
	// Seq is the last replayed WAL sequence number.
	Seq uint64
	// NextRev seeds the store's global revision counter.
	NextRev int64
	// Objects are the surviving desired objects (tombstones included).
	Objects []Object
	// Config reproduces the mirrored config.Store revision log.
	Config []ConfigRev
	// Deployed is the per-PoP deployed-revision map.
	Deployed map[string]int
	// Acts maps each announcement believed installed to the fingerprint
	// it was actuated with — the recovery reconciliation pass re-adopts
	// matching installs instead of re-announcing them.
	Acts map[AnnKey]string
}

// WAL is the append side of the log: one open file, fsynced per record.
type WAL struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	seq      uint64
	appended int // records since the last snapshot

	// CompactEvery is how many appends trigger auto-compaction
	// (default 1024; set before use).
	CompactEvery int
	// snapshot builds the compaction checkpoint; installed by the Store
	// that owns this WAL. Called with the store lock held.
	snapshot func() walSnapshot

	mAppends  metric
	mCompacts metric
	mReplays  metric
}

// encodeFrame wraps a payload as one length-prefixed CRC'd frame.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, walCastagnoli))
	copy(out[8:], payload)
	return out
}

// encodeRecord builds a frame payload: sequence, type tag, JSON body.
func encodeRecord(seq uint64, typ byte, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 9+len(data))
	binary.BigEndian.PutUint64(payload[0:8], seq)
	payload[8] = typ
	copy(payload[9:], data)
	return payload, nil
}

// walRecord is one decoded record.
type walRecord struct {
	seq  uint64
	typ  byte
	body []byte
}

// DecodeWALRecord parses one frame payload (the bytes after the
// length+CRC header): sequence, type tag, and a strictly-decoded JSON
// body. It is the unit the fuzz target drives.
func DecodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 9 {
		return rec, fmt.Errorf("ctlplane: wal record too short (%d bytes)", len(payload))
	}
	rec.seq = binary.BigEndian.Uint64(payload[0:8])
	rec.typ = payload[8]
	rec.body = payload[9:]
	switch rec.typ {
	case walTypeCommit:
		var c walCommit
		if err := json.Unmarshal(rec.body, &c); err != nil {
			return rec, fmt.Errorf("ctlplane: bad commit record: %v", err)
		}
		switch c.Kind {
		case ChangeCreated, ChangeUpdated, ChangeDeleted, ChangeRemoved:
		default:
			return rec, fmt.Errorf("ctlplane: commit record has unknown kind %q", c.Kind)
		}
		if c.Name == "" {
			return rec, fmt.Errorf("ctlplane: commit record has no name")
		}
		if c.Revision <= 0 {
			return rec, fmt.Errorf("ctlplane: commit record has revision %d", c.Revision)
		}
	case walTypeDeploy:
		var d walDeploy
		if err := json.Unmarshal(rec.body, &d); err != nil {
			return rec, fmt.Errorf("ctlplane: bad deploy record: %v", err)
		}
		switch d.Verb {
		case "canary", "promote", "rollback":
		default:
			return rec, fmt.Errorf("ctlplane: deploy record has unknown verb %q", d.Verb)
		}
	case walTypeAct:
		var a walAct
		if err := json.Unmarshal(rec.body, &a); err != nil {
			return rec, fmt.Errorf("ctlplane: bad act record: %v", err)
		}
		if a.Op != "announce" && a.Op != "withdraw" {
			return rec, fmt.Errorf("ctlplane: act record has unknown op %q", a.Op)
		}
		if _, err := a.key(); err != nil {
			return rec, fmt.Errorf("ctlplane: %v", err)
		}
	default:
		return rec, fmt.Errorf("ctlplane: unknown wal record type %d", rec.typ)
	}
	return rec, nil
}

// walCorruptionError marks unrecoverable log damage: recovery fails
// closed rather than silently dropping committed state.
type walCorruptionError struct {
	file   string
	offset int64
	msg    string
}

func (e *walCorruptionError) Error() string {
	return fmt.Sprintf("ctlplane: %s: offset %d: %s (refusing to recover from a corrupt log)", e.file, e.offset, e.msg)
}

// decodeWALFile reads every intact frame of a WAL file. A torn tail —
// an incomplete final frame, or a checksum failure on a frame that
// extends to EOF — is expected crash damage: decoding stops and the
// returned truncateAt offset marks where the durable prefix ends.
// Damage anywhere else fails closed with the byte offset.
func decodeWALFile(name string, data []byte) (recs []walRecord, truncateAt int64, err error) {
	if len(data) < len(walMagic) {
		if len(data) == 0 {
			return nil, 0, nil
		}
		return nil, 0, &walCorruptionError{name, 0, "short header"}
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, &walCorruptionError{name, 0, fmt.Sprintf("bad magic %q", data[:len(walMagic)])}
	}
	off := int64(len(walMagic))
	var lastSeq uint64
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off, nil // torn frame header at the tail
		}
		length := binary.BigEndian.Uint32(rest[0:4])
		wantCRC := binary.BigEndian.Uint32(rest[4:8])
		end := int(off) + 8 + int(length)
		if length > maxWALRecord {
			if end >= len(data) {
				return recs, off, nil // garbage length from a torn write
			}
			return nil, 0, &walCorruptionError{name, off, fmt.Sprintf("record length %d exceeds %d", length, maxWALRecord)}
		}
		if end > len(data) {
			return recs, off, nil // torn payload at the tail
		}
		payload := rest[8 : 8+length]
		if crc32.Checksum(payload, walCastagnoli) != wantCRC {
			if end == len(data) {
				return recs, off, nil // torn final frame
			}
			return nil, 0, &walCorruptionError{name, off, "checksum mismatch"}
		}
		rec, derr := DecodeWALRecord(payload)
		if derr != nil {
			return nil, 0, &walCorruptionError{name, off, derr.Error()}
		}
		if len(recs) > 0 && rec.seq != lastSeq+1 {
			return nil, 0, &walCorruptionError{name, off, fmt.Sprintf("sequence %d after %d", rec.seq, lastSeq)}
		}
		lastSeq = rec.seq
		recs = append(recs, rec)
		off = int64(end)
	}
	return recs, -1, nil // clean to EOF
}

// loadSnapshot reads and verifies the snapshot file; a missing file is
// a fresh start, any damage is fail-closed (Compact syncs the snapshot's
// data before renaming it into place, so a bad one is corruption, not a
// crash artifact).
func loadSnapshot(path string) (*walSnapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < len(snapMagic)+8 {
		return nil, &walCorruptionError{name, 0, "short snapshot"}
	}
	if string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, &walCorruptionError{name, 0, fmt.Sprintf("bad magic %q", data[:len(snapMagic)])}
	}
	body := data[len(snapMagic):]
	length := binary.BigEndian.Uint32(body[0:4])
	wantCRC := binary.BigEndian.Uint32(body[4:8])
	if int(length) != len(body)-8 {
		return nil, &walCorruptionError{name, int64(len(snapMagic)), fmt.Sprintf("length %d does not match %d payload bytes", length, len(body)-8)}
	}
	payload := body[8:]
	if crc32.Checksum(payload, walCastagnoli) != wantCRC {
		return nil, &walCorruptionError{name, int64(len(snapMagic)), "checksum mismatch"}
	}
	var snap walSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, &walCorruptionError{name, int64(len(snapMagic) + 8), fmt.Sprintf("bad snapshot body: %v", err)}
	}
	return &snap, nil
}

// OpenWAL opens (creating if needed) the durable desired-state log in
// dir and replays snapshot + WAL into a RecoveredState. A torn tail is
// truncated; anything else wrong with the files fails closed. The
// returned state is nil when the directory held no prior state.
func OpenWAL(dir string) (*WAL, *RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ctlplane: state dir: %w", err)
	}
	snap, err := loadSnapshot(filepath.Join(dir, snapFileName))
	if err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	recs, truncateAt, err := decodeWALFile(walFileName, data)
	if err != nil {
		return nil, nil, err
	}

	w := &WAL{
		dir:          dir,
		CompactEvery: defaultCompactEvery,
		mAppends:     counter("ctlplane_wal_appends_total"),
		mCompacts:    counter("ctlplane_wal_compactions_total"),
		mReplays:     counter("ctlplane_wal_replayed_records_total"),
	}

	fresh := snap == nil && len(recs) == 0 && truncateAt <= 0
	var rec *RecoveredState
	if !fresh {
		rec, err = replay(snap, recs)
		if err != nil {
			return nil, nil, err
		}
		w.appended = len(recs)
	}
	if rec != nil {
		w.seq = rec.Seq
	}

	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		// The log may have just been created: make its directory entry
		// durable too.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else if truncateAt >= 0 {
		// Drop the torn tail so the next append starts on a frame
		// boundary.
		if err := f.Truncate(truncateAt); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(truncateAt, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else {
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	w.f = f
	return w, rec, nil
}

// replay folds WAL records over the snapshot baseline.
func replay(snap *walSnapshot, recs []walRecord) (*RecoveredState, error) {
	st := &RecoveredState{
		Deployed: make(map[string]int),
		Acts:     make(map[AnnKey]string),
	}
	objects := make(map[string]Object)
	if snap != nil {
		st.Seq = snap.Seq
		st.NextRev = snap.NextRev
		for _, obj := range snap.Objects {
			objects[obj.Spec.Name] = obj
		}
		st.Config = append(st.Config, snap.Config...)
		for pop, rev := range snap.Deployed {
			st.Deployed[pop] = rev
		}
		for _, a := range snap.Acts {
			key, err := a.key()
			if err != nil {
				return nil, fmt.Errorf("ctlplane: %s: %v", snapFileName, err)
			}
			st.Acts[key] = a.Fp
		}
	}
	for _, r := range recs {
		if r.seq <= st.Seq {
			// Superseded by the snapshot (a crash between snapshot write
			// and WAL truncate leaves the old records behind).
			continue
		}
		st.Seq = r.seq
		switch r.typ {
		case walTypeCommit:
			var c walCommit
			if err := json.Unmarshal(r.body, &c); err != nil {
				return nil, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
			if c.Revision <= st.NextRev {
				return nil, fmt.Errorf("ctlplane: wal seq %d: duplicate revision %d (store already at %d)", r.seq, c.Revision, st.NextRev)
			}
			st.NextRev = c.Revision
			switch c.Kind {
			case ChangeCreated, ChangeUpdated, ChangeDeleted:
				if c.Object == nil {
					return nil, fmt.Errorf("ctlplane: wal seq %d: %s commit without object", r.seq, c.Kind)
				}
				objects[c.Name] = *c.Object
			case ChangeRemoved:
				delete(objects, c.Name)
				for key := range st.Acts {
					if key.Experiment == c.Name {
						delete(st.Acts, key)
					}
				}
			}
			if c.Model != nil {
				st.Config = append(st.Config, ConfigRev{Model: *c.Model, Note: c.Note})
			}
		case walTypeDeploy:
			var d walDeploy
			if err := json.Unmarshal(r.body, &d); err != nil {
				return nil, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
			if d.Verb == "rollback" {
				if d.Revision < 1 || d.Revision > len(st.Config) {
					return nil, fmt.Errorf("ctlplane: wal seq %d: rollback to unknown revision %d", r.seq, d.Revision)
				}
				st.Config = append(st.Config, ConfigRev{Model: st.Config[d.Revision-1].Model})
			}
			for pop, rev := range d.Deployed {
				st.Deployed[pop] = rev
			}
		case walTypeAct:
			var a walAct
			if err := json.Unmarshal(r.body, &a); err != nil {
				return nil, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
			key, err := a.key()
			if err != nil {
				return nil, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
			if a.Op == "announce" {
				st.Acts[key] = a.Fp
			} else {
				delete(st.Acts, key)
			}
		}
	}
	names := make([]string, 0, len(objects))
	for name := range objects {
		names = append(names, name)
	}
	// Deterministic recovery order (List() sorts too, but the store
	// seeds from this slice directly).
	sort.Strings(names)
	for _, name := range names {
		st.Objects = append(st.Objects, objects[name])
	}
	return st, nil
}

// append writes one record and fsyncs it — the durability point every
// commit waits on.
func (w *WAL) append(typ byte, body any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("ctlplane: wal is closed")
	}
	payload, err := encodeRecord(w.seq+1, typ, body)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(encodeFrame(payload)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.seq++
	w.appended++
	w.mAppends.Inc()
	return nil
}

// needsCompact reports whether the appended-record count passed the
// compaction threshold.
func (w *WAL) needsCompact() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	every := w.CompactEvery
	if every <= 0 {
		every = defaultCompactEvery
	}
	return w.appended >= every
}

// Compact checkpoints the current state into the snapshot file
// (written durably: synced temp file, rename, synced directory) and
// truncates the WAL — the snapshot-then-truncate discipline. The caller
// must hold the owning store's lock (the snapshot hook reads store
// state directly).
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || w.snapshot == nil {
		return fmt.Errorf("ctlplane: wal not ready to compact")
	}
	snap := w.snapshot()
	snap.Seq = w.seq
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	data := append(append([]byte(nil), snapMagic...), encodeFrame(payload)...)
	if err := writeFileSynced(filepath.Join(w.dir, snapFileName), data); err != nil {
		return err
	}
	// Snapshot is durable; the WAL's records are superseded. A crash
	// before the truncate is harmless — replay skips seq <= snapshot.
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.appended = 0
	w.mCompacts.Inc()
	return nil
}

// Seq returns the last appended sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Close closes the log file. Outstanding records are already fsynced.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// writeFileSynced replaces path with data through a temp file that is
// synced before the rename, then syncs the directory so the rename
// itself survives a power loss. Without the first sync the rename can
// reach disk before the data does.
func writeFileSynced(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes the entries created or renamed in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
