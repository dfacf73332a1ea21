package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"cohera/internal/obs"
	"cohera/internal/value"
)

// checkpoint is what a checkpoint file holds: the engine snapshot as
// of LSN plus the journal mirror at the same instant.
type checkpoint struct {
	LSN     uint64
	State   []byte
	Journal []JournalFrag
}

// checkpointV0 is the version-0 (JSON) checkpoint file, still read so
// a directory written by an earlier release recovers.
type checkpointV0 struct {
	Version int             `json:"version"`
	LSN     uint64          `json:"lsn"`
	State   json.RawMessage `json:"state,omitempty"`
	Journal []JournalFrag   `json:"journal,omitempty"`
}

// checkpointHeaderLen is the version byte plus the body's CRC32.
const checkpointHeaderLen = 5

// The version-1 checkpoint file is
//
//	0x01 crc32(body):4 bytes big-endian | body
//	body = lsn:uvarint nfrags:uvarint (site table frag bytes)... state
//
// with strings and journal bytes length-prefixed, and the engine state
// (exec.Database.SaveSnapshot's bytes) running to the end of the file.

// loadCheckpoint reads and validates a checkpoint file; nil when none
// exists. A checkpoint that exists but cannot be parsed is an error,
// not a silent cold start — refusing to run beats resurrecting an
// empty table set under a live federation.
func loadCheckpoint(path string) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ck *checkpoint
	switch {
	case len(b) > 0 && b[0] == formatBinary:
		ck, err = readCheckpoint(b)
	case len(b) > 0 && b[0] == formatJSON:
		ck, err = readCheckpointV0(b)
	default:
		err = errFormat
	}
	if err != nil {
		return nil, fmt.Errorf("wal: decoding checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// readCheckpoint decodes a version-1 checkpoint file.
func readCheckpoint(b []byte) (*checkpoint, error) {
	if len(b) < checkpointHeaderLen {
		return nil, value.ErrCorrupt
	}
	body := b[checkpointHeaderLen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[1:checkpointHeaderLen]) {
		return nil, errors.New("checksum mismatch")
	}
	d := value.NewDecoder(body)
	ck := &checkpoint{LSN: d.Uvarint()}
	// A fragment is at least four bytes: four empty length prefixes.
	if n := d.Count(4); n > 0 {
		ck.Journal = make([]JournalFrag, n)
	}
	for i := range ck.Journal {
		jf := &ck.Journal[i]
		jf.Site, jf.Table, jf.Frag = d.Str(), d.Str(), d.Str()
		jf.Bytes = d.Bytes()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if state := d.Rest(); len(state) > 0 {
		ck.State = state
	}
	return ck, nil
}

// readCheckpointV0 decodes a version-0 (JSON) checkpoint file.
func readCheckpointV0(b []byte) (*checkpoint, error) {
	var doc checkpointV0
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("unsupported checkpoint version %d", doc.Version)
	}
	ck := &checkpoint{LSN: doc.LSN, Journal: doc.Journal}
	if len(doc.State) > 0 {
		ck.State = doc.State
	}
	return ck, nil
}

// appendCheckpointHead appends the start of a version-1 checkpoint
// file: a header to be sealed by sealCheckpoint, the LSN and the
// journal fragments. The engine state follows.
func appendCheckpointHead(dst []byte, lsn uint64, journal []JournalFrag) []byte {
	dst = append(dst, make([]byte, checkpointHeaderLen)...) // sealed below
	dst = binary.AppendUvarint(dst, lsn)
	dst = binary.AppendUvarint(dst, uint64(len(journal)))
	for _, jf := range journal {
		dst = value.AppendString(dst, jf.Site)
		dst = value.AppendString(dst, jf.Table)
		dst = value.AppendString(dst, jf.Frag)
		dst = value.AppendBytes(dst, jf.Bytes)
	}
	return dst
}

// sealCheckpoint fills in the version byte and the body CRC of a
// checkpoint file begun by appendCheckpointHead.
func sealCheckpoint(b []byte) {
	b[0] = formatBinary
	binary.BigEndian.PutUint32(b[1:checkpointHeaderLen], crc32.ChecksumIEEE(b[checkpointHeaderLen:]))
}

// Checkpoint atomically persists the engine state (written by the
// state callback — typically exec.Database.SaveSnapshot) together
// with the journal mirror, then truncates the log. The commit latch
// is held throughout, so the snapshot observes exactly the mutations
// of records 1..LSN and nothing in flight; a crash at any point
// leaves either the old checkpoint + full log or the new checkpoint
// (+ a log whose ≤LSN prefix recovery skips). state may be nil for a
// journal-only log.
func (l *Log) Checkpoint(state func(w io.Writer) error) error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ioErr != nil {
		return l.ioErr
	}
	payload := appendCheckpointHead(nil, l.nextLSN-1, l.mirrorDumpLocked())
	if state != nil {
		buf := bytes.NewBuffer(payload)
		if err := state(buf); err != nil {
			return fmt.Errorf("wal: checkpoint state: %w", err)
		}
		payload = buf.Bytes()
	}
	sealCheckpoint(payload)
	path := filepath.Join(l.dir, checkpointFileName)
	if err := writeFileAtomic(path, payload, func() { l.crashLocked("checkpoint.staged") }); err != nil {
		return err
	}
	l.crashLocked("checkpoint.renamed")
	// The checkpoint is durable; every logged record ≤ LSN is now
	// redundant. Truncate the file — cumulative written/synced offsets
	// deliberately do not reset, so concurrent durability waiters keep
	// their math.
	if err := l.file.Truncate(0); err != nil {
		l.ioErr = fmt.Errorf("wal: truncate after checkpoint: %w", err)
		return l.ioErr
	}
	l.size = 0
	l.metSize.Set(0)
	labels := obs.Labels{"wal": filepath.Base(l.dir)}
	obs.Default().Counter("cohera_wal_checkpoints_total",
		"Checkpoints written.", labels).Inc()
	obs.Default().Gauge("cohera_wal_last_checkpoint_unix",
		"Unix time of the last successful checkpoint.", labels).Set(time.Now().Unix())
	obs.Default().Gauge("cohera_wal_checkpoint_bytes",
		"Size of the last checkpoint file.", labels).Set(int64(len(payload)))
	obs.Default().Histogram("cohera_wal_checkpoint_latency",
		"Wall time of checkpoint capture+write+truncate.", labels).Observe(time.Since(start))
	return nil
}

// writeFileAtomic writes data to path via temp file + fsync + rename,
// fsyncing the directory afterwards so the rename itself is durable.
// staged (if non-nil) runs after the temp file is complete but before
// the rename — the mid-checkpoint crash point.
func writeFileAtomic(path string, data []byte, staged func()) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		closeErr := f.Close()
		_ = closeErr // the write error is the one worth reporting
		return fmt.Errorf("wal: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		closeErr := f.Close()
		_ = closeErr
		return fmt.Errorf("wal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", tmp, err)
	}
	if staged != nil {
		staged()
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power
// loss. Best-effort on platforms where directories reject fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	syncErr := d.Sync()
	_ = syncErr // some filesystems reject directory fsync; rename already happened
	return d.Close()
}
