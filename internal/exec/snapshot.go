package exec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

// Snapshot support: a Database serializes to one byte string (schemas,
// declared indexes, rows) and reloads into an empty Database. Sites use
// this to survive restarts — the paper's five-nines posture assumes a
// failed machine comes back with its fragment intact. It is the engine
// state inside every WAL checkpoint and the file coherad -snapshot
// writes.
//
// The first byte is the format version. Version 1, written today, is
//
//	0x01 ntables:uvarint table...
//	table = schema ordered hash nrows:uvarint row...
//
// where schema is wal.AppendSchema's layout, ordered and hash are
// uvarint-counted lists of indexed column names, and each row is its
// cells in value.AppendBinary form, one per column. A '{' is version
// 0, the JSON snapshot of earlier releases: read, never written.

const snapshotBinary = 1

// snapshotV0 is the version-0 (JSON) snapshot.
type snapshotV0 struct {
	Version int               `json:"version"`
	Tables  []snapshotTableV0 `json:"tables"`
}

type snapshotTableV0 struct {
	Schema  wal.TableSchema `json:"schema"`
	Indexes struct {
		Ordered []string `json:"ordered,omitempty"`
		Hash    []string `json:"hash,omitempty"`
	} `json:"indexes"`
	Rows [][]wal.Val `json:"rows"`
}

// SaveSnapshot writes the database (every table's schema, index
// declarations and rows) in the version-1 format.
func (db *Database) SaveSnapshot(w io.Writer) error {
	names := db.TableNames()
	if _, err := w.Write(binary.AppendUvarint([]byte{snapshotBinary}, uint64(len(names)))); err != nil {
		return err
	}
	var head, rows []byte
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		def := t.Def()
		head = wal.AppendSchema(head[:0], walSchema(def))
		var ordered, hash []string
		for _, c := range def.Columns {
			if t.HasIndex(c.Name) {
				ordered = append(ordered, c.Name)
			}
			if t.HasHashIndex(c.Name) {
				hash = append(hash, c.Name)
			}
		}
		head = appendNames(head, ordered)
		head = appendNames(head, hash)
		// The row count is what Scan visited, so count while encoding.
		n := 0
		rows = rows[:0]
		t.Scan(func(_ int64, row storage.Row) bool {
			for _, v := range row {
				rows = value.AppendBinary(rows, v)
			}
			n++
			return true
		})
		head = binary.AppendUvarint(head, uint64(n))
		if _, err := w.Write(head); err != nil {
			return err
		}
		if _, err := w.Write(rows); err != nil {
			return err
		}
	}
	return nil
}

func appendNames(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, s := range names {
		dst = value.AppendString(dst, s)
	}
	return dst
}

func readNames(d *value.Decoder) []string {
	out := make([]string, d.Count(1))
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// LoadSnapshot restores a snapshot of either format version into this
// (empty) database.
func (db *Database) LoadSnapshot(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("exec: reading snapshot: %w", err)
	}
	return db.loadSnapshot(b)
}

func (db *Database) loadSnapshot(b []byte) error {
	switch {
	case len(b) > 0 && b[0] == snapshotBinary:
		return db.loadSnapshotV1(b[1:])
	case len(b) > 0 && b[0] == '{':
		return db.loadSnapshotV0(b)
	}
	return errors.New("exec: unsupported snapshot format")
}

func (db *Database) loadSnapshotV1(b []byte) error {
	d := value.NewDecoder(b)
	// A table is at least six bytes: its name, column, key, index and
	// row counts.
	for range d.Count(6) {
		ts := wal.ReadSchema(d)
		ordered, hash := readNames(d), readNames(d)
		ncols := len(ts.Columns)
		nrows := d.Count(max(ncols, 1))
		if err := d.Err(); err != nil {
			return fmt.Errorf("exec: decoding snapshot: %w", err)
		}
		t, err := db.restoreTable(ts, ordered, hash)
		if err != nil {
			return err
		}
		// Insert clones, so one row buffer serves every row.
		row := make(storage.Row, ncols)
		for i := range nrows {
			if d.Values(row) == nil {
				return fmt.Errorf("exec: decoding snapshot table %q row %d: %w", ts.Name, i, d.Err())
			}
			if err := restoreRow(t, i, row); err != nil {
				return err
			}
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("exec: decoding snapshot: %w", err)
	}
	return nil
}

func (db *Database) loadSnapshotV0(b []byte) error {
	var doc snapshotV0
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("exec: decoding snapshot: %w", err)
	}
	if doc.Version != 1 {
		return fmt.Errorf("exec: unsupported snapshot version %d", doc.Version)
	}
	for _, st := range doc.Tables {
		t, err := db.restoreTable(&st.Schema, st.Indexes.Ordered, st.Indexes.Hash)
		if err != nil {
			return err
		}
		for ri, sr := range st.Rows {
			row, err := wal.DecodeRow(sr)
			if err != nil {
				return err
			}
			if err := restoreRow(t, ri, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreRow inserts row i of a snapshot table. A snapshot holds rows,
// not writes, so two rows under one key leave no later one to keep:
// restore fails and names them. Releases that keyed FLOAT 0 and -0
// apart could write such a file; the error says so (DESIGN §12).
func restoreRow(t *storage.Table, i int, row storage.Row) error {
	_, err := t.Insert(row)
	if err == nil {
		return nil
	}
	name := t.Def().Name
	if errors.Is(err, storage.ErrDuplicateKey) {
		for _, ki := range t.Def().KeyIndexes() {
			if v := row[ki]; v.Kind() == value.KindFloat && v.Float() == 0 {
				return fmt.Errorf("exec: snapshot table %q row %d: %w: key column %q holds both 0 and -0, which are one key (DESIGN §12)", name, i, err, t.Def().Columns[ki].Name)
			}
		}
	}
	return fmt.Errorf("exec: snapshot table %q row %d: %w", name, i, err)
}

// restoreTable creates a snapshot table and its declared indexes;
// rows inserted afterwards maintain them.
func (db *Database) restoreTable(ts *wal.TableSchema, ordered, hash []string) (*storage.Table, error) {
	def, err := schemaFromWAL(ts)
	if err != nil {
		return nil, err
	}
	t, err := db.CreateTable(def)
	if err != nil {
		return nil, err
	}
	for _, col := range ordered {
		if err := t.CreateIndex(col); err != nil {
			return nil, err
		}
	}
	for _, col := range hash {
		if err := t.CreateHashIndex(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}
