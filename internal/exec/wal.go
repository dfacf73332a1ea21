package exec

import (
	"bytes"
	"errors"
	"fmt"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

// Write-ahead logging. When a wal.Log is attached, every mutating
// statement runs inside the log's commit latch: the mutation applies
// to the in-memory table, its logical record is staged, and the latch
// releases only after the records are written — so log order is apply
// order, and the log always holds exactly the mutations that applied
// (a mid-statement error leaves the applied prefix both in memory and
// in the log). The statement then waits for durability per the log's
// fsync policy before acknowledging.
//
// The classic ARIES rule logs before applying to protect half-flushed
// pages; here the engine is memory-resident, so nothing of an apply
// survives a crash except its record. Staging the record immediately
// after a successful apply (still inside the latch) keeps the log
// equal to the state, which is the invariant replay needs; the
// binding durability rule — no acknowledgement before the record is
// on disk under SyncAlways — is unchanged.

// AttachWAL attaches a write-ahead log. Call after Recover and before
// serving traffic; mutations from then on are logged and recovery
// state must already be loaded (it would otherwise be re-logged).
func (db *Database) AttachWAL(l *wal.Log) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wlog = l
}

// WAL returns the attached log, or nil.
func (db *Database) WAL() *wal.Log {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.wlog
}

// Checkpoint writes a checkpoint of this database (plus the log's
// journal mirror) through the attached WAL and truncates the log.
// No-op without a WAL.
func (db *Database) Checkpoint() error {
	l := db.WAL()
	if l == nil {
		return nil
	}
	return l.Checkpoint(db.SaveSnapshot)
}

// mutate runs fn under the WAL commit latch, or directly when no log
// is attached (fn then receives a nil Appender, which the log helpers
// treat as "skip logging").
func (db *Database) mutate(fn func(a *wal.Appender) error) error {
	l := db.WAL()
	if l == nil {
		return fn(nil)
	}
	return l.Locked(fn)
}

// walSchema converts a table definition to its record form.
func walSchema(def *schema.Table) *wal.TableSchema {
	ts := &wal.TableSchema{Name: def.Name, Key: append([]string(nil), def.Key...)}
	for _, c := range def.Columns {
		ts.Columns = append(ts.Columns, wal.ColumnSchema{
			Name: c.Name, Kind: c.Kind.String(), NotNull: c.NotNull,
			FullText: c.FullText, Taxonomy: c.Taxonomy,
		})
	}
	return ts
}

// schemaFromWAL is the inverse of walSchema.
func schemaFromWAL(ts *wal.TableSchema) (*schema.Table, error) {
	cols := make([]schema.Column, 0, len(ts.Columns))
	for _, sc := range ts.Columns {
		k, err := value.KindFromName(sc.Kind)
		if err != nil {
			return nil, fmt.Errorf("exec: wal schema %q: %w", ts.Name, err)
		}
		cols = append(cols, schema.Column{
			Name: sc.Name, Kind: k, NotNull: sc.NotNull,
			FullText: sc.FullText, Taxonomy: sc.Taxonomy,
		})
	}
	return schema.NewTable(ts.Name, cols, ts.Key...)
}

func logCreate(a *wal.Appender, def *schema.Table) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindCreate, Table: def.Name, Schema: walSchema(def)})
}

func logIndex(a *wal.Appender, table, column string, hash bool) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindIndex, Table: table, Column: column, Hash: hash})
}

func logPut(a *wal.Appender, table string, row storage.Row) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindPut, Table: table, Values: row})
}

func logUpd(a *wal.Appender, table string, old, row storage.Row) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindUpd, Table: table, OldValues: old, Values: row})
}

func logDel(a *wal.Appender, table string, old storage.Row) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindDel, Table: table, Values: old})
}

func logTrunc(a *wal.Appender, table string) error {
	if a == nil {
		return nil
	}
	return a.Append(wal.Record{Kind: wal.KindTrunc, Table: table})
}

// CreateTableIndex declares a secondary index durably: unlike calling
// storage.Table.CreateIndex directly, the declaration is logged so a
// recovered site rebuilds the same access paths.
func (db *Database) CreateTableIndex(table, column string, hash bool) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	return db.mutate(func(a *wal.Appender) error {
		if hash {
			err = t.CreateHashIndex(column)
		} else {
			err = t.CreateIndex(column)
		}
		if err != nil {
			return err
		}
		return logIndex(a, t.Def().Name, column, hash)
	})
}

// UpsertRow durably upserts one row, creating the table from def when
// absent. This is the WAL-aware path federated row routing uses.
func (db *Database) UpsertRow(def *schema.Table, row storage.Row) error {
	t, err := db.EnsureTable(def)
	if err != nil {
		return err
	}
	return db.mutate(func(a *wal.Appender) error {
		if _, err := t.Upsert(row); err != nil {
			return err
		}
		return logPut(a, t.Def().Name, row)
	})
}

// LoadRows durably upserts a batch of rows under one commit-latch
// scope — one log write and at most one fsync for the whole batch,
// the bulk-load fast path.
func (db *Database) LoadRows(def *schema.Table, rows []storage.Row) error {
	t, err := db.EnsureTable(def)
	if err != nil {
		return err
	}
	name := t.Def().Name
	return db.mutate(func(a *wal.Appender) error {
		for _, r := range rows {
			if _, err := t.Upsert(r); err != nil {
				return err
			}
			if err := logPut(a, name, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// RestoreRows durably replaces table content for copy-repair: either
// truncate the whole table or delete the listed row ids, then upsert
// the replacement rows — all under one commit-latch scope.
func (db *Database) RestoreRows(def *schema.Table, truncate bool, doomed []int64, rows []storage.Row) error {
	t, err := db.EnsureTable(def)
	if err != nil {
		return err
	}
	name := t.Def().Name
	return db.mutate(func(a *wal.Appender) error {
		if truncate {
			t.Truncate()
			if err := logTrunc(a, name); err != nil {
				return err
			}
		} else {
			for _, id := range doomed {
				old, err := t.Get(id)
				if err != nil {
					continue // already gone
				}
				if err := t.Delete(id); err != nil {
					continue
				}
				if err := logDel(a, name, old); err != nil {
					return err
				}
			}
		}
		for _, r := range rows {
			if _, err := t.Upsert(r); err != nil {
				return err
			}
			if err := logPut(a, name, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// RecoveryStats summarizes what Recover rebuilt.
type RecoveryStats struct {
	// Checkpoint reports a checkpoint snapshot was restored.
	Checkpoint bool
	// CheckpointLSN is the snapshot's covering LSN.
	CheckpointLSN uint64
	// Replayed is the number of WAL records applied on top.
	Replayed int
	// Tables is the table count after recovery.
	Tables int
}

// Recover rebuilds this (empty) database from what wal.Open found:
// snapshot first, then replay of every record past the checkpoint
// LSN, in log order. Must run before AttachWAL — replayed mutations
// are not re-logged. Row-content records re-enter through the normal
// insert path, so secondary indexes and the order-independent content
// digest are re-seeded as a side effect.
func (db *Database) Recover(rec *wal.Recovered) (RecoveryStats, error) {
	var st RecoveryStats
	if db.WAL() != nil {
		return st, errors.New("exec: Recover must run before AttachWAL")
	}
	if rec == nil {
		return st, nil
	}
	if rec.State != nil {
		if err := db.loadSnapshot(rec.State); err != nil {
			return st, err
		}
		st.Checkpoint = true
		st.CheckpointLSN = rec.CheckpointLSN
	}
	for _, r := range rec.Records {
		if err := db.applyRecord(r); err != nil {
			return st, fmt.Errorf("exec: wal replay lsn %d (%s %s): %w", r.LSN, r.Kind, r.Table, err)
		}
		st.Replayed++
	}
	st.Tables = len(db.TableNames())
	return st, nil
}

// applyRecord replays one table-op record.
func (db *Database) applyRecord(r wal.Record) error {
	switch r.Kind {
	case wal.KindCreate:
		def, err := schemaFromWAL(r.Schema)
		if err != nil {
			return err
		}
		_, err = db.CreateTable(def)
		return err
	case wal.KindJFrame, wal.KindJReset:
		return nil // journal records are rehydrated by the journal, not the engine
	}
	t, err := db.Table(r.Table)
	if err != nil {
		return err
	}
	switch r.Kind {
	case wal.KindIndex:
		if r.Hash {
			return t.CreateHashIndex(r.Column)
		}
		return t.CreateIndex(r.Column)
	case wal.KindPut:
		_, err = t.Upsert(r.Values)
		return err
	case wal.KindUpd:
		return replayUpdate(t, r.OldValues, r.Values)
	case wal.KindDel:
		id, err := resolveRow(t, r.Values)
		if err != nil {
			return err
		}
		return t.Delete(id)
	case wal.KindTrunc:
		t.Truncate()
		return nil
	}
	return fmt.Errorf("exec: unknown wal record kind %q", r.Kind)
}

// replayUpdate applies an upd record: replace the row matching the
// old image with the new one.
func replayUpdate(t *storage.Table, old, row storage.Row) error {
	id, err := resolveRow(t, old)
	if err != nil {
		return err
	}
	return t.Update(id, row)
}

// resolveRow finds the stored id of a row by primary key when the
// table has one, else by whole-row equality — row ids are not stable
// across restarts, so records carry content, not ids.
func resolveRow(t *storage.Table, row storage.Row) (int64, error) {
	def := t.Def()
	if len(def.Key) > 0 {
		keyVals := make([]value.Value, 0, len(def.Key))
		for _, ki := range def.KeyIndexes() {
			if ki >= len(row) {
				return 0, fmt.Errorf("exec: wal row shorter than key")
			}
			keyVals = append(keyVals, row[ki])
		}
		id, _, err := t.GetByKey(keyVals...)
		return id, err
	}
	// WAL images are lossless, so the match is bit for bit: the binary
	// encoding, not value.Key, which folds -0 into +0 and NaN payloads
	// into one NaN.
	want := value.AppendRow(nil, row)
	var buf []byte
	found := int64(-1)
	t.Scan(func(id int64, r storage.Row) bool {
		buf = value.AppendRow(buf[:0], r)
		if bytes.Equal(buf, want) {
			found = id
			return false
		}
		return true
	})
	if found < 0 {
		return 0, fmt.Errorf("%w: no row matching wal image", storage.ErrNoRow)
	}
	return found, nil
}
