// Package exec implements the local query executor every site runs: DDL
// and DML over internal/storage tables, and SELECT evaluation with index
// and inverted-index access paths, hash joins, grouping and ordering.
//
// The federated layer (internal/federation) decomposes global queries into
// the single-site queries this package executes — exactly the split the
// paper describes between Cohera Integrate and its local engines.
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cohera/internal/ir"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

// Database is one site's collection of tables plus the site-local synonym
// table used by SYNONYM/MATCHES predicates. Table creation is safe
// against concurrent queries: the federation advertises that fragments
// can be attached and loaded while queries run, and LoadFragment creates
// missing local tables on live sites.
type Database struct {
	catalog  *schema.Catalog
	synonyms *ir.Synonyms

	mu     sync.RWMutex
	tables map[string]*storage.Table
	// wlog, when attached, makes every mutation write-ahead logged
	// (see wal.go). Guarded by mu only for the attach handshake; the
	// log itself is internally synchronized.
	wlog *wal.Log
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		catalog:  schema.NewCatalog(),
		tables:   make(map[string]*storage.Table),
		synonyms: ir.NewSynonyms(),
	}
}

// Synonyms returns the database's synonym table; content managers populate
// it via transformation rules or directly.
func (db *Database) Synonyms() *ir.Synonyms { return db.synonyms }

// SetSynonyms shares an existing synonym table with this database — the
// federation coordinator points scratch databases at the federation-wide
// table so SYNONYM predicates see every declared ring.
func (db *Database) SetSynonyms(s *ir.Synonyms) {
	if s != nil {
		db.synonyms = s
	}
}

// CreateTable defines a table from a schema, logging the definition
// when a WAL is attached.
func (db *Database) CreateTable(def *schema.Table) (*storage.Table, error) {
	var t *storage.Table
	err := db.mutate(func(a *wal.Appender) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		tt, err := db.createTableLocked(def)
		if err != nil {
			return err
		}
		t = tt
		return logCreate(a, def)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (db *Database) createTableLocked(def *schema.Table) (*storage.Table, error) {
	if err := db.catalog.Define(def); err != nil {
		return nil, err
	}
	t := storage.NewTable(def)
	db.tables[strings.ToLower(def.Name)] = t
	return t, nil
}

// EnsureTable returns the named table, creating it from def when absent.
// Unlike a Table-then-CreateTable sequence it is atomic, so concurrent
// fragment loads against a new table cannot race on the definition.
func (db *Database) EnsureTable(def *schema.Table) (*storage.Table, error) {
	var t *storage.Table
	err := db.mutate(func(a *wal.Appender) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		if existing, ok := db.tables[strings.ToLower(def.Name)]; ok {
			t = existing
			return nil
		}
		tt, err := db.createTableLocked(def)
		if err != nil {
			return err
		}
		t = tt
		return logCreate(a, def)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*storage.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", schema.ErrNoTable, name)
	}
	return t, nil
}

// TableDigest returns the named table's order-independent content
// digest — the anti-entropy comparison key (see storage.TableDigest).
func (db *Database) TableDigest(name string) (storage.TableDigest, error) {
	t, err := db.Table(name)
	if err != nil {
		return storage.TableDigest{}, err
	}
	return t.Digest(), nil
}

// Catalog exposes the schema catalog.
func (db *Database) Catalog() *schema.Catalog { return db.catalog }

// TableNames returns defined table names sorted.
func (db *Database) TableNames() []string { return db.catalog.Names() }

// Result is a query result: column names and rows.
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// Exec parses and executes one SQL statement. SELECT returns rows; DML
// returns a Result with a single "count" column holding the affected-row
// count; CREATE TABLE returns an empty result.
func (db *Database) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt sqlparse.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case sqlparse.SelectStmt:
		return db.Select(s)
	case sqlparse.UnionStmt:
		return db.Union(s)
	case sqlparse.InsertStmt:
		var n int
		err := db.mutate(func(a *wal.Appender) error {
			var e error
			n, e = db.execInsert(s, a)
			return e
		})
		return countResult(n), err
	case sqlparse.UpdateStmt:
		var n int
		err := db.mutate(func(a *wal.Appender) error {
			var e error
			n, e = db.execUpdate(s, a)
			return e
		})
		return countResult(n), err
	case sqlparse.DeleteStmt:
		var n int
		err := db.mutate(func(a *wal.Appender) error {
			var e error
			n, e = db.execDelete(s, a)
			return e
		})
		return countResult(n), err
	case sqlparse.CreateTableStmt:
		return &Result{}, db.execCreate(s)
	default:
		return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
	}
}

func countResult(n int) *Result {
	return &Result{
		Columns: []string{"count"},
		Rows:    []storage.Row{{value.NewInt(int64(n))}},
	}
}

func (db *Database) execCreate(s sqlparse.CreateTableStmt) error {
	cols := make([]schema.Column, 0, len(s.Columns))
	for _, cd := range s.Columns {
		k, err := value.KindFromName(cd.Type)
		if err != nil {
			return err
		}
		cols = append(cols, schema.Column{Name: cd.Name, Kind: k, NotNull: cd.NotNull})
	}
	def, err := schema.NewTable(s.Table, cols, s.Key...)
	if err != nil {
		return err
	}
	_, err = db.CreateTable(def)
	return err
}

func (db *Database) execInsert(s sqlparse.InsertStmt, a *wal.Appender) (int, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	cols := s.Columns
	if len(cols) == 0 {
		cols = def.ColumnNames()
	}
	ev := db.evaluator(nil)
	emptyEnv := plan.NewRowEnv(nil, nil)
	inserted := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return inserted, fmt.Errorf("exec: INSERT arity mismatch: %d columns, %d values", len(cols), len(exprRow))
		}
		row := make(storage.Row, len(def.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for i, colName := range cols {
			ci := def.ColumnIndex(colName)
			if ci < 0 {
				return inserted, fmt.Errorf("exec: table %q has no column %q", def.Name, colName)
			}
			v, err := ev.Eval(exprRow[i], emptyEnv)
			if err != nil {
				return inserted, err
			}
			cv, err := coerceForColumn(v, def.Columns[ci].Kind)
			if err != nil {
				return inserted, fmt.Errorf("exec: column %q: %w", colName, err)
			}
			row[ci] = cv
		}
		if _, err := t.Insert(row); err != nil {
			return inserted, err
		}
		if err := logPut(a, def.Name, row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

// coerceForColumn converts literal values to a column's declared kind
// (e.g. a string literal into MONEY or TIMESTAMP columns).
func coerceForColumn(v value.Value, kind value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	return value.Coerce(v, kind)
}

func (db *Database) execUpdate(s sqlparse.UpdateStmt, a *wal.Appender) (int, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	ev := db.evaluator(map[string]*storage.Table{strings.ToLower(s.Table): t})
	ids, err := db.matchingIDs(t, s.Table, s.Where, ev)
	if err != nil {
		return 0, err
	}
	updated := 0
	for _, id := range ids {
		row, err := t.Get(id)
		if err != nil {
			continue // concurrently deleted
		}
		env := rowEnv(s.Table, def, row)
		newRow := row.Clone()
		for _, a := range s.Set {
			ci := def.ColumnIndex(a.Column)
			if ci < 0 {
				return updated, fmt.Errorf("exec: table %q has no column %q", def.Name, a.Column)
			}
			v, err := ev.Eval(a.Expr, env)
			if err != nil {
				return updated, err
			}
			cv, err := coerceForColumn(v, def.Columns[ci].Kind)
			if err != nil {
				return updated, fmt.Errorf("exec: column %q: %w", a.Column, err)
			}
			newRow[ci] = cv
		}
		if err := t.Update(id, newRow); err != nil {
			return updated, err
		}
		if err := logUpd(a, def.Name, row, newRow); err != nil {
			return updated, err
		}
		updated++
	}
	return updated, nil
}

func (db *Database) execDelete(s sqlparse.DeleteStmt, a *wal.Appender) (int, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	ev := db.evaluator(map[string]*storage.Table{strings.ToLower(s.Table): t})
	ids, err := db.matchingIDs(t, s.Table, s.Where, ev)
	if err != nil {
		return 0, err
	}
	name := t.Def().Name
	deleted := 0
	for _, id := range ids {
		old, err := t.Get(id)
		if err != nil {
			continue // concurrently deleted
		}
		if err := t.Delete(id); err != nil {
			continue
		}
		if err := logDel(a, name, old); err != nil {
			return deleted, err
		}
		deleted++
	}
	return deleted, nil
}

// matchingIDs returns ids of rows satisfying the predicate (all rows when
// nil), ascending: the scan kernel projecting nothing but the row id.
func (db *Database) matchingIDs(t *storage.Table, alias string, where sqlparse.Expr, ev *plan.Evaluator) ([]int64, error) {
	rows, err := db.scanAll(t, alias, where, ev, []sqlparse.Expr{sqlparse.ColumnRef{Column: "_rowid"}})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].Int()
	}
	return ids, nil
}

// scanAll drains a kernel scan for the statement paths that take no
// context (Select, UPDATE, DELETE). project nil keeps the stored columns.
func (db *Database) scanAll(t *storage.Table, alias string, where sqlparse.Expr, ev *plan.Evaluator, project []sqlparse.Expr) ([]storage.Row, error) {
	//lint:ignore ctxleak Exec/Select keep their context-free signatures; their scans were never cancellable
	scan, err := plan.ScanStored(context.TODO(), t, where, plan.ScanSpec{Alias: alias, Project: project, Eval: ev, Limit: -1})
	if err != nil {
		return nil, err
	}
	return storage.CollectRows(scan)
}

// rowEnv builds an evaluation environment exposing both qualified
// (alias.col) and bare names for one row.
func rowEnv(alias string, def *schema.Table, row storage.Row) *plan.RowEnv {
	names := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		names[i] = alias + "." + c.Name
	}
	return plan.NewRowEnv(names, row)
}

// evaluator builds a plan.Evaluator whose text hook resolves against the
// given tables (alias→table): a text predicate becomes the hit set of
// one inverted-index search, computed on first use and kept for the
// evaluator's lifetime.
func (db *Database) evaluator(tables map[string]*storage.Table) *plan.Evaluator {
	hitSets := make(map[string]map[int64]bool)
	return &plan.Evaluator{
		Text: func(tm sqlparse.TextMatch) (map[int64]bool, error) {
			if tables == nil {
				return nil, fmt.Errorf("exec: text predicate outside table scope")
			}
			// Resolve the table owning the column.
			var tbl *storage.Table
			alias := strings.ToLower(tm.Col.Table)
			if alias != "" {
				tbl = tables[alias]
			} else if len(tables) == 1 {
				for a, t := range tables {
					alias, tbl = a, t
				}
			}
			if tbl == nil {
				return nil, fmt.Errorf("exec: cannot resolve text column %s", tm.Col)
			}
			qv, ok := tm.Query.(sqlparse.Literal)
			if !ok || qv.Value.Kind() != value.KindString {
				return nil, fmt.Errorf("exec: text predicate query must be a string literal")
			}
			key := alias + "\x00" + tm.Col.Column + "\x00" + tm.Mode.String() + "\x00" + qv.Value.Str()
			set, ok := hitSets[key]
			if !ok {
				hits, err := tbl.TextSearch(tm.Col.Column, qv.Value.Str(), searchOptions(tm.Mode, db.synonyms))
				if err != nil {
					return nil, err
				}
				set = make(map[int64]bool, len(hits))
				for _, h := range hits {
					set[h.DocID] = true
				}
				hitSets[key] = set
			}
			return set, nil
		},
	}
}

// searchOptions maps a TextMatchMode to ir search options.
func searchOptions(mode sqlparse.TextMatchMode, syn *ir.Synonyms) ir.SearchOptions {
	switch mode {
	case sqlparse.MatchFuzzy:
		return ir.SearchOptions{Fuzzy: true}
	case sqlparse.MatchSynonym:
		return ir.SearchOptions{Synonyms: syn}
	case sqlparse.MatchAll:
		return ir.SearchOptions{Fuzzy: true, Synonyms: syn}
	default:
		return ir.SearchOptions{}
	}
}
