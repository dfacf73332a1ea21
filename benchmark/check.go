package main

import (
	"fmt"
	"strings"

	"cohera/internal/exec"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// sameMultiset compares two results row by row as multisets and
// describes the first difference.
func sameMultiset(got, want []storage.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	counts := make(map[string]int, len(want))
	var buf []byte
	for _, r := range want {
		buf = value.AppendRowKey(buf[:0], r)
		counts[string(buf)]++
	}
	for _, r := range got {
		buf = value.AppendRowKey(buf[:0], r)
		if counts[string(buf)] == 0 {
			return fmt.Errorf("row %v not in the oracle's answer", r)
		}
		counts[string(buf)]--
	}
	return nil
}

// oracle answers SQL from one engine holding the union of all rows
// and remembers each distinct statement's answer: the read beds never
// change, and the workloads reuse statements.
type oracle struct {
	db     *exec.Database
	cache  map[string][]storage.Row
	scoped map[string]*exec.Database // search scope → engine holding just that subset
}

// newOracle loads every generated catalog row and the suppliers table
// into one engine.
func newOracle(shardRows [][]storage.Row) (*oracle, error) {
	db := exec.NewDatabase()
	declareSynonyms(db.Synonyms())
	for _, rows := range shardRows {
		if err := db.LoadRows(workload.CatalogDef(), cloneRows(rows)); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	if err := db.LoadRows(suppliersDef(), supplierRows(supplierCount)); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{db: db, cache: make(map[string][]storage.Row), scoped: make(map[string]*exec.Database)}, nil
}

func (o *oracle) answer(sql string) ([]storage.Row, error) {
	if rows, ok := o.cache[sql]; ok {
		return rows, nil
	}
	db := o.db
	if scope, ok := searchScopeOf(sql); ok {
		var err error
		if db, err = o.scopedDB(scope); err != nil {
			return nil, err
		}
	}
	res, err := db.Exec(sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", sql, err)
	}
	o.cache[sql] = res.Rows
	return res.Rows, nil
}

// searchScopeOf extracts the pushed conjuncts of a search statement —
// everything between WHERE and the text predicate.
func searchScopeOf(sql string) (string, bool) {
	_, where, ok := strings.Cut(sql, " WHERE ")
	if !ok {
		return "", false
	}
	for _, fn := range []string{" AND MATCHES(", " AND FUZZY("} {
		if scope, _, ok := strings.Cut(where, fn); ok {
			return scope, true
		}
	}
	return "", false
}

// scopedDB returns an engine holding only the rows a search scope
// selects, so its text index has the vocabulary the coordinator's
// scratch table has.
func (o *oracle) scopedDB(scope string) (*exec.Database, error) {
	if db, ok := o.scoped[scope]; ok {
		return db, nil
	}
	sub, err := o.db.Exec("SELECT * FROM catalog WHERE " + scope)
	if err != nil {
		return nil, fmt.Errorf("oracle: scope %s: %w", scope, err)
	}
	db := exec.NewDatabase()
	declareSynonyms(db.Synonyms())
	if err := db.LoadRows(workload.CatalogDef(), sub.Rows); err != nil {
		return nil, fmt.Errorf("oracle: scope %s: %w", scope, err)
	}
	o.scoped[scope] = db
	return db, nil
}

// check compares one federated answer with the oracle's.
func (o *oracle) check(sql string, got []storage.Row) error {
	want, err := o.answer(sql)
	if err != nil {
		return err
	}
	if err := sameMultiset(got, want); err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	return nil
}
