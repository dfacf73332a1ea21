package storage

import (
	"fmt"
	"sync"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/value"
)

// Row is a stored tuple: values in schema column order.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ErrDuplicateKey is returned on inserting a row whose primary key exists.
var ErrDuplicateKey = fmt.Errorf("storage: duplicate primary key")

// ErrNoRow is returned for operations on a missing row id.
var ErrNoRow = fmt.Errorf("storage: no such row")

// ErrNoIndex is returned when an index lookup names an unindexed column.
var ErrNoIndex = fmt.Errorf("storage: no index on column")

// Table is a heap of rows with secondary indexes. All methods are safe for
// concurrent use.
//
// The heap is ordered: ids[i] is the row id of rows[i] and ids ascend,
// which costs nothing to maintain because ids are issued monotonically
// and an insert appends. A delete leaves a nil tombstone in rows that
// compaction squeezes out once tombstones outnumber live rows, so a scan
// (see Cursor) neither collects nor sorts ids. Stored rows are immutable:
// an update swaps in a new Row, it never writes into the old one.
type Table struct {
	def     *schema.Table
	keyCols []int // ordinals of the primary key's columns

	mu      sync.RWMutex
	ids     []int64 // ascending; parallel to rows
	rows    []Row   // nil = deleted, awaiting compaction
	dead    int     // tombstones in rows
	nextID  int64
	pk      map[string]int64           // encoded key → row id (when schema has a key)
	btrees  map[int]*BTree             // column ordinal → ordered index
	hashes  map[int]map[string][]int64 // column ordinal → hash index
	texts   map[int]*ir.Index          // column ordinal → inverted index
	version uint64                     // bumped on every mutation (staleness tracking)
	digest  uint64                     // XOR of RowHash over stored rows (see digest.go)
}

// NewTable creates an empty table for the given schema. Columns marked
// FullText get inverted indexes automatically.
func NewTable(def *schema.Table) *Table {
	t := &Table{
		def:    def,
		nextID: 1,
		btrees: make(map[int]*BTree),
		hashes: make(map[int]map[string][]int64),
		texts:  make(map[int]*ir.Index),
	}
	if len(def.Key) > 0 {
		t.pk = make(map[string]int64)
		t.keyCols = def.KeyIndexes()
	}
	for i, c := range def.Columns {
		if c.FullText {
			t.texts[i] = ir.NewIndex()
		}
	}
	return t
}

// Def returns the table's schema.
func (t *Table) Def() *schema.Table { return t.def }

// Version returns a counter bumped by every mutation. The materialized
// view layer compares versions to detect staleness.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows) - t.dead
}

// posLocked returns the heap position of a live row id; the caller holds
// t.mu. Until a compaction has squeezed out an earlier tombstone a row
// sits exactly id-ids[0] places in; after one it can only have moved
// left, so the guess also bounds the binary search.
func (t *Table) posLocked(id int64) (int, bool) {
	if len(t.ids) == 0 || id < t.ids[0] {
		return 0, false
	}
	hi := len(t.ids) - 1
	if guess := id - t.ids[0]; guess < int64(hi) {
		hi = int(guess)
	}
	pos := hi
	if t.ids[pos] != id {
		pos = seekID(t.ids[:hi], id)
		if pos == hi || t.ids[pos] != id {
			return 0, false
		}
	}
	return pos, t.rows[pos] != nil
}

// seekID returns the first position in ascending ids holding a value
// >= id (len(ids) when none does).
func seekID(ids []int64, id int64) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendLocked stores a new row at the heap's tail under a fresh id.
func (t *Table) appendLocked(stored Row) int64 {
	id := t.nextID
	t.nextID++
	t.ids = append(t.ids, id)
	t.rows = append(t.rows, stored)
	t.reindexLocked(id, nil, stored)
	t.version++
	return id
}

// replaceLocked swaps the stored row at heap position pos for a new one
// under the same id; the caller holds t.mu and has settled the pk map.
func (t *Table) replaceLocked(pos int, stored Row) {
	t.reindexLocked(t.ids[pos], t.rows[pos], stored)
	t.rows[pos] = stored
	t.version++
}

// minCompact keeps small tables from compacting on every other delete.
const minCompact = 64

// compactLocked squeezes tombstones out of the heap in place. Safe
// against open cursors: they hold no position, only the last id seen.
func (t *Table) compactLocked() {
	n := 0
	for i, row := range t.rows {
		if row != nil {
			t.ids[n], t.rows[n] = t.ids[i], row
			n++
		}
	}
	for i := n; i < len(t.rows); i++ {
		t.rows[i] = nil
	}
	t.ids, t.rows, t.dead = t.ids[:n], t.rows[:n], 0
}

// CreateIndex builds an ordered (B+tree) index on the named column,
// backfilling existing rows.
func (t *Table) CreateIndex(column string) error {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.btrees[ci]; ok {
		return nil
	}
	bt := NewBTree()
	for i, row := range t.rows {
		if row != nil && !row[ci].IsNull() {
			bt.Insert(row[ci], t.ids[i])
		}
	}
	t.btrees[ci] = bt
	return nil
}

// CreateHashIndex builds an equality-only hash index on the named column.
func (t *Table) CreateHashIndex(column string) error {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.hashes[ci]; ok {
		return nil
	}
	h := make(map[string][]int64)
	for i, row := range t.rows {
		if row != nil && !row[ci].IsNull() {
			k := encodeValue(row[ci])
			h[k] = append(h[k], t.ids[i])
		}
	}
	t.hashes[ci] = h
	return nil
}

// HasIndex reports whether column has an ordered index.
func (t *Table) HasIndex(column string) bool {
	ci := t.def.ColumnIndex(column)
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.btrees[ci]
	return ok
}

// HasHashIndex reports whether column has a hash index.
func (t *Table) HasHashIndex(column string) bool {
	ci := t.def.ColumnIndex(column)
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.hashes[ci]
	return ok
}

// encodeValue produces a stable map key for a value (kind-tagged).
func encodeValue(v value.Value) string {
	return value.Key(v)
}

func (t *Table) encodeKey(row Row) string {
	buf := make([]byte, 0, 32)
	for _, ki := range t.keyCols {
		buf = value.AppendKey(buf, row[ki])
		buf = append(buf, 0)
	}
	return string(buf)
}

// Insert validates and stores a row, returning its row id.
func (t *Table) Insert(row Row) (int64, error) {
	if err := t.def.Validate(row); err != nil {
		return 0, err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		k := t.encodeKey(stored)
		if _, exists := t.pk[k]; exists {
			return 0, fmt.Errorf("%w: table %q key %v", ErrDuplicateKey, t.def.Name, k)
		}
		t.pk[k] = t.nextID
	}
	return t.appendLocked(stored), nil
}

// Upsert inserts the row or, when the primary key already exists, replaces
// the existing row in place. Tables without a key always insert.
func (t *Table) Upsert(row Row) (int64, error) {
	if err := t.def.Validate(row); err != nil {
		return 0, err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		k := t.encodeKey(stored)
		if id, exists := t.pk[k]; exists {
			pos, _ := t.posLocked(id)
			t.replaceLocked(pos, stored)
			return id, nil
		}
		t.pk[k] = t.nextID
	}
	return t.appendLocked(stored), nil
}

// reindexLocked moves row id from one stored version to the next in the
// content digest and the secondary indexes; the caller holds t.mu. A
// nil from is an insert and a nil to a delete. Every mutation flows
// through here, and XOR is self-inverse, so the digest tracks the live
// row set exactly.
//
// An index moves only when its column's encoded value (value.Key)
// changed, so `SET qty = …` leaves a B-tree on sku and the inverted
// index on name alone. Text removal re-analyses the old cell: stored
// rows are immutable, so from holds exactly the text that was indexed,
// and the removal costs that document's terms, not the vocabulary.
func (t *Table) reindexLocked(id int64, from, to Row) {
	if from != nil {
		t.digest ^= RowHash(from)
	}
	if to != nil {
		t.digest ^= RowHash(to)
	}
	for ci, bt := range t.btrees {
		if o, n, moved := cellMove(from, to, ci); moved {
			if !o.IsNull() {
				bt.Delete(o, id)
			}
			if !n.IsNull() {
				bt.Insert(n, id)
			}
		}
	}
	for ci, h := range t.hashes {
		if o, n, moved := cellMove(from, to, ci); moved {
			if !o.IsNull() {
				hashRemove(h, encodeValue(o), id)
			}
			if !n.IsNull() {
				k := encodeValue(n)
				h[k] = append(h[k], id)
			}
		}
	}
	for ci, ix := range t.texts {
		if o, n, moved := cellMove(from, to, ci); moved {
			if o.Kind() == value.KindString {
				ix.Remove(id, o.Str())
			}
			if n.Kind() == value.KindString {
				ix.Add(id, n.Str())
			}
		}
	}
}

// cellMove returns column ci of the from and to rows (NULL for a nil
// row) and whether an index on it must move: whether value.Key of the
// two differs, which Equal answers without building the keys.
func cellMove(from, to Row, ci int) (o, n value.Value, moved bool) {
	o, n = value.Null, value.Null
	if from != nil {
		o = from[ci]
	}
	if to != nil {
		n = to[ci]
	}
	return o, n, !o.Equal(n)
}

// hashRemove drops id from hash bucket k, and the bucket once empty.
func hashRemove(h map[string][]int64, k string, id int64) {
	ids := h[k]
	for j, r := range ids {
		if r == id {
			ids = append(ids[:j], ids[j+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(h, k)
	} else {
		h[k] = ids
	}
}

// Truncate removes every row, resetting indexes. Used by materialized
// view refresh to replace the view's contents atomically under the
// table's lock.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids, t.rows, t.dead = nil, nil, 0
	if t.pk != nil {
		t.pk = make(map[string]int64)
	}
	for ci := range t.btrees {
		t.btrees[ci] = NewBTree()
	}
	for ci := range t.hashes {
		t.hashes[ci] = make(map[string][]int64)
	}
	for ci := range t.texts {
		t.texts[ci] = ir.NewIndex()
	}
	t.digest = 0
	t.version++
}

// Get returns a copy of the row with the given id.
func (t *Table) Get(id int64) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pos, ok := t.posLocked(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	return t.rows[pos].Clone(), nil
}

// Update replaces the row with the given id after validation.
func (t *Table) Update(id int64, row Row) error {
	if err := t.def.Validate(row); err != nil {
		return err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	pos, ok := t.posLocked(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	if old := t.rows[pos]; t.pk != nil && t.keyMoved(old, stored) {
		oldK, newK := t.encodeKey(old), t.encodeKey(stored)
		if _, exists := t.pk[newK]; exists {
			return fmt.Errorf("%w: table %q", ErrDuplicateKey, t.def.Name)
		}
		delete(t.pk, oldK)
		t.pk[newK] = id
	}
	t.replaceLocked(pos, stored)
	return nil
}

// keyMoved reports whether the primary key's encoding differs
// between two versions of a row.
func (t *Table) keyMoved(from, to Row) bool {
	for _, ki := range t.keyCols {
		if _, _, moved := cellMove(from, to, ki); moved {
			return true
		}
	}
	return false
}

// Delete removes the row with the given id.
func (t *Table) Delete(id int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos, ok := t.posLocked(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	row := t.rows[pos]
	if t.pk != nil {
		delete(t.pk, t.encodeKey(row))
	}
	t.reindexLocked(id, row, nil)
	t.rows[pos] = nil
	t.dead++
	if t.dead >= minCompact && t.dead > len(t.rows)/2 {
		t.compactLocked()
	}
	t.version++
	return nil
}

// Scan visits a copy of every row in ascending id order; rows inserted
// after the call began are not visited. The visitor returns false to
// stop early, and — since it runs outside the latch, on copies — may
// call back into the table.
func (t *Table) Scan(visit func(id int64, row Row) bool) {
	c := t.Cursor()
	ids := make([]int64, 0, DefaultBatchRows)
	rows := make([]Row, 0, DefaultBatchRows)
	for more := true; more; {
		ids, rows = ids[:0], rows[:0]
		more = c.Next(DefaultBatchRows, func(id int64, row Row) bool {
			ids, rows = append(ids, id), append(rows, row.Clone())
			return true
		})
		for i, row := range rows {
			if !visit(ids[i], row) {
				return
			}
		}
	}
}

// LookupEqual returns ids of rows whose column equals v, using the hash or
// B+tree index on that column.
func (t *Table) LookupEqual(column string, v value.Value) ([]int64, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h, ok := t.hashes[ci]; ok {
		ids := h[encodeValue(v)]
		out := make([]int64, len(ids))
		copy(out, ids)
		return out, nil
	}
	if bt, ok := t.btrees[ci]; ok {
		return bt.Lookup(v), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoIndex, column)
}

// LookupRange returns ids of rows with lo <= column <= hi in key order,
// using the ordered index. NULL bounds are open.
func (t *Table) LookupRange(column string, lo, hi value.Value) ([]int64, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	bt, ok := t.btrees[ci]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoIndex, column)
	}
	var out []int64
	bt.Range(lo, hi, func(_ value.Value, rows []int64) bool {
		out = append(out, rows...)
		return true
	})
	return out, nil
}

// TextSearch ranks rows of a full-text column against the query. See
// ir.SearchOptions for synonym and fuzzy expansion.
func (t *Table) TextSearch(column, query string, opts ir.SearchOptions) ([]ir.Hit, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	ix, ok := t.texts[ci]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (not FullText)", ErrNoIndex, column)
	}
	return ix.Search(query, opts), nil
}

// TextIndex exposes the inverted index of a full-text column, or nil.
func (t *Table) TextIndex(column string) *ir.Index {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.texts[ci]
}

// GetByKey fetches a row by primary key values (in key order).
func (t *Table) GetByKey(key ...value.Value) (int64, Row, error) {
	if t.pk == nil {
		return 0, nil, fmt.Errorf("storage: table %q has no primary key", t.def.Name)
	}
	kis := t.keyCols
	if len(key) != len(kis) {
		return 0, nil, fmt.Errorf("storage: table %q key arity %d, got %d", t.def.Name, len(kis), len(key))
	}
	probe := make(Row, len(t.def.Columns))
	for i, ki := range kis {
		probe[ki] = key[i]
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.pk[t.encodeKey(probe)]
	if !ok {
		return 0, nil, fmt.Errorf("%w: key %v", ErrNoRow, key)
	}
	pos, _ := t.posLocked(id)
	return id, t.rows[pos].Clone(), nil
}
