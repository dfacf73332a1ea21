package storage

import "slices"

// Cursor walks a table in ascending row-id order, one batch of rows per
// read-latch acquisition. It sees the table as of the moment it was
// opened, by id: rows inserted later are not visited, rows deleted
// since are skipped, and a row updated since is seen whole in its
// current version (an update swaps the stored row under the write
// latch). A cursor holds no heap position between batches — only the
// last id it visited — so writers and compaction run freely between
// them. A Cursor is for one goroutine.
type Cursor struct {
	t     *Table
	after int64 // heap walk: every id <= after is behind the cursor
	bound int64 // heap walk: highest id issued at open
	// Candidate walk (CursorOver): only these ids, ascending.
	over bool
	cand []int64
}

// Cursor opens a cursor over the whole heap.
func (t *Table) Cursor() *Cursor {
	t.mu.RLock()
	bound := t.nextID - 1
	t.mu.RUnlock()
	return &Cursor{t: t, bound: bound}
}

// CursorOver opens a cursor over just the given row ids — the
// candidates an index lookup produced. The cursor takes ownership of
// ids and sorts it.
func (t *Table) CursorOver(ids []int64) *Cursor {
	slices.Sort(ids)
	return &Cursor{t: t, over: true, cand: ids}
}

// Table returns the table the cursor walks.
func (c *Cursor) Table() *Table { return c.t }

// Next visits up to max live rows past the cursor under one read-latch
// acquisition and reports whether the walk can continue: false once the
// cursor's rows are exhausted or visit returned false.
//
// visit runs under the latch and is handed the stored row itself. The
// latch rule: it must neither modify nor retain the row (copy what
// survives), and nothing it runs may call back into the table — a read
// latch re-taken behind a waiting writer deadlocks. Anything that needs
// the table (a text-index hit set, an index lookup) is resolved before
// the scan starts.
func (c *Cursor) Next(max int, visit func(id int64, row Row) bool) bool {
	t := c.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	if c.over {
		for len(c.cand) > 0 {
			if n == max {
				return true
			}
			id := c.cand[0]
			c.cand = c.cand[1:]
			pos, ok := t.posLocked(id)
			if !ok {
				continue
			}
			n++
			if !visit(id, t.rows[pos]) {
				return false
			}
		}
		return false
	}
	for i := seekID(t.ids, c.after+1); i < len(t.ids) && t.ids[i] <= c.bound; i++ {
		row := t.rows[i]
		if row == nil {
			continue
		}
		if n == max {
			return true
		}
		n++
		c.after = t.ids[i]
		if !visit(c.after, row) {
			return false
		}
	}
	c.after = c.bound
	return false
}
