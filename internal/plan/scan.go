package plan

import (
	"context"
	"fmt"
	"io"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// ScanSpec configures a TableScan. The zero value emits every stored
// column of every row the cursor visits.
type ScanSpec struct {
	// Alias qualifies the table's columns (and _rowid) for Where and
	// Project; empty leaves them bare.
	Alias string
	// Where keeps only rows it evaluates truthy for (NULL drops the row,
	// per SQL three-valued logic). nil keeps every row.
	Where sqlparse.Expr
	// Project lists the output expressions; nil emits the stored columns.
	Project []sqlparse.Expr
	// Columns names the output columns. nil with a nil Project names the
	// stored columns.
	Columns []string
	// Eval evaluates Where and Project; nil uses a zero Evaluator (no
	// text predicates, builtin scalar functions only).
	Eval *Evaluator
	// Offset skips that many kept rows before emitting.
	Offset int
	// Limit caps emitted rows; negative means unlimited.
	Limit int
	// Group, when set, folds the kept rows into partial rows (see
	// Grouping) instead of emitting them; Project, Columns, Offset and
	// Limit are then ignored.
	Group *Grouping
}

// TableScan is the site-side scan kernel, the one loop behind every
// single-table read a site serves. Opening it binds the predicate and
// the output expressions to column slots; running it walks a
// storage.Cursor a batch at a time, tests each stored row in place under
// the batch's one read latch, and copies out only the survivors, and of
// those only the projected columns. It sees the table as of its opening
// (see storage.Cursor). A grouped scan folds each kept row in place,
// under the same latch, and copies none: it emits the partial rows
// once the cursor is exhausted.
type TableScan struct {
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), polled before every row and batch
	cur    *storage.Cursor
	cols   []string
	where  Pred
	slots  []int   // per output column: the stored column to copy, or -1
	exprs  []Bound // per output column with slots[i] < 0: the expression
	nstore int     // stored columns per row; slots[i] == nstore is the row id
	skip   int
	remain int // rows still allowed out; -1 unlimited
	out    []storage.Row
	pos    int
	more   bool  // the cursor may hold further rows
	err    error // evaluation error (ErrEval) met in the current batch, after out
	fold   *GroupFold
	closed bool
}

// ScanTable opens the kernel over a cursor. Unknown or ambiguous column
// references in Where or Project fail here, with ErrUnknownColumn /
// ErrAmbiguousColumn, as does a text predicate the evaluator cannot
// resolve — before any row is read. The stream honors ctx between
// rows. The caller must Close the returned stream.
func ScanTable(ctx context.Context, cur *storage.Cursor, spec ScanSpec) (*TableScan, error) {
	def := cur.Table().Def()
	sc := NewScope(def, spec.Alias)
	ev := spec.Eval
	if ev == nil {
		ev = &Evaluator{}
	}
	s := &TableScan{
		ctx: ctx, done: ctx.Done(), cur: cur, cols: spec.Columns,
		nstore: len(def.Columns), skip: spec.Offset, remain: spec.Limit,
		more: spec.Limit != 0,
	}
	if s.remain < 0 {
		s.remain = -1
	}
	var err error
	if spec.Where != nil {
		if s.where, err = ev.BindPred(spec.Where, sc); err != nil {
			return nil, err
		}
	}
	if spec.Group != nil {
		if s.fold, err = NewGroupFold(spec.Group, sc); err != nil {
			return nil, err
		}
		s.cols, s.skip, s.remain, s.more = spec.Group.Columns(), 0, -1, true
		return s, nil
	}
	if spec.Project == nil {
		if s.cols == nil {
			s.cols = def.ColumnNames()
		}
		s.slots = make([]int, len(def.Columns))
		for i := range s.slots {
			s.slots[i] = i
		}
		return s, nil
	}
	s.slots = make([]int, len(spec.Project))
	for i, e := range spec.Project {
		if ref, ok := e.(sqlparse.ColumnRef); ok {
			if s.slots[i], err = resolveName(sc.Names, ref); err != nil {
				return nil, err
			}
			continue
		}
		if s.exprs == nil {
			s.exprs = make([]Bound, len(spec.Project))
		}
		s.slots[i] = -1
		if s.exprs[i], err = ev.Bind(e, sc); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ScanStored opens the kernel over a stored table for a single-table
// predicate: over the index access path accessPath chooses when one
// applies, over the whole heap otherwise. spec.Where is replaced by
// what the access path leaves to check. The local engine and a
// published table (wrapper.ERPSource) both read through it, so a
// predicate reaches an index the same way on either.
func ScanStored(ctx context.Context, t *storage.Table, where sqlparse.Expr, spec ScanSpec) (*TableScan, error) {
	ids, usedIndex, residual := accessPath(t, where)
	spec.Where = residual
	if usedIndex {
		return ScanTable(ctx, t.CursorOver(ids), spec)
	}
	return ScanTable(ctx, t.Cursor(), spec)
}

// accessPath chooses an index access path for a single-table predicate.
// It returns (candidateIDs, usedIndex, residualPredicate); usedIndex
// false means full scan. The distinction matters because an index range
// can legitimately match zero rows — a nil candidate list alone would be
// ambiguous.
//
// Every sargable conjunct on the chosen column is intersected into the
// one range the index is asked for, so `a >= x AND a < y` reads the rows
// between x and y rather than everything from x up. A point range is
// preferred to a wider one. The residual keeps every conjunct the index
// lookup does not already guarantee: the ones on other columns, and
// those with an exclusive bound, which the inclusive LookupRange cannot
// honor.
func accessPath(t *storage.Table, where sqlparse.Expr) ([]int64, bool, sqlparse.Expr) {
	conjuncts := Conjuncts(where)
	// The conjuncts an index can serve: sargable, on an indexed column,
	// with bounds of a kind the column's keys can be ordered against.
	def := t.Def()
	ranges := make([]Range, len(conjuncts))
	served := make([]bool, len(conjuncts))
	for i, c := range conjuncts {
		r, ok := Sargable(c)
		if !ok || !t.HasIndex(r.Column) {
			continue
		}
		kind := def.Columns[def.ColumnIndex(r.Column)].Kind
		if (r.Lo.IsNull() || value.Comparable(kind, r.Lo.Kind())) && (r.Hi.IsNull() || value.Comparable(kind, r.Hi.Kind())) {
			ranges[i], served[i] = r, true
		}
	}
	// merged folds every served conjunct on col into one range.
	merged := func(col string) (m Range) {
		for i, r := range ranges {
			switch {
			case !served[i] || r.Column != col:
			case m.Column == "":
				m = r
			default:
				m, _ = m.Intersect(r)
			}
		}
		return m
	}
	best := ""
	for i, r := range ranges {
		if !served[i] {
			continue
		}
		if best == "" {
			best = r.Column
		}
		if merged(r.Column).Point() {
			best = r.Column
			break
		}
	}
	if best == "" {
		return nil, false, where
	}
	rng := merged(best)
	var ids []int64
	if !rng.Empty() {
		var err error
		if ids, err = t.LookupRange(best, rng.Lo, rng.Hi); err != nil {
			return nil, false, where // index vanished; fall back to scan
		}
	}
	residual := make([]sqlparse.Expr, 0, len(conjuncts))
	for i, c := range conjuncts {
		if r := ranges[i]; served[i] && r.Column == best && !r.LoExclusive && !r.HiExclusive && r.Contains(rng) {
			continue
		}
		residual = append(residual, c)
	}
	return ids, true, AndExprs(residual)
}

// Columns implements storage.RowStream.
func (s *TableScan) Columns() []string { return s.cols }

// Next implements storage.RowStream.
func (s *TableScan) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	for {
		select {
		case <-s.done:
			// Cause preserves a typed cancellation (an operator kill via
			// obs.ActiveQueries reports obs.ErrQueryCanceled) where Err
			// flattens everything to context.Canceled.
			return nil, fmt.Errorf("plan: scan cancelled: %w", context.Cause(s.ctx))
		default:
		}
		if s.pos < len(s.out) {
			r := s.out[s.pos]
			s.out[s.pos] = nil
			s.pos++
			return r, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		if !s.more {
			return nil, io.EOF
		}
		s.fill()
	}
}

// fill runs one batch of storage.DefaultBatchRows visited rows:
// everything inside visit happens under the table's read latch.
func (s *TableScan) fill() {
	s.out, s.pos = s.out[:0], 0
	if s.fold != nil {
		s.fillGrouped()
		return
	}
	s.more = s.cur.Next(storage.DefaultBatchRows, func(id int64, row storage.Row) bool {
		if s.where != nil {
			ok, err := s.where(row, id)
			if err != nil {
				s.err = MarkEval(err)
				return false
			}
			if !ok {
				return true
			}
		}
		if s.skip > 0 {
			s.skip--
			return true
		}
		out := make(storage.Row, len(s.slots))
		for i, slot := range s.slots {
			switch {
			case slot == s.nstore:
				out[i] = value.NewInt(id)
			case slot >= 0:
				out[i] = row[slot]
			default:
				v, err := s.exprs[i](row, id)
				if err != nil {
					s.err = MarkEval(err)
					return false
				}
				out[i] = v
			}
		}
		s.out = append(s.out, out)
		if s.remain > 0 {
			s.remain--
		}
		return s.remain != 0
	})
}

// fillGrouped folds one batch into the grouping; after the last batch
// it emits the partial rows.
func (s *TableScan) fillGrouped() {
	s.more = s.cur.Next(storage.DefaultBatchRows, func(id int64, row storage.Row) bool {
		if s.where != nil {
			ok, err := s.where(row, id)
			if err != nil {
				s.err = MarkEval(err)
				return false
			}
			if !ok {
				return true
			}
		}
		if err := s.fold.Add(row); err != nil {
			s.err = MarkEval(err)
			return false
		}
		return true
	})
	if s.err != nil {
		s.more = false
		return
	}
	if !s.more {
		s.out, s.err = s.fold.Rows()
		s.err = MarkEval(s.err)
	}
}

// Close implements storage.RowStream.
func (s *TableScan) Close() error {
	s.closed = true
	s.out = nil
	return nil
}
