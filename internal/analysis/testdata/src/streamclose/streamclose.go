// Package streamclose is a coheralint fixture for the streamclose
// analyzer: row streams that leak versus closed or escaping streams.
package streamclose

import (
	"context"

	"cohera/internal/admission"
	"cohera/internal/plan"
	"cohera/internal/storage"
)

func open() storage.RowStream {
	return storage.NewSliceStream([]string{"k"}, nil)
}

var lastCols []string

func leakDrain() {
	st := open() // want `row stream st is never closed`
	lastCols = st.Columns()
	for {
		if _, err := st.Next(); err != nil {
			return
		}
	}
}

func leakEarlyReturn(limit int) int {
	st := open() // want `row stream st is never closed`
	n := 0
	for n < limit {
		if _, err := st.Next(); err != nil {
			break
		}
		n++
	}
	return n
}

func leakConcrete() {
	st := storage.NewSliceStream([]string{"k"}, nil) // want `row stream st is never closed`
	lastCols = st.Columns()
}

func closedDefer() error {
	st := open() // negative: closed on the deferred path
	defer st.Close()
	_, err := st.Next()
	return err
}

func escapesReturn() storage.RowStream {
	st := open() // negative: returned, closing is the caller's contract
	lastCols = st.Columns()
	return st
}

func escapesCollect() ([]storage.Row, error) {
	st := open() // negative: CollectRows takes ownership and closes it
	return storage.CollectRows(st)
}

// The fused σ/π/limit decorator is a RowStream by interface
// satisfaction, not by declared type: the analyzer must catch the
// concrete *plan.FusedStream too.

func leakFused() {
	st := plan.FuseStream(open(), plan.FuseSpec{Limit: -1}) // want `row stream st is never closed`
	lastCols = st.Columns()
	for {
		if _, err := st.Next(); err != nil {
			return
		}
	}
}

func leakFusedEarlyBreak(limit int) int {
	st := plan.FuseStream(open(), plan.FuseSpec{Limit: limit}) // want `row stream st is never closed`
	n := 0
	for {
		if _, err := st.Next(); err != nil {
			break
		}
		n++
	}
	return n
}

func closedFusedDefer() error {
	st := plan.FuseStream(open(), plan.FuseSpec{Limit: -1}) // negative: closed on the deferred path
	defer st.Close()
	_, err := st.Next()
	return err
}

func escapesFusedReturn() storage.RowStream {
	st := plan.FuseStream(open(), plan.FuseSpec{Limit: -1}) // negative: returned, caller owns it
	return st
}

// The scan kernel is the stream every site-side read starts from; it
// arrives beside an error, and the open-time bind may fail.

func leakScan(ctx context.Context, t *storage.Table) error {
	st, err := plan.ScanTable(ctx, t.Cursor(), plan.ScanSpec{Limit: -1}) // want `row stream st is never closed`
	if err != nil {
		return err
	}
	lastCols = st.Columns()
	return nil
}

func closedScanDefer(ctx context.Context, t *storage.Table) error {
	st, err := plan.ScanTable(ctx, t.Cursor(), plan.ScanSpec{Limit: -1}) // negative: closed on the deferred path
	if err != nil {
		return err
	}
	defer st.Close()
	_, err = st.Next()
	return err
}

func escapesScanReturn(ctx context.Context, t *storage.Table) (*plan.TableScan, error) {
	st, err := plan.ScanTable(ctx, t.Cursor(), plan.ScanSpec{Limit: -1}) // negative: returned, caller owns it
	return st, err
}

// The grouped fold drains its inner stream into partial rows; closing
// it closes the inner stream.

func leakFold(g *plan.Grouping) error {
	st, err := plan.NewFoldStream(open(), g) // want `row stream st is never closed`
	if err != nil {
		return err
	}
	lastCols = st.Columns()
	return nil
}

func closedFoldDefer(g *plan.Grouping) error {
	st, err := plan.NewFoldStream(open(), g) // negative: closed on the deferred path
	if err != nil {
		return err
	}
	defer st.Close()
	_, err = st.Next()
	return err
}

func escapesFoldReturn(g *plan.Grouping) (*plan.FoldStream, error) {
	st, err := plan.NewFoldStream(open(), g) // negative: returned, caller owns it
	return st, err
}

// The admission decorator wraps a stream to release its slot when the
// stream settles; leaking it leaks both the stream and the slot.

func leakTracked() {
	st := admission.NewTrackedStream(open(), func() {}) // want `row stream st is never closed`
	lastCols = st.Columns()
}

func closedTrackedDefer() error {
	st := admission.NewTrackedStream(open(), func() {}) // negative: closed on the deferred path
	defer st.Close()
	_, err := st.Next()
	return err
}

func escapesTrackedReturn() storage.RowStream {
	st := admission.NewTrackedStream(open(), func() {}) // negative: returned, caller owns the slot
	return st
}

type holder struct{ st storage.RowStream }

func escapesField(h *holder) {
	st := open() // negative: stored in a field, owner closes later
	h.st = st
}

func escapesComposite() *holder {
	st := open() // negative: handed to the composite literal
	return &holder{st: st}
}
