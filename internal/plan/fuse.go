package plan

import (
	"context"
	"errors"
	"io"

	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// FuseStream fuses filter, projection, offset, and limit into one
// RowStream decorator: each upstream row is tested, projected, and
// emitted (or dropped) in a single pass with no intermediate batch
// materialization. It evaluates whatever part of a pushed request a
// source declined (wrapper.OpenPushStream), so pushed and unpushed
// plans share one filtering semantics.

// FuseSpec configures a fused stage. The zero value passes rows through
// unchanged.
type FuseSpec struct {
	// Where filters rows: only truthy evaluations pass (NULL drops the
	// row, per SQL three-valued logic). nil keeps every row. Column
	// refs resolve against Cols, once, when the stage is built; one that
	// does not resolve fails the stream's first Next.
	Where sqlparse.Expr
	// Eval evaluates Where; nil uses a zero Evaluator (no text
	// predicates, builtin scalar functions only).
	Eval *Evaluator
	// Cols names the upstream columns for WHERE resolution. nil uses
	// inner.Columns().
	Cols []string
	// Project lists upstream column indexes to keep, in output order.
	// nil keeps all columns. Projection happens after filtering, so
	// Where may reference dropped columns.
	Project []int
	// Offset skips that many filtered rows before emitting.
	Offset int
	// Limit caps emitted rows; negative means unlimited.
	Limit int
	// Stage, when non-nil, receives emitted-row counts and settles
	// Done/Fail/Cut exactly like storage.InstrumentStream.
	Stage *obs.StageStats
}

// FusedStream is the decorator FuseStream returns. Its evaluation
// errors, a WHERE that does not bind included, wrap ErrEval.
type FusedStream struct {
	inner   storage.RowStream
	where   Pred
	bindErr error    // Where did not bind; reported by the first Next
	cols    []string // output column names
	project []int
	skip    int
	remain  int // rows still allowed out; -1 unlimited
	stage   *obs.StageStats
	unrows  int64 // stage rows not yet flushed
	done    bool  // terminal Next already returned (EOF from limit)
	closed  bool
}

// FuseStream wraps inner with spec. The returned stream owns inner:
// closing it closes inner.
func FuseStream(inner storage.RowStream, spec FuseSpec) *FusedStream {
	cols := spec.Cols
	if cols == nil {
		cols = inner.Columns()
	}
	out := cols
	if spec.Project != nil {
		out = make([]string, len(spec.Project))
		for i, idx := range spec.Project {
			out[i] = cols[idx]
		}
	}
	remain := spec.Limit
	if remain < 0 {
		remain = -1
	}
	f := &FusedStream{
		inner: inner, cols: out, project: spec.Project,
		skip: spec.Offset, remain: remain, stage: spec.Stage,
	}
	if spec.Where != nil {
		ev := spec.Eval
		if ev == nil {
			ev = &Evaluator{}
		}
		// Upstream rows carry no identity, so the scope names no RowID.
		f.where, f.bindErr = ev.BindPred(spec.Where, Scope{Names: lowerNames(cols)})
		f.bindErr = MarkEval(f.bindErr)
	}
	return f
}

// Columns implements storage.RowStream.
func (f *FusedStream) Columns() []string { return f.cols }

// Next implements storage.RowStream.
func (f *FusedStream) Next() (storage.Row, error) {
	if f.closed {
		return nil, storage.ErrStreamClosed
	}
	if f.done {
		return nil, io.EOF
	}
	if f.bindErr != nil {
		f.done = true
		f.settle(f.bindErr)
		return nil, f.bindErr
	}
	if f.remain == 0 {
		f.done = true
		f.settle(nil)
		return nil, io.EOF
	}
	for {
		r, err := f.inner.Next()
		if err != nil {
			if err != storage.ErrStreamClosed {
				f.done = true
			}
			f.settle(err)
			return nil, err
		}
		if f.where != nil {
			ok, everr := f.where(r, 0)
			if everr != nil {
				everr = MarkEval(everr)
				f.done = true
				f.settle(everr)
				return nil, everr
			}
			if !ok {
				continue
			}
		}
		if f.skip > 0 {
			f.skip--
			continue
		}
		if f.project != nil {
			out := make(storage.Row, len(f.project))
			for i, idx := range f.project {
				out[i] = r[idx]
			}
			r = out
		}
		if f.remain > 0 {
			f.remain--
		}
		if f.stage != nil {
			f.unrows++
			if f.unrows >= storage.TimingSample {
				f.stage.AddRows(f.unrows)
				f.unrows = 0
			}
		}
		return r, nil
	}
}

// settle flushes pending stage rows and records the terminal outcome.
// err nil or io.EOF is a clean finish; a plain context.Canceled means
// the consumer cut us off; anything else fails the stage.
func (f *FusedStream) settle(err error) {
	if f.stage == nil {
		return
	}
	if f.unrows > 0 {
		f.stage.AddRows(f.unrows)
		f.unrows = 0
	}
	switch {
	case err == nil || err == io.EOF:
		f.stage.Done()
	case err == storage.ErrStreamClosed:
		// Use-after-close: the stage settled at Close already.
	case errors.Is(err, context.Canceled) && !errors.Is(err, obs.ErrQueryCanceled):
		f.stage.Cut()
	default:
		f.stage.Fail(err)
	}
}

// Close implements storage.RowStream.
func (f *FusedStream) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.inner.Close()
	f.settle(nil)
	return err
}
