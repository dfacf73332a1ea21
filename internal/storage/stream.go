package storage

import (
	"errors"
	"io"
)

// RowStream is the pull-based iterator every streaming layer speaks:
// the local executor produces them over table scans, the remote client
// produces them over framed chunk responses, and the federation merges
// per-fragment streams into one. The contract:
//
//   - Next returns the next row, or (nil, io.EOF) when the stream is
//     exhausted cleanly. Any other error is terminal: the stream is
//     broken and only Close may follow.
//   - A truncated transport MUST surface a non-EOF error from Next —
//     never a silent early EOF (the differential harness enforces
//     this).
//   - Close releases resources (goroutines, sockets, pooled batches).
//     It is idempotent; Next after Close returns ErrStreamClosed.
//   - Rows returned by Next are owned by the caller.
//
// Every RowStream obtained must be closed on all paths; the coheralint
// streamclose analyzer enforces it the way bodyclose does for HTTP
// bodies.
type RowStream interface {
	// Columns names the stream's columns, in row order.
	Columns() []string
	// Next returns the next row, io.EOF at clean end of stream.
	Next() (Row, error)
	// Close releases the stream's resources. Idempotent.
	Close() error
}

// ErrStreamClosed is returned by Next on a stream that was closed —
// reusing a stream after Close is a caller bug, reported loudly rather
// than blocking or returning stale rows.
var ErrStreamClosed = errors.New("storage: row stream used after Close")

// SliceStream adapts a materialized row slice to the RowStream
// interface — the compatibility bridge that lets every consumer speak
// streams while non-streamable plans (joins, aggregation, ordering)
// keep materializing.
type SliceStream struct {
	cols   []string
	rows   []Row
	pos    int
	closed bool
}

// NewSliceStream wraps already-materialized rows as a stream. The
// slice is not copied; the caller must not mutate it afterwards.
func NewSliceStream(cols []string, rows []Row) *SliceStream {
	return &SliceStream{cols: cols, rows: rows}
}

// Columns implements RowStream.
func (s *SliceStream) Columns() []string { return s.cols }

// Next implements RowStream.
func (s *SliceStream) Next() (Row, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements RowStream.
func (s *SliceStream) Close() error {
	s.closed = true
	s.rows = nil
	return nil
}

// CollectRows drains a stream into a slice and closes it, returning
// the rows gathered so far alongside any terminal error. It is the
// materialization bridge used by compatibility paths and tests.
func CollectRows(s RowStream) ([]Row, error) {
	defer s.Close()
	var out []Row
	for {
		r, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// errStream is a stream that fails on first Next — used to defer an
// open-time error into the stream contract where a caller prefers a
// single error path.
type errStream struct {
	cols   []string
	err    error
	closed bool
}

// NewErrStream returns a stream whose Next always reports err.
func NewErrStream(cols []string, err error) RowStream {
	return &errStream{cols: cols, err: err}
}

func (s *errStream) Columns() []string { return s.cols }

func (s *errStream) Next() (Row, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	return nil, s.err
}

func (s *errStream) Close() error {
	s.closed = true
	return nil
}
