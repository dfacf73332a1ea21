package wrapper

import (
	"context"

	"cohera/internal/schema"
	"cohera/internal/storage"
)

// StreamingSource is the optional streaming face of a connector. Sources
// that can produce rows incrementally implement it; everything else is
// adapted through OpenStream, so the federation programs against streams
// regardless of what a connector can do natively.
type StreamingSource interface {
	Source
	// FetchStream retrieves rows as a pull-based stream. The same filter
	// contract as Fetch applies: pushable filters cut transfer, the
	// caller may re-check. The caller must Close the stream.
	FetchStream(ctx context.Context, filters []Filter) (storage.RowStream, error)
}

// OpenStream fetches from src as a stream, using the native streaming
// path when the source has one and falling back to a materialized fetch
// wrapped as a stream otherwise.
func OpenStream(ctx context.Context, src Source, filters []Filter) (storage.RowStream, error) {
	if ss, ok := src.(StreamingSource); ok {
		return ss.FetchStream(ctx, filters)
	}
	rows, err := src.Fetch(ctx, filters)
	if err != nil {
		return nil, err
	}
	return storage.NewSliceStream(ColumnNames(src.Schema()), rows), nil
}

// ColumnNames lists a schema's column names in declaration order — the
// Columns() value for streams carrying that schema's rows.
func ColumnNames(def *schema.Table) []string {
	out := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		out[i] = c.Name
	}
	return out
}

// FetchStream implements StreamingSource: the gateway runs the scan
// kernel over its live table, so a slow or LIMIT-terminated consumer
// never forces the whole table into memory. Pushed equality filters use
// the table's indexes exactly like Fetch.
func (s *ERPSource) FetchStream(ctx context.Context, filters []Filter) (storage.RowStream, error) {
	st, _, err := s.FetchPushStream(ctx, filters, Pushdown{})
	return st, err
}
