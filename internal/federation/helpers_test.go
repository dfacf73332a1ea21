package federation

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// fragPred aliases the fragment predicate expression type for tests.
type fragPred = sqlparse.Expr

// parseTestExpr parses a predicate for test fixtures.
func parseTestExpr(src string) (sqlparse.Expr, error) {
	return sqlparse.ParseExpr(src)
}

// subQuery runs one site subquery through SubQueryStream and drains it.
// The drain's Close settles the site's breaker, so breaker assertions
// see one outcome per call.
func subQuery(ctx context.Context, s *Site, table string, where sqlparse.Expr, cols []string) ([]storage.Row, error) {
	st, err := s.SubQueryStream(ctx, table, where, cols, -1)
	if err != nil {
		return nil, err
	}
	return storage.CollectRows(st)
}

// cappedSource fronts a push-capable source with a weaker capability
// record: a capability-limited member. wrapper.OpenPushStream sends it
// only what the record advertises, so the source applies exactly that
// and the site in front of it evaluates the rest. shipped counts the
// rows the source delivered, before the site's evaluation.
type cappedSource struct {
	wrapper.PushStreamingSource
	mu      sync.Mutex
	caps    plan.PushCaps
	shipped atomic.Int64
}

func (s *cappedSource) Capabilities() wrapper.Capabilities {
	c := s.PushStreamingSource.Capabilities()
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Push = s.caps
	return c
}

func (s *cappedSource) setCaps(c plan.PushCaps) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.caps = c
}

func (s *cappedSource) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	st, applied, err := s.PushStreamingSource.FetchPushStream(ctx, filters, push)
	if err != nil {
		return nil, applied, err
	}
	return &shippedStream{RowStream: st, n: &s.shipped}, applied, nil
}

// shippedStream counts the rows it delivers into n.
type shippedStream struct {
	storage.RowStream
	n *atomic.Int64
}

func (s *shippedStream) Next() (storage.Row, error) {
	r, err := s.RowStream.Next()
	if err == nil {
		s.n.Add(1)
	}
	return r, err
}

// capStored makes site s read its stored table through a gateway over
// that same table advertising caps; LoadFragment and DML still write
// the table.
func capStored(t testing.TB, s *Site, table string, caps plan.PushCaps) *cappedSource {
	t.Helper()
	tbl, err := s.DB().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	src := &cappedSource{PushStreamingSource: wrapper.NewERPSource(table, tbl), caps: caps}
	s.AddSource(src)
	return src
}

// shippedBy sums the rows the sources delivered.
func shippedBy(srcs []*cappedSource) int64 {
	var n int64
	for _, s := range srcs {
		n += s.shipped.Load()
	}
	return n
}
