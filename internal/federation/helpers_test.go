package federation

import (
	"context"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
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
