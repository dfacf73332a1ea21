// Package wrapper implements the source connectors of the content
// integration system (paper, Characteristic 1): content owners have
// varying relationships with the integrator, from direct ERP access to
// arms-length web scraping, so the package provides
//
//   - an HTTP session agent handling cookies and form logins (the role of
//     Cohera Connect's web browser agent),
//   - CSV and XML wrappers with declarative field mappings,
//   - an HTML scraper whose extraction template can be induced from a
//     labeled example page ("training", per Cohera Connect's GUI), and
//   - a simulated ERP gateway with predicate pushdown, standing in for
//     direct access to systems like SAP.
//
// Every connector implements Source, the uniform fetch-on-demand
// interface the federation layer consumes.
package wrapper

import (
	"context"
	"fmt"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Filter is one remote predicate, the conjunct column = value under
// SQL's rules for =: an INT and a TEXT that parses as the same number
// are equal, and kinds that cannot be compared (MONEY against INT, or
// two currencies) fail the fetch with an evaluation error. A NULL
// value means column IS NULL. A filter on a column the schema lacks is
// dropped. Every source gives a filter this meaning: AndFilters turns
// filters into the conjuncts a push-capable source evaluates, and
// plain connectors evaluate the same conjuncts over the rows they
// fetch. Sources that can apply filters remotely advertise their
// columns in PushdownEq.
type Filter struct {
	Column string
	Value  value.Value
}

// Capabilities describes what a source can do, letting the optimizer
// decide what to push down versus post-filter.
type Capabilities struct {
	// PushdownEq lists columns the source can filter by equality — the
	// legacy single-column protocol, still honored by every source.
	PushdownEq []string
	// Push describes the capability-aware σ/π/limit support consumed by
	// OpenPushStream. The zero value pushes nothing.
	Push plan.PushCaps
	// Volatile marks sources whose data changes between fetches, which
	// rules out long-lived caching (availability, prices).
	Volatile bool
}

// CanPush reports whether the source accepts an equality filter on col.
func (c Capabilities) CanPush(col string) bool {
	for _, p := range c.PushdownEq {
		if p == col {
			return true
		}
	}
	return false
}

// Source is a remote content provider. Fetch pulls the rows matching
// the given filters (see Filter). OpenPushStream evaluates the whole
// request over the rows a source that is not push-capable returns, so
// such a source may ignore a filter, but should apply the ones it can
// to cut transfer.
type Source interface {
	// Name identifies the source (unique within an integrator).
	Name() string
	// Schema describes the rows the source produces.
	Schema() *schema.Table
	// Capabilities describes pushdown support and volatility.
	Capabilities() Capabilities
	// Fetch retrieves rows. Implementations must honor ctx cancellation.
	Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error)
}

// FieldMapping declares how one output column is produced from the raw
// source: by position, by source-field name, or by path, depending on the
// connector.
type FieldMapping struct {
	// Column is the output column name (must exist in the schema).
	Column string
	// From identifies the source field: a CSV header, an XPath, or a
	// trained extraction slot, depending on the wrapper kind.
	From string
}

// parseInto converts raw text into the column's declared kind, mapping
// parse failures to descriptive errors.
func parseInto(def *schema.Table, column, raw string) (value.Value, error) {
	c, ok := def.Column(column)
	if !ok {
		return value.Null, fmt.Errorf("wrapper: schema %q has no column %q", def.Name, column)
	}
	v, err := value.Parse(c.Kind, raw)
	if err != nil {
		return value.Null, fmt.Errorf("wrapper: column %q: %w", column, err)
	}
	return v, nil
}

// AndFilters returns where with each filter ANDed in as a conjunct
// (see Filter): column = literal, or column IS NULL for a NULL value,
// on the schema's spelling of the column. Filters on columns def lacks
// are dropped. The conjuncts are built as expressions, never as SQL
// text, so every value keeps its exact kind and precision.
func AndFilters(def *schema.Table, where sqlparse.Expr, filters []Filter) sqlparse.Expr {
	conj := make([]sqlparse.Expr, 0, len(filters)+1)
	for _, f := range filters {
		ci := def.ColumnIndex(f.Column)
		if ci < 0 {
			continue
		}
		col := sqlparse.ColumnRef{Column: def.Columns[ci].Name}
		if f.Value.IsNull() {
			conj = append(conj, sqlparse.IsNull{Inner: col})
			continue
		}
		conj = append(conj, sqlparse.Binary{Op: sqlparse.OpEq, Left: col, Right: sqlparse.Literal{Value: f.Value}})
	}
	if where != nil {
		conj = append(conj, where)
	}
	return plan.AndExprs(conj)
}

// applyFilters keeps the rows every filter holds for — used by sources
// without remote filtering.
func applyFilters(def *schema.Table, rows []storage.Row, filters []Filter) ([]storage.Row, error) {
	where := AndFilters(def, nil, filters)
	if where == nil {
		return rows, nil
	}
	return storage.CollectRows(plan.FuseStream(storage.NewSliceStream(def.ColumnNames(), rows), plan.FuseSpec{Where: where, Limit: -1}))
}
