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
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Filter is one remote predicate: column = value. Sources that can apply
// filters remotely advertise it in their capabilities.
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

// Source is a remote content provider. Fetch pulls rows matching the
// given filters; a source ignores filters it did not advertise (the
// caller re-checks), but should apply the ones it can to cut transfer.
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

// applyFilters post-filters rows by the equality filters — used by
// sources without remote filtering.
func applyFilters(def *schema.Table, rows []storage.Row, filters []Filter) []storage.Row {
	if len(filters) == 0 {
		return rows
	}
	out := rows[:0]
	for _, r := range rows {
		if matchesFilters(def, r, filters) {
			out = append(out, r)
		}
	}
	return out
}

// matchesFilters reports whether a row passes every equality filter;
// filters on columns the schema lacks are ignored.
func matchesFilters(def *schema.Table, r storage.Row, filters []Filter) bool {
	for _, f := range filters {
		ci := def.ColumnIndex(f.Column)
		if ci < 0 {
			continue
		}
		c, err := r[ci].Compare(f.Value)
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}
