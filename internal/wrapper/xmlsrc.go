package wrapper

import (
	"context"
	"fmt"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/xmlq"
)

// XMLSource wraps an XML feed: a row XPath selects record nodes and field
// mappings hold relative XPaths. As the paper notes, XML "ameliorates the
// problem of writing wrappers" — mapping is declarative, no induction
// needed.
type XMLSource struct {
	name     string
	def      *schema.Table
	fetch    Fetcher
	url      string
	rowPath  string
	mappings []FieldMapping
	volatile bool
}

// NewXMLSource builds an XML wrapper. rowPath selects record nodes;
// each mapping's From is an XPath relative to a record node.
func NewXMLSource(name string, def *schema.Table, fetch Fetcher, url, rowPath string, mappings []FieldMapping) *XMLSource {
	return &XMLSource{
		name: name, def: def, fetch: fetch, url: url,
		rowPath: rowPath, mappings: mappings,
	}
}

// SetVolatile marks the feed as volatile.
func (s *XMLSource) SetVolatile(v bool) { s.volatile = v }

// Name implements Source.
func (s *XMLSource) Name() string { return s.name }

// Schema implements Source.
func (s *XMLSource) Schema() *schema.Table { return s.def }

// Capabilities implements Source.
func (s *XMLSource) Capabilities() Capabilities {
	return Capabilities{Volatile: s.volatile}
}

// Fetch implements Source.
func (s *XMLSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	body, err := s.fetch.Get(ctx, s.url)
	if err != nil {
		return nil, err
	}
	doc, err := xmlq.ParseXMLString(body)
	if err != nil {
		return nil, fmt.Errorf("wrapper: xml %s: %w", s.name, err)
	}
	records, err := xmlq.XPath(doc, s.rowPath)
	if err != nil {
		return nil, fmt.Errorf("wrapper: xml %s row path: %w", s.name, err)
	}
	var rows []storage.Row
	for _, rec := range records {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make(storage.Row, len(s.def.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for _, m := range s.mappings {
			ci := s.def.ColumnIndex(m.Column)
			if ci < 0 {
				return nil, fmt.Errorf("wrapper: xml %s maps unknown column %q", s.name, m.Column)
			}
			raw, err := xmlq.XPathString(rec, m.From)
			if err != nil {
				return nil, fmt.Errorf("wrapper: xml %s field %q: %w", s.name, m.Column, err)
			}
			v, err := value.Parse(s.def.Columns[ci].Kind, raw)
			if err != nil {
				return nil, fmt.Errorf("wrapper: xml %s field %q: %w", s.name, m.Column, err)
			}
			row[ci] = v
		}
		rows = append(rows, row)
	}
	return applyFilters(s.def, rows, filters)
}
