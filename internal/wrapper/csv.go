package wrapper

import (
	"context"
	"encoding/csv"
	"fmt"
	"strings"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// CSVSource wraps a delimited-text feed — the simplest arms-length supplier
// relationship: the owner periodically exports a file or serves it over
// HTTP. Field mappings bind header names to schema columns.
type CSVSource struct {
	name     string
	def      *schema.Table
	fetch    Fetcher
	url      string
	mappings []FieldMapping
	comma    rune
	volatile bool
}

// NewCSVSource builds a CSV wrapper. mappings may be nil, in which case
// headers are matched to schema columns by (case-insensitive) name.
func NewCSVSource(name string, def *schema.Table, fetch Fetcher, url string, mappings []FieldMapping) *CSVSource {
	return &CSVSource{
		name: name, def: def, fetch: fetch, url: url,
		mappings: mappings, comma: ',',
	}
}

// SetComma overrides the delimiter (e.g. '\t' or ';' for European feeds).
func (s *CSVSource) SetComma(c rune) { s.comma = c }

// SetVolatile marks the feed as volatile.
func (s *CSVSource) SetVolatile(v bool) { s.volatile = v }

// Name implements Source.
func (s *CSVSource) Name() string { return s.name }

// Schema implements Source.
func (s *CSVSource) Schema() *schema.Table { return s.def }

// Capabilities implements Source. CSV feeds cannot filter remotely.
func (s *CSVSource) Capabilities() Capabilities {
	return Capabilities{Volatile: s.volatile}
}

// Fetch implements Source: it downloads the document, parses rows, maps
// fields and applies the filters locally.
func (s *CSVSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	body, err := s.fetch.Get(ctx, s.url)
	if err != nil {
		return nil, err
	}
	r := csv.NewReader(strings.NewReader(body))
	r.Comma = s.comma
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("wrapper: csv %s: %w", s.name, err)
	}
	if len(records) == 0 {
		return nil, nil
	}
	header := records[0]
	colFor := make([]int, len(header)) // header index → schema ordinal (-1 skip)
	for i := range colFor {
		colFor[i] = -1
	}
	if len(s.mappings) == 0 {
		for i, h := range header {
			colFor[i] = s.def.ColumnIndex(strings.TrimSpace(h))
		}
	} else {
		byHeader := make(map[string]string, len(s.mappings))
		for _, m := range s.mappings {
			byHeader[strings.ToLower(m.From)] = m.Column
		}
		for i, h := range header {
			if col, ok := byHeader[strings.ToLower(strings.TrimSpace(h))]; ok {
				ci := s.def.ColumnIndex(col)
				if ci < 0 {
					return nil, fmt.Errorf("wrapper: csv %s maps to unknown column %q", s.name, col)
				}
				colFor[i] = ci
			}
		}
	}
	var rows []storage.Row
	for lineNo, rec := range records[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make(storage.Row, len(s.def.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for i, cell := range rec {
			if i >= len(colFor) || colFor[i] < 0 {
				continue
			}
			ci := colFor[i]
			v, err := value.Parse(s.def.Columns[ci].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("wrapper: csv %s line %d: %w", s.name, lineNo+2, err)
			}
			row[ci] = v
		}
		rows = append(rows, row)
	}
	return applyFilters(s.def, rows, filters)
}
