package wrapper

import (
	"context"
	"fmt"
	"regexp"
	"strings"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// LRTemplate is a left-right extraction wrapper over semi-structured HTML
// in the style of Kushmerick's LR wrapper class: each field is delimited
// by a left and right context string, and a record is one in-order pass
// through all fields. Templates are either written by hand or induced
// from a labeled example page (Induce) — the "training" workflow of
// Cohera Connect.
type LRTemplate struct {
	// Fields in the order they appear within a record.
	Fields []LRField
}

// LRField is one field's delimiters.
type LRField struct {
	// Name labels the extraction slot (referenced by FieldMapping.From).
	Name string
	// Left and Right delimit the field's text.
	Left, Right string
}

// Extract applies the template to a page, returning one map per record.
func (t LRTemplate) Extract(page string) ([]map[string]string, error) {
	if len(t.Fields) == 0 {
		return nil, fmt.Errorf("wrapper: empty LR template")
	}
	var out []map[string]string
	pos := 0
	for {
		rec := make(map[string]string, len(t.Fields))
		start := pos
		ok := true
		for _, f := range t.Fields {
			li := strings.Index(page[start:], f.Left)
			if li < 0 {
				ok = false
				break
			}
			vs := start + li + len(f.Left)
			ri := strings.Index(page[vs:], f.Right)
			if ri < 0 {
				ok = false
				break
			}
			rec[f.Name] = strings.TrimSpace(stripTags(page[vs : vs+ri]))
			// Advance to the start of the right delimiter without
			// consuming it: adjacent fields' delimiters typically overlap
			// (…</td><td…), and the right context doubles as the next
			// field's left context.
			start = vs + ri
		}
		if !ok {
			break
		}
		out = append(out, rec)
		pos = start
	}
	return out, nil
}

// stripTags removes any residual markup inside an extracted span.
var tagRe = regexp.MustCompile(`<[^>]*>`)

func stripTags(s string) string {
	return tagRe.ReplaceAllString(s, "")
}

// Example is one labeled record on a training page: the exact text of
// each field value, in record order.
type Example struct {
	Values []string
}

// Induce learns an LRTemplate from a page and two or more labeled example
// records. For each field it takes the longest common suffix of the text
// preceding each labeled instance as the left delimiter and the longest
// common prefix of the following text as the right delimiter. This is the
// semi-automatic scheme the paper calls for: the induced template should
// be reviewed (and is trivially editable) by the content manager.
func Induce(page string, fieldNames []string, examples []Example) (LRTemplate, error) {
	if len(examples) < 2 {
		return LRTemplate{}, fmt.Errorf("wrapper: induction needs at least 2 examples, got %d", len(examples))
	}
	nf := len(fieldNames)
	for i, ex := range examples {
		if len(ex.Values) != nf {
			return LRTemplate{}, fmt.Errorf("wrapper: example %d has %d values, want %d", i, len(ex.Values), nf)
		}
	}
	const contextLen = 64
	// Locate each example's field instances in order. The left context of
	// a field is clamped at the end of the previous field's value:
	// otherwise, when adjacent values share a suffix (every price ending
	// " FRF"), the induced left delimiter would absorb value text and the
	// extractor could never match it in sequence.
	befores := make([][]string, nf) // per field, per example: preceding context
	afters := make([][]string, nf)
	pos := 0
	for ei, ex := range examples {
		for fi, v := range ex.Values {
			idx := strings.Index(page[pos:], v)
			if idx < 0 {
				return LRTemplate{}, fmt.Errorf("wrapper: example %d field %q not found in page order", ei, fieldNames[fi])
			}
			abs := pos + idx
			lo := abs - contextLen
			if lo < pos {
				lo = pos // never reach into the previous value
			}
			if lo < 0 {
				lo = 0
			}
			hi := abs + len(v) + contextLen
			if hi > len(page) {
				hi = len(page)
			}
			befores[fi] = append(befores[fi], page[lo:abs])
			afters[fi] = append(afters[fi], page[abs+len(v):hi])
			pos = abs + len(v)
		}
	}
	tpl := LRTemplate{}
	for fi, name := range fieldNames {
		left := commonSuffix(befores[fi])
		right := commonPrefix(afters[fi])
		if left == "" || right == "" {
			return LRTemplate{}, fmt.Errorf("wrapper: cannot induce delimiters for field %q (no common context)", name)
		}
		// Per Kushmerick's LR class, the right delimiter should be the
		// shortest prefix of the common following context that cannot
		// occur inside a field value: shorter delimiters generalize to
		// records beyond the labeled ones (e.g. the page's final record,
		// whose following context differs).
		var values []string
		for _, ex := range examples {
			values = append(values, ex.Values[fi])
		}
		right = shortestValidDelimiter(right, values)
		tpl.Fields = append(tpl.Fields, LRField{Name: name, Left: left, Right: right})
	}
	// Verify: the induced template must re-extract the examples.
	recs, err := tpl.Extract(page)
	if err != nil {
		return LRTemplate{}, err
	}
	if len(recs) < len(examples) {
		return LRTemplate{}, fmt.Errorf("wrapper: induced template found %d records, examples had %d", len(recs), len(examples))
	}
	for ei, ex := range examples {
		for fi, want := range ex.Values {
			if got := recs[ei][fieldNames[fi]]; got != strings.TrimSpace(stripTags(want)) {
				return LRTemplate{}, fmt.Errorf("wrapper: induced template extracts %q for example %d field %q, want %q",
					got, ei, fieldNames[fi], want)
			}
		}
	}
	return tpl, nil
}

// shortestValidDelimiter returns the shortest non-empty prefix of full
// that is not a substring of any field value, falling back to full.
func shortestValidDelimiter(full string, values []string) string {
	for n := 1; n <= len(full); n++ {
		cand := full[:n]
		ok := true
		for _, v := range values {
			if strings.Contains(v, cand) {
				ok = false
				break
			}
		}
		if ok {
			return cand
		}
	}
	return full
}

func commonSuffix(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	suf := ss[0]
	for _, s := range ss[1:] {
		for !strings.HasSuffix(s, suf) {
			if len(suf) == 0 {
				return ""
			}
			suf = suf[1:]
		}
	}
	return suf
}

func commonPrefix(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	pre := ss[0]
	for _, s := range ss[1:] {
		for !strings.HasPrefix(s, pre) {
			if len(pre) == 0 {
				return ""
			}
			pre = pre[:len(pre)-1]
		}
	}
	return pre
}

// HTMLSource scrapes an HTML page with a trained LR template (or a
// hand-written regular expression via NewRegexHTMLSource).
type HTMLSource struct {
	name     string
	def      *schema.Table
	fetch    Fetcher
	url      string
	tpl      LRTemplate
	re       *regexp.Regexp // alternative: one match per record, groups = fields
	reFields []string
	mappings []FieldMapping
	volatile bool
}

// NewHTMLSource builds a scraper from an LR template. mappings bind
// template slot names to schema columns; nil maps slots to identically
// named columns.
func NewHTMLSource(name string, def *schema.Table, fetch Fetcher, url string, tpl LRTemplate, mappings []FieldMapping) *HTMLSource {
	if mappings == nil {
		for _, f := range tpl.Fields {
			mappings = append(mappings, FieldMapping{Column: f.Name, From: f.Name})
		}
	}
	return &HTMLSource{name: name, def: def, fetch: fetch, url: url, tpl: tpl, mappings: mappings}
}

// NewRegexHTMLSource builds a scraper from a record regexp whose capture
// groups align with fieldNames — the expert-user escape hatch the paper's
// Cohera Connect offers alongside trained wrappers.
func NewRegexHTMLSource(name string, def *schema.Table, fetch Fetcher, url string, re *regexp.Regexp, fieldNames []string, mappings []FieldMapping) (*HTMLSource, error) {
	if re.NumSubexp() != len(fieldNames) {
		return nil, fmt.Errorf("wrapper: regexp has %d groups, %d field names", re.NumSubexp(), len(fieldNames))
	}
	if mappings == nil {
		for _, f := range fieldNames {
			mappings = append(mappings, FieldMapping{Column: f, From: f})
		}
	}
	return &HTMLSource{name: name, def: def, fetch: fetch, url: url, re: re, reFields: fieldNames, mappings: mappings}, nil
}

// SetVolatile marks the page as volatile.
func (s *HTMLSource) SetVolatile(v bool) { s.volatile = v }

// Name implements Source.
func (s *HTMLSource) Name() string { return s.name }

// Schema implements Source.
func (s *HTMLSource) Schema() *schema.Table { return s.def }

// Capabilities implements Source. Scraped pages cannot filter remotely.
func (s *HTMLSource) Capabilities() Capabilities {
	return Capabilities{Volatile: s.volatile}
}

// Fetch implements Source.
func (s *HTMLSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	body, err := s.fetch.Get(ctx, s.url)
	if err != nil {
		return nil, err
	}
	var records []map[string]string
	if s.re != nil {
		for _, m := range s.re.FindAllStringSubmatch(body, -1) {
			rec := make(map[string]string, len(s.reFields))
			for i, f := range s.reFields {
				rec[f] = strings.TrimSpace(stripTags(m[i+1]))
			}
			records = append(records, rec)
		}
	} else {
		records, err = s.tpl.Extract(body)
		if err != nil {
			return nil, fmt.Errorf("wrapper: html %s: %w", s.name, err)
		}
	}
	var rows []storage.Row
	for rn, rec := range records {
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
				return nil, fmt.Errorf("wrapper: html %s maps unknown column %q", s.name, m.Column)
			}
			v, err := value.Parse(s.def.Columns[ci].Kind, rec[m.From])
			if err != nil {
				return nil, fmt.Errorf("wrapper: html %s record %d: %w", s.name, rn+1, err)
			}
			row[ci] = v
		}
		rows = append(rows, row)
	}
	return applyFilters(s.def, rows, filters)
}
