package wrapper

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
)

// ERPSource simulates direct access to a content owner's internal system
// (SAP or another ERP): the close-relationship end of the paper's
// Characteristic 1 spectrum. Unlike scraped sources it supports predicate
// pushdown, serves live (volatile) data, and can apply a configurable
// per-call latency so federation benchmarks see realistic remote costs.
//
// Rows live in an internal storage.Table; the owning "enterprise" mutates
// it concurrently with integrator fetches, which is exactly the coupling
// the fetch-on-demand architecture is built for.
type ERPSource struct {
	name   string
	table  *storage.Table
	pushEq []string

	mu      sync.Mutex
	latency time.Duration
	fetches int
}

// NewERPSource wraps a live table as a gateway. pushEq lists columns the
// gateway filters remotely.
func NewERPSource(name string, table *storage.Table, pushEq ...string) *ERPSource {
	return &ERPSource{name: name, table: table, pushEq: pushEq}
}

// SetLatency configures the simulated per-call round trip. Safe to call
// while fetches are in flight — benchmarks reshape latency mid-run.
func (s *ERPSource) SetLatency(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
}

// Table exposes the backing table so the owning enterprise can mutate it.
func (s *ERPSource) Table() *storage.Table { return s.table }

// Fetches reports how many Fetch calls the gateway has served — used by
// the staleness experiments to count remote traffic.
func (s *ERPSource) Fetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches
}

// Name implements Source.
func (s *ERPSource) Name() string { return s.name }

// Schema implements Source.
func (s *ERPSource) Schema() *schema.Table { return s.table.Def() }

// Capabilities implements Source. The gateway models direct access to a
// full engine, so it advertises complete σ/π/limit pushdown.
func (s *ERPSource) Capabilities() Capabilities {
	return Capabilities{PushdownEq: s.pushEq, Push: plan.FullPushCaps(), Volatile: true}
}

// Fetch implements Source: FetchPushStream with nothing pushed,
// drained.
func (s *ERPSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	st, _, err := s.FetchPushStream(ctx, filters, Pushdown{})
	if err != nil {
		return nil, err
	}
	return storage.CollectRows(st)
}

// StaticSource serves a fixed row set — the degenerate connector used for
// reference data and tests.
type StaticSource struct {
	name     string
	def      *schema.Table
	rows     []storage.Row
	volatile bool
}

// NewStaticSource builds a fixed source. Rows are validated eagerly.
func NewStaticSource(name string, def *schema.Table, rows []storage.Row) (*StaticSource, error) {
	for i, r := range rows {
		if err := def.Validate(r); err != nil {
			return nil, fmt.Errorf("wrapper: static %s row %d: %w", name, i, err)
		}
	}
	return &StaticSource{name: name, def: def, rows: rows}, nil
}

// Name implements Source.
func (s *StaticSource) Name() string { return s.name }

// Schema implements Source.
func (s *StaticSource) Schema() *schema.Table { return s.def }

// Capabilities implements Source.
func (s *StaticSource) Capabilities() Capabilities {
	return Capabilities{Volatile: s.volatile}
}

// Fetch implements Source.
func (s *StaticSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]storage.Row, len(s.rows))
	for i, r := range s.rows {
		out[i] = r.Clone()
	}
	return applyFilters(s.def, out, filters)
}

// FuncSource generates rows on every fetch from a function — used to
// model business-rule "agents that automatically generate data like
// prices" (paper, Characteristic 5).
type FuncSource struct {
	name string
	def  *schema.Table
	gen  func(ctx context.Context, filters []Filter) ([]storage.Row, error)
	caps Capabilities
}

// NewFuncSource wraps a generator function as a volatile source.
func NewFuncSource(name string, def *schema.Table, caps Capabilities,
	gen func(ctx context.Context, filters []Filter) ([]storage.Row, error)) *FuncSource {
	caps.Volatile = true
	return &FuncSource{name: name, def: def, gen: gen, caps: caps}
}

// Name implements Source.
func (s *FuncSource) Name() string { return s.name }

// Schema implements Source.
func (s *FuncSource) Schema() *schema.Table { return s.def }

// Capabilities implements Source.
func (s *FuncSource) Capabilities() Capabilities { return s.caps }

// Fetch implements Source.
func (s *FuncSource) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	rows, err := s.gen(ctx, filters)
	if err != nil {
		return nil, fmt.Errorf("wrapper: func %s: %w", s.name, err)
	}
	for i, r := range rows {
		if err := s.def.Validate(r); err != nil {
			return nil, fmt.Errorf("wrapper: func %s row %d: %w", s.name, i, err)
		}
	}
	return applyFilters(s.def, rows, filters)
}
