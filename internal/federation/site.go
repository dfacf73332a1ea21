// Package federation implements the heart of the content integration
// system (paper, §3.2 and §4): an adaptive, load-balancing federated
// query processor in the style of Cohera Integrate and the Mariposa
// system it derives from.
//
// A Federation is a set of Sites, each running a full local engine
// (internal/exec) or fronting a remote source through a wrapper
// (internal/wrapper). Global tables are divided into Fragments, each
// replicated on one or more sites. Queries against the global schema are
// decomposed into per-fragment local queries; replica and site selection
// is delegated to an Optimizer — either the agoric (bid-based) optimizer
// the paper advocates or the centralized compile-time cost-based baseline
// it criticizes — and intermediate results are combined at the
// coordinator.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/exec"
	"cohera/internal/obs"
	"cohera/internal/resilience"
	"cohera/internal/wrapper"
)

// Sentinel errors of the site availability machinery. They are
// errors.New sentinels so failover and degradation logic can classify
// failures with errors.Is through arbitrarily deep wrap chains.
var (
	// ErrSiteDown is returned by operations against a site whose
	// liveness flag is off (an operator- or harness-declared outage).
	ErrSiteDown = errors.New("federation: site down")
	// ErrBreakerOpen is returned when a site's circuit breaker is
	// rejecting traffic after persistent failures.
	ErrBreakerOpen = errors.New("federation: circuit breaker open")
	// ErrSiteFailure marks a transient failure at a site — an injected
	// fault or a failed fetch from the source it fronts. The gather
	// loop fails over to the next replica on it.
	ErrSiteFailure = errors.New("federation: transient site failure")
)

// FaultHook is a site-level fault injection point (see internal/fault:
// Injector.Inject matches this signature). A non-nil error makes the
// site refuse the operation as a transient failure; the hook may also
// delay or block to simulate slowness, honoring ctx.
type FaultHook func(ctx context.Context) error

// metBreakerState is the per-site breaker position gauge
// (0 closed, 1 open, 2 half-open — resilience.State values).
func metBreakerState(site string) *obs.Gauge {
	return obs.Default().Gauge("cohera_breaker_state",
		"Circuit breaker position per site (0 closed, 1 open, 2 half-open).",
		obs.Labels{"site": site})
}

// metBreakerTransitions counts breaker state changes per site.
func metBreakerTransitions(site, to string) *obs.Counter {
	return obs.Default().Counter("cohera_breaker_transitions_total",
		"Circuit breaker transitions per site, by target state.",
		obs.Labels{"site": site, "to": to})
}

// CostModel describes a site's simulated performance: the paper's testbed
// is a wide-area network of heterogeneous machines, which we reproduce
// with per-site latency and per-row processing costs. Zero values make a
// site free and instantaneous (useful in unit tests).
type CostModel struct {
	// Latency is the round-trip cost of reaching the site.
	Latency time.Duration
	// PerRow is the processing cost per row produced. It only prices
	// bids (EstimateCost and the centralized optimizer); a simulated
	// site charges Latency when a subquery opens and nothing per row.
	PerRow time.Duration
	// LoadPenalty scales cost by (1 + LoadPenalty × concurrent queries):
	// the knob that makes load balancing matter.
	LoadPenalty float64
}

// Site is one federation member: a named local engine plus wrapper-backed
// virtual tables, a cost model, and liveness state.
type Site struct {
	name string
	db   *exec.Database

	// latShared is the site's series in the shared registry (what
	// /metrics exports); latLocal is a private copy backing the agoric
	// bid prior, isolated so unrelated federations reusing a site name
	// in the same process cannot contaminate each other's rankings.
	latShared *obs.Histogram
	latLocal  *obs.Histogram

	// breaker is the site's circuit breaker, set in NewSite and
	// immutable afterwards (the breaker synchronizes itself). It feeds
	// the health scoreboard that replaces the binary down flag in site
	// selection: persistent failures open it, stopping traffic; a
	// half-open probe discovers recovery.
	breaker *resilience.Breaker

	mu      sync.RWMutex
	sources map[string]wrapper.Source
	cost    CostModel
	hook    FaultHook

	down     atomic.Bool
	inFlight atomic.Int64
	served   atomic.Int64
	busyNS   atomic.Int64
}

// NewSite creates a site with an empty local database.
func NewSite(name string) *Site {
	br := &resilience.Breaker{}
	br.OnTransition = func(_, to resilience.State) {
		metBreakerState(name).Set(int64(to))
		metBreakerTransitions(name, to.String()).Inc()
	}
	return &Site{
		name: name,
		db:   exec.NewDatabase(),
		latShared: obs.Default().Histogram("cohera_site_subquery_seconds",
			"Observed wall-clock latency of subqueries served per site.",
			obs.Labels{"site": name}),
		latLocal: obs.NewHistogram(nil),
		breaker:  br,
		sources:  make(map[string]wrapper.Source),
	}
}

// Name returns the site's identifier.
func (s *Site) Name() string { return s.name }

// DB exposes the site's local engine so workload generators can load
// fragments directly.
func (s *Site) DB() *exec.Database { return s.db }

// SetCost installs the simulated cost model.
func (s *Site) SetCost(c CostModel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cost = c
}

// Cost returns the current cost model.
func (s *Site) Cost() CostModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cost
}

// AddSource registers a wrapper-backed virtual table under its schema
// name. Queries against it fetch on demand from the remote owner. The
// source is wrapped with wrapper.Instrument so fetches show up in the
// shared metrics registry and span traces.
func (s *Site) AddSource(src wrapper.Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources[lower(src.Schema().Name)] = wrapper.Instrument(src)
}

// SetDown injects or clears a failure.
func (s *Site) SetDown(down bool) { s.down.Store(down) }

// Alive reports liveness.
func (s *Site) Alive() bool { return !s.down.Load() }

// Breaker exposes the site's circuit breaker so harnesses can tune
// thresholds and install deterministic clocks.
func (s *Site) Breaker() *resilience.Breaker { return s.breaker }

// SetFaultHook installs a fault-injection hook consulted before the
// site serves any operation; nil clears it.
func (s *Site) SetFaultHook(h FaultHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

func (s *Site) faultHook() FaultHook {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hook
}

// Available reports whether the site would currently accept work: it is
// alive and its breaker is not open. Unlike CheckAvailable it does not
// admit a half-open probe or run the fault hook, so optimizers can poll
// it without consuming probe slots.
func (s *Site) Available() bool {
	return s.Alive() && s.breaker.State() != resilience.Open
}

// HealthScore collapses liveness and breaker position into a [0, 1]
// score for rankers: 0 when down or open, 0.5 while half-open (probe
// traffic only), 1 when closed.
func (s *Site) HealthScore() float64 {
	if !s.Alive() {
		return 0
	}
	switch s.breaker.State() {
	case resilience.Open:
		return 0
	case resilience.HalfOpen:
		return 0.5
	default:
		return 1
	}
}

// CheckAvailable is the admission gate every site operation passes
// through: the liveness flag, then the circuit breaker (consuming a
// half-open probe slot when one is due), then the fault hook. Hook
// failures count against the breaker unless the caller's context was
// already cancelled — caller aborts must not trip breakers.
func (s *Site) CheckAvailable(ctx context.Context) error {
	if !s.Alive() {
		return fmt.Errorf("%w: %s", ErrSiteDown, s.name)
	}
	if !s.breaker.Allow() {
		return fmt.Errorf("%w: %s", ErrBreakerOpen, s.name)
	}
	if h := s.faultHook(); h != nil {
		if err := h(ctx); err != nil {
			if ctx.Err() == nil {
				s.breaker.RecordFailure()
			}
			return fmt.Errorf("%w: %s: %w", ErrSiteFailure, s.name, err)
		}
	}
	return nil
}

// Served reports how many subqueries the site has executed — the load
// distribution metric for the balancing experiments.
func (s *Site) Served() int64 { return s.served.Load() }

// BusyTime reports cumulative simulated execution time.
func (s *Site) BusyTime() time.Duration { return time.Duration(s.busyNS.Load()) }

// ResetCounters clears the served/busy counters between experiment runs.
func (s *Site) ResetCounters() {
	s.served.Store(0)
	s.busyNS.Store(0)
}

// Load returns the number of subqueries currently executing at the site.
func (s *Site) Load() int64 { return s.inFlight.Load() }

// ObserveLatency records one observed subquery latency for the site —
// called when every SubQueryStream settles, and exported so external
// monitors can feed replayed or synthetic measurements into the same
// histograms the agoric bid prior consumes.
func (s *Site) ObserveLatency(d time.Duration) {
	s.latShared.Observe(d)
	s.latLocal.Observe(d)
}

// ObservedLatency returns the site's observed p50 subquery latency and
// the number of samples behind it. The agoric optimizer uses it as a
// bid-latency prior once enough samples accumulate.
func (s *Site) ObservedLatency() (p50 time.Duration, samples int64) {
	return s.latLocal.Quantile(0.5), s.latLocal.Count()
}

func (s *Site) source(table string) wrapper.Source {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sources[lower(table)]
}

// simulateCost charges the cost model's round-trip latency for one
// subquery, scaled by the site's current load. PerRow is not charged
// here: a stream's row count is unknown when it opens.
func (s *Site) simulateCost(ctx context.Context) error {
	c := s.Cost()
	if c.Latency == 0 {
		return nil
	}
	d := c.Latency
	if c.LoadPenalty > 0 {
		concurrent := float64(s.inFlight.Load() - 1)
		if concurrent > 0 {
			d = time.Duration(float64(d) * (1 + c.LoadPenalty*concurrent))
		}
	}
	s.busyNS.Add(int64(d))
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EstimateCost predicts the cost of a subquery producing estRows rows at
// the site's *current* load — the quantity a bidder prices.
func (s *Site) EstimateCost(estRows int) time.Duration {
	c := s.Cost()
	d := c.Latency + time.Duration(estRows)*c.PerRow
	if d == 0 {
		d = time.Microsecond // break ties deterministically by site order
	}
	if c.LoadPenalty > 0 {
		if concurrent := float64(s.inFlight.Load()); concurrent > 0 {
			d = time.Duration(float64(d) * (1 + c.LoadPenalty*concurrent))
		}
	}
	return d
}

// TableRows reports the local cardinality of a stored table (0 for
// sources, which do not advertise cardinality).
func (s *Site) TableRows(table string) int {
	if t, err := s.db.Table(table); err == nil {
		return t.Len()
	}
	return 0
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
