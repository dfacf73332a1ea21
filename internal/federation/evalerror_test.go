package federation

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/resilience"
	"cohera/internal/storage"
)

// TestEvalErrorIsNotASiteFailure: an error met evaluating the pushed
// predicate is the query's fault wherever it is raised — at a remote
// peer's scan, at an in-process source's scan, or at the site in front
// of a source that evaluates nothing. It fails the query as itself: no
// failover, no breaker failure, and still an error under
// PartialResults, whose degradation covers unavailable fragments only.
func TestEvalErrorIsNotASiteFailure(t *testing.T) {
	const bad = "SELECT hotel FROM hotels WHERE available / 0 > 1"
	ctx := context.Background()
	for name, build := range map[string]func(t *testing.T) *Federation{
		"remote peers": func(t *testing.T) *Federation { return aggRemoteFed(t, nil) },
		"in-process sources": func(t *testing.T) *Federation {
			return aggFed(t, func(string) *plan.PushCaps { c := plan.FullPushCaps(); return &c })
		},
		"weak sources": func(t *testing.T) *Federation {
			return aggFed(t, func(string) *plan.PushCaps { return &plan.PushCaps{} })
		},
	} {
		for _, partial := range []bool{false, true} {
			fed := build(t)
			fed.PartialResults = partial
			check := func(path string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "division by zero") || !errors.Is(err, plan.ErrEval) ||
					errors.Is(err, ErrSiteFailure) || errors.Is(err, ErrNoReplica) {
					t.Fatalf("%s, partial=%v: %s = %v; want the division error alone", name, partial, path, err)
				}
			}
			// More queries than a breaker's default threshold of failures.
			for i := 0; i < 6; i++ {
				_, trace, err := fed.QueryTraced(ctx, bad)
				check("Query", err)
				if trace != nil && (trace.Failovers != 0 || trace.Degraded) {
					t.Fatalf("%s, partial=%v: failovers=%d degraded=%v", name, partial, trace.Failovers, trace.Degraded)
				}
				st, _, err := fed.QueryStream(ctx, bad)
				if err == nil {
					_, err = storage.CollectRows(st)
				}
				check("QueryStream", err)
			}
			for _, s := range fed.Sites() {
				if b := s.Breaker(); b.ConsecutiveFailures() != 0 || b.State() != resilience.Closed {
					t.Fatalf("%s, partial=%v: site %s breaker %v after %d failures",
						name, partial, s.Name(), b.State(), b.ConsecutiveFailures())
				}
			}
			if res, err := fed.Query(ctx, "SELECT COUNT(*) FROM hotels"); err != nil || res.Rows[0][0].Int() != 80 {
				t.Fatalf("%s, partial=%v: healthy query after the errors: %v, %v", name, partial, res, err)
			}
		}
	}
}
