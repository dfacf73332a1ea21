package federation

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Metamorphic properties: the optimizer in use and how much of a
// pushed request the sources evaluate are performance choices — they
// must never change query results. We generate random multi-fragment
// data and random queries and compare result multisets across
// configurations and with one engine holding every row.

// buildRandomFed creates a federation over a 2-table schema with random
// fragmentation and replication, and the reference engine holding every
// row. With weak set every site reads its tables through a source that
// can evaluate nothing, so the sites evaluate every pushed request.
func buildRandomFed(t *testing.T, seed int64, weak bool, agoric bool) (*Federation, *exec.Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	partsDef := schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindInt, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true},
		{Name: "price", Kind: value.KindFloat},
		{Name: "sid", Kind: value.KindInt},
		{Name: "extra", Kind: value.KindString},
	}, "sku")
	supDef := schema.MustTable("sups", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "region", Kind: value.KindString},
	}, "id")

	fed := New(nil)
	ref := exec.NewDatabase()
	nSites := 3 + rng.Intn(3)
	var sites []*Site
	for i := 0; i < nSites; i++ {
		s := NewSite(fmt.Sprintf("s%d", i))
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
	}
	if agoric {
		fed.SetOptimizer(NewAgoric())
	} else {
		cen := NewCentralized(fed)
		cen.ProbeLatency = 0
		fed.SetOptimizer(cen)
	}
	// Fragment parts by sku ranges across sites, replicas random 1..2.
	nFrags := 2 + rng.Intn(2)
	perFrag := 30
	var frags []*Fragment
	for f := 0; f < nFrags; f++ {
		lo, hi := f*perFrag, (f+1)*perFrag-1
		pred, err := predRange("sku", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		reps := []*Site{sites[rng.Intn(len(sites))]}
		if rng.Intn(2) == 0 {
			other := sites[rng.Intn(len(sites))]
			if other != reps[0] {
				reps = append(reps, other)
			}
		}
		frags = append(frags, NewFragment(fmt.Sprintf("f%d", f), pred, reps...))
	}
	if _, err := fed.DefineTable(partsDef, frags...); err != nil {
		t.Fatal(err)
	}
	words := []string{"drill", "ink", "pen", "bulb", "saw", "tape"}
	for f, frag := range frags {
		var rows []storage.Row
		for i := 0; i < perFrag; i++ {
			sku := f*perFrag + i
			rows = append(rows, storage.Row{
				value.NewInt(int64(sku)),
				value.NewString(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]),
				value.NewFloat(float64(rng.Intn(1000)) / 10),
				value.NewInt(int64(rng.Intn(4))),
				value.NewString("pad"),
			})
		}
		if err := fed.LoadFragment("parts", frag, rows); err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadRows(partsDef, rows); err != nil {
			t.Fatal(err)
		}
	}
	supFrag := NewFragment("all", nil, sites[0])
	if _, err := fed.DefineTable(supDef, supFrag); err != nil {
		t.Fatal(err)
	}
	var supRows []storage.Row
	for i := 0; i < 4; i++ {
		supRows = append(supRows, storage.Row{
			value.NewInt(int64(i)), value.NewString([]string{"east", "west"}[i%2]),
		})
	}
	if err := fed.LoadFragment("sups", supFrag, supRows); err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadRows(supDef, supRows); err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		for _, table := range []string{"parts", "sups"} {
			if _, err := s.DB().Table(table); weak && err == nil {
				capStored(t, s, table, plan.PushCaps{})
			}
		}
	}
	return fed, ref
}

func predRange(col string, lo, hi int) (fragPred, error) {
	return parseTestExpr(fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, hi))
}

// canonical renders a result as a sorted multiset string. Floats are
// rounded to 6 decimals: SUM over floats is order-dependent at the ULP
// level, and row arrival order legitimately varies across plans.
func canonical(rows []storage.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.Kind() == value.KindFloat {
				parts[j] = fmt.Sprintf("%d|%.6f", v.Kind(), v.Float())
			} else {
				parts[j] = fmt.Sprintf("%d|%s", v.Kind(), v.String())
			}
		}
		lines[i] = strings.Join(parts, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

var metamorphicQueries = []string{
	"SELECT sku, price FROM parts WHERE price < 50",
	"SELECT sku FROM parts WHERE sku BETWEEN 10 AND 70",
	"SELECT name, COUNT(*) FROM parts GROUP BY name",
	"SELECT p.sku, s.region FROM parts p JOIN sups s ON p.sid = s.id WHERE p.price > 20",
	"SELECT sku FROM parts WHERE CONTAINS(name, 'drill')",
	"SELECT sid, SUM(price) FROM parts GROUP BY sid",
	"SELECT DISTINCT name FROM parts",
	"SELECT COUNT(*) FROM parts WHERE sku < 15",
}

// TestResultsInvariantUnderOptimizer checks agoric vs centralized parity.
func TestResultsInvariantUnderOptimizer(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		fa, _ := buildRandomFed(t, seed, false, true)
		fc, _ := buildRandomFed(t, seed, false, false)
		for _, q := range metamorphicQueries {
			ra, err := fa.Query(ctx, q)
			if err != nil {
				t.Fatalf("seed %d agoric %q: %v", seed, q, err)
			}
			rc, err := fc.Query(ctx, q)
			if err != nil {
				t.Fatalf("seed %d centralized %q: %v", seed, q, err)
			}
			if canonical(ra.Rows) != canonical(rc.Rows) {
				t.Errorf("seed %d query %q: optimizers disagree\nagoric: %d rows\ncentral: %d rows",
					seed, q, len(ra.Rows), len(rc.Rows))
			}
		}
	}
}

// TestResultsInvariantUnderPushdown checks that full-engine sites and
// sites over sources that evaluate nothing both answer what one engine
// holding every row answers.
func TestResultsInvariantUnderPushdown(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		fOn, ref := buildRandomFed(t, seed, false, true)
		fWeak, _ := buildRandomFed(t, seed, true, true)
		for _, q := range metamorphicQueries {
			want, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("seed %d reference %q: %v", seed, q, err)
			}
			for name, fed := range map[string]*Federation{"pushdown": fOn, "weak sources": fWeak} {
				got, err := fed.Query(ctx, q)
				if err != nil {
					t.Fatalf("seed %d %s %q: %v", seed, name, q, err)
				}
				if canonical(got.Rows) != canonical(want.Rows) {
					t.Errorf("seed %d query %q: %s returned %d rows, reference %d",
						seed, q, name, len(got.Rows), len(want.Rows))
				}
			}
		}
	}
}

// TestResultsInvariantUnderReplicaFailure checks that killing one replica
// of a replicated fragment never changes results (only routing).
func TestResultsInvariantUnderReplicaFailure(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		fed, _ := buildRandomFed(t, seed, false, true)
		baseline := make(map[string]string)
		for _, q := range metamorphicQueries {
			r, err := fed.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			baseline[q] = canonical(r.Rows)
		}
		// Kill each site in turn, but only assert when every fragment
		// still has a live replica.
		for _, victim := range fed.Sites() {
			victim.SetDown(true)
			allCovered := true
			gt, _ := fed.Table("parts")
			for _, frag := range gt.Fragments {
				live := 0
				for _, s := range frag.Replicas() {
					if s.Alive() {
						live++
					}
				}
				if live == 0 {
					allCovered = false
				}
			}
			sup, _ := fed.Table("sups")
			for _, frag := range sup.Fragments {
				live := 0
				for _, s := range frag.Replicas() {
					if s.Alive() {
						live++
					}
				}
				if live == 0 {
					allCovered = false
				}
			}
			if allCovered {
				for _, q := range metamorphicQueries {
					r, err := fed.Query(ctx, q)
					if err != nil {
						t.Errorf("seed %d victim %s query %q: %v", seed, victim.Name(), q, err)
						continue
					}
					if canonical(r.Rows) != baseline[q] {
						t.Errorf("seed %d victim %s query %q: failover changed results",
							seed, victim.Name(), q)
					}
				}
			}
			victim.SetDown(false)
		}
	}
}
