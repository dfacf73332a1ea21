package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment in quick mode and sanity
// checks the table shapes and the qualitative claims the paper makes.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(Quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tb.ID != e.ID || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %+v", e.ID, tb)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Errorf("%s: row width %d != headers %d", e.ID, len(row), len(tb.Headers))
				}
			}
			var sb strings.Builder
			tb.Print(&sb)
			if !strings.Contains(sb.String(), e.ID) {
				t.Errorf("%s: Print lost the id", e.ID)
			}
		})
	}
}

// TestE1Shape verifies the paper's core claim quantitatively: federated
// answers are never stale; warehouse answers are stale in proportion to
// volatility.
func TestE1Shape(t *testing.T) {
	staleWH, staleFed, extracted, err := runE1(7, 5, 4, 80, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if staleFed != 0 {
		t.Errorf("federated staleness = %f, want 0", staleFed)
	}
	if staleWH < 0.2 {
		t.Errorf("warehouse staleness = %f, want substantial under heavy churn", staleWH)
	}
	if extracted == 0 {
		t.Error("warehouse extracted nothing")
	}
	// Zero volatility → warehouse is fine too.
	staleWH, _, _, err = runE1(7, 5, 4, 40, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if staleWH != 0 {
		t.Errorf("warehouse staleness with no churn = %f", staleWH)
	}
}

// TestE3Shape verifies the scaling claim on counts, not wall clock: a
// cold centralized plan pays one serial statistics probe per site, so
// its serial work grows with the federation, while the agoric broker
// collects every replica's bid in one parallel auction.
func TestE3Shape(t *testing.T) {
	var probes []int
	for _, n := range []int{16, 256} {
		r, err := runE3(1, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.auctions != 1 || r.bids != int64(n) {
			t.Errorf("%d sites: agoric held %d auctions for %d bids, want 1 for %d", n, r.auctions, r.bids, n)
		}
		if r.refreshes != 1 || r.probes != n {
			t.Errorf("%d sites: centralized ran %d sweeps of %d probes, want 1 of %d", n, r.refreshes, r.probes, n)
		}
		probes = append(probes, r.probes)
	}
	if probes[1] <= probes[0] {
		t.Errorf("centralized serial probes should grow with sites: %d vs %d", probes[0], probes[1])
	}
}

// TestE5Shape verifies the dominance ordering of placements.
func TestE5Shape(t *testing.T) {
	tb, err := E5Availability(Quick())
	if err != nil {
		t.Fatal(err)
	}
	avail := map[string]string{}
	for _, row := range tb.Rows {
		avail[row[0]] = row[1]
	}
	if avail["fragmented+replicated"] <= avail["central"] {
		t.Errorf("frag+repl (%s) should beat central (%s)", avail["fragmented+replicated"], avail["central"])
	}
}

// percent parses a table cell such as "73%".
func percent(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return f
}

// TestE2Shape verifies that answers fetched on demand are never stale,
// with or without a view for the static attributes, while a full
// snapshot serves stale availability.
func TestE2Shape(t *testing.T) {
	tb, err := E2Hybrid(Quick())
	if err != nil {
		t.Fatal(err)
	}
	stale := map[string]int{}
	for _, row := range tb.Rows {
		var n, checks int
		if _, err := fmt.Sscanf(row[2], "%d/%d", &n, &checks); err != nil {
			t.Fatalf("%s: stale cell %q: %v", row[0], row[2], err)
		}
		stale[row[0]] = n
	}
	for _, live := range []string{"pure on-demand", "hybrid (view + live)"} {
		if n, ok := stale[live]; !ok || n != 0 {
			t.Errorf("%s: %d stale answers (present %v), want 0", live, n, ok)
		}
	}
	if stale["pure materialized"] == 0 {
		t.Error("pure materialized: 0 stale answers, want some under churn")
	}
}

// TestE4Shape verifies that the agoric optimizer spreads subqueries
// more evenly than the centralized snapshot and routes to a machine
// that joins mid-run, which the centralized snapshot never does.
func TestE4Shape(t *testing.T) {
	tb, err := E4LoadBalance(Quick())
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]float64{}
	share := map[string]float64{}
	for _, row := range tb.Rows {
		key := row[0] + "/" + row[1]
		c, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("%s: CoV cell %q: %v", key, row[3], err)
		}
		cov[key] = c
		if row[1] == "after join" {
			share[row[0]] = percent(t, row[4])
		}
	}
	for _, phase := range []string{"steady", "after join"} {
		a, c := cov["agoric/"+phase], cov["centralized/"+phase]
		if a >= c {
			t.Errorf("%s: agoric CoV %.2f, want below centralized %.2f", phase, a, c)
		}
	}
	if share["agoric"] <= 0 {
		t.Errorf("agoric new-site share = %.0f%%, want > 0", share["agoric"])
	}
	if share["centralized"] != 0 {
		t.Errorf("centralized new-site share = %.0f%%, want 0", share["centralized"])
	}
}

// TestE6Shape verifies that synonyms recover canonical-name queries,
// fuzzy matching recovers typo queries, and MATCHES (both) is at least
// as good overall as either alone.
func TestE6Shape(t *testing.T) {
	tb, err := E6FuzzySearch(Quick())
	if err != nil {
		t.Fatal(err)
	}
	const canonical, typo, overall = 2, 3, 4
	rows := map[string][]string{}
	for _, row := range tb.Rows {
		rows[row[0]] = row
	}
	at := func(mode string, col int) float64 {
		row, ok := rows[mode]
		if !ok {
			t.Fatalf("no %q row", mode)
		}
		return percent(t, row[col])
	}
	if s, p := at("synonym", canonical), at("plain", canonical); s < p {
		t.Errorf("canonical queries: synonym recall %.0f%% < plain %.0f%%", s, p)
	}
	if f, p := at("fuzzy", typo), at("plain", typo); f <= p {
		t.Errorf("typo queries: fuzzy recall %.0f%%, want above plain %.0f%%", f, p)
	}
	both := at("both (MATCHES)", overall)
	for _, mode := range []string{"plain", "synonym", "fuzzy"} {
		if o := at(mode, overall); both < o {
			t.Errorf("overall: MATCHES recall %.0f%% < %s %.0f%%", both, mode, o)
		}
	}
}

// TestE7Shape verifies that the matcher's top suggestion is right for
// at least 90% of categories at up to 40% label noise, and that the
// categories left for a human are fewer than mapping all by hand.
func TestE7Shape(t *testing.T) {
	tb, err := E7TaxonomyMatch(Quick())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, row := range tb.Rows {
		if strings.Contains(row[0], "@") {
			continue // scale sweep: its edits column is a wall clock
		}
		if percent(t, row[0]) > 40 {
			continue
		}
		checked++
		if acc := percent(t, row[2]); acc < 90 {
			t.Errorf("noise %s: accuracy@1 %.0f%%, want ≥ 90%%", row[0], acc)
		}
		edits, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("noise %s: edits cell %q: %v", row[0], row[3], err)
		}
		manual, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatalf("noise %s: baseline cell %q: %v", row[0], row[4], err)
		}
		if edits >= manual {
			t.Errorf("noise %s: %d human edits, want fewer than the manual %d", row[0], edits, manual)
		}
	}
	if checked == 0 {
		t.Fatal("no noise row at or below 40%")
	}
}
