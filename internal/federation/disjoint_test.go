package federation

import (
	"testing"

	"cohera/internal/sqlparse"
)

// TestDisjoint is the fragment-pruning test's truth table. A fragment
// predicate may bound a column with one conjunct (BETWEEN) or two
// (>= / <); either way both bounds count.
func TestDisjoint(t *testing.T) {
	for _, tc := range []struct {
		frag, query string
		want        bool
	}{
		// The >= / < pair: both bounds prune.
		{"sku >= 'P' AND sku < 'Q'", "sku = 'P0000001'", false},
		{"sku >= 'P' AND sku < 'Q'", "sku = 'Q0000001'", true}, // above: needs the upper bound
		{"sku >= 'P' AND sku < 'Q'", "sku = 'N0000001'", true}, // below: needs the lower bound
		{"sku >= 'P' AND sku < 'Q'", "sku = 'Q'", true},        // the excluded end
		{"sku >= 'P' AND sku < 'Q'", "sku = 'P'", false},       // the included end
		// BETWEEN says the same with one conjunct, both ends included.
		{"sku BETWEEN 'P' AND 'Q'", "sku = 'Q0000001'", true},
		{"sku BETWEEN 'P' AND 'Q'", "sku = 'Q'", false},
		// The query side is intersected too.
		{"sku BETWEEN 'P' AND 'Q'", "sku >= 'A' AND sku < 'P'", true},
		{"sku BETWEEN 'P' AND 'Q'", "sku >= 'A' AND sku <= 'P'", false},
		{"sku >= 'P' AND sku < 'Q'", "sku > 'N' AND sku < 'R'", false},
		// Mixed-exclusive bounds meeting at one value.
		{"qty > 10 AND qty <= 20", "qty <= 10", true},
		{"qty > 10 AND qty <= 20", "qty >= 20", false},
		{"qty > 10 AND qty <= 20", "qty > 20", true},
		{"qty >= 10", "qty < 10", true},
		{"qty >= 10", "qty <= 10", false},
		// A predicate whose own bounds cross selects nothing, so it is
		// disjoint with any fragment bounding that column.
		{"qty >= 0", "qty > 5 AND qty < 3", true},
		{"qty > 5 AND qty < 3", "qty = 4", true},
		// Another column's conjuncts neither help nor hurt.
		{"sku >= 'P' AND sku < 'Q' AND region = 'east'", "sku = 'P1' AND region = 'east'", false},
		{"sku >= 'P' AND sku < 'Q' AND region = 'east'", "sku = 'P1' AND region = 'west'", true},
		// Nothing provable: not sargable, no shared column, kinds that
		// cannot be ordered, no predicate at all.
		{"sku >= 'P' AND sku < 'Q'", "UPPER(sku) = 'Z'", false},
		{"sku >= 'P' AND sku < 'Q'", "qty = 1", false},
		{"sku >= 'P' AND sku < 'Q'", "sku = 7", false},
		{"sku >= 'P' OR sku < 'B'", "sku = 'C'", false},
		{"", "sku = 'C'", false},
		{"sku >= 'P'", "", false},
	} {
		var frag, query sqlparse.Expr
		var err error
		if tc.frag != "" {
			if frag, err = sqlparse.ParseExpr(tc.frag); err != nil {
				t.Fatal(err)
			}
		}
		if tc.query != "" {
			if query, err = sqlparse.ParseExpr(tc.query); err != nil {
				t.Fatal(err)
			}
		}
		if got := disjoint(frag, query); got != tc.want {
			t.Errorf("disjoint(%q, %q) = %v, want %v", tc.frag, tc.query, got, tc.want)
		}
	}
}
