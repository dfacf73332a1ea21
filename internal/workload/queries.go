package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenQuery is one generated SELECT plus the metadata a differential
// harness needs to compare two execution paths fairly.
type GenQuery struct {
	// SQL is the query to run on both paths.
	SQL string
	// Unordered reports the query carries LIMIT/OFFSET without a total
	// order — no ORDER BY at all, or ORDER BY on a non-unique column
	// whose ties the engine may break either way at the cut — so it may
	// legally answer with any satisfying subset: compare by row count
	// plus sub-multiset-of-Base instead of exact multiset equality.
	Unordered bool
	// Base is SQL stripped of its LIMIT/OFFSET clause — the superset
	// reference for the Unordered comparison. Equal to SQL otherwise.
	Base string
	// Withheld marks an aggregate query outside aggregate pushdown's
	// scope (HotelAggregates): its fragments must ship rows.
	Withheld bool
}

// HotelSelects generates n seeded SELECTs over the HotelsDef schema,
// spanning the shapes the streaming executor must agree with the
// materialized path on: star and column projections, conjunctive and
// disjunctive predicates over every column kind (string equality, IN,
// LIKE, numeric comparison, BETWEEN, boolean, money, IS NULL), plus
// ORDER BY (which forces the fallback path) and LIMIT/OFFSET (which
// exercises early termination). The same seed always yields the same
// corpus.
func HotelSelects(n int, seed int64) []GenQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]GenQuery, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, genHotelSelect(rng))
	}
	return out
}

var hotelCols = []string{
	"hotel", "chain", "city", "miles_to_airport",
	"health_club", "corporate_rate", "available",
}

var hotelCities = []string{"Atlanta", "Chicago", "Denver", "Boston"}

func genHotelSelect(rng *rand.Rand) GenQuery {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch rng.Intn(4) {
	case 0:
		b.WriteString("*")
	default:
		cols := pickCols(rng)
		b.WriteString(strings.Join(cols, ", "))
	}
	b.WriteString(" FROM hotels")

	if preds := genPredicates(rng); len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, chooseConnective(rng, len(preds))))
	}

	orderCol := ""
	if rng.Intn(5) == 0 {
		orderCol = hotelCols[rng.Intn(len(hotelCols))]
		b.WriteString(" ORDER BY ")
		b.WriteString(orderCol)
		if rng.Intn(2) == 0 {
			b.WriteString(" DESC")
		}
	}

	base := b.String()
	sql := base
	limited := rng.Intn(4) == 0
	if limited {
		sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(30))
		if rng.Intn(3) == 0 {
			sql += fmt.Sprintf(" OFFSET %d", rng.Intn(6))
		}
	}
	// Only ORDER BY on the unique key gives a total order; a LIMIT cut
	// anywhere else may keep different tied rows on different paths.
	return GenQuery{SQL: sql, Unordered: limited && orderCol != "hotel", Base: base}
}

// pickCols returns 1–4 distinct columns in schema order; the hotel key
// column is always included so replica dedupe has a stable identity to
// check against.
func pickCols(rng *rand.Rand) []string {
	want := 1 + rng.Intn(4)
	chosen := map[string]bool{"hotel": true}
	for len(chosen) < want+1 && len(chosen) < len(hotelCols) {
		chosen[hotelCols[rng.Intn(len(hotelCols))]] = true
	}
	var cols []string
	for _, c := range hotelCols {
		if chosen[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// chooseConnective joins multiple predicates: mostly AND (the sargable
// common case the pushdown splitter sees), sometimes OR.
func chooseConnective(rng *rand.Rand, n int) string {
	if n > 1 && rng.Intn(4) == 0 {
		return " OR "
	}
	return " AND "
}

func genPredicates(rng *rand.Rand) []string {
	n := rng.Intn(4) // 0–3 predicates
	preds := make([]string, 0, n)
	for i := 0; i < n; i++ {
		preds = append(preds, genPredicate(rng))
	}
	return preds
}

func genPredicate(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return fmt.Sprintf("city = '%s'", hotelCities[rng.Intn(len(hotelCities))])
	case 1:
		a, b := rng.Intn(len(hotelCities)), rng.Intn(len(hotelCities))
		return fmt.Sprintf("city IN ('%s', '%s')", hotelCities[a], hotelCities[b])
	case 2:
		op := []string{"<", "<=", ">", ">="}[rng.Intn(4)]
		return fmt.Sprintf("miles_to_airport %s %.1f", op, 1.0+rng.Float64()*24)
	case 3:
		lo := 1.0 + rng.Float64()*10
		return fmt.Sprintf("miles_to_airport BETWEEN %.1f AND %.1f", lo, lo+rng.Float64()*14)
	case 4:
		return fmt.Sprintf("health_club = %v", rng.Intn(2) == 0)
	case 5:
		return fmt.Sprintf("corporate_rate < '$%d.00'", 130+rng.Intn(190))
	case 6:
		return fmt.Sprintf("available >= %d", rng.Intn(15))
	case 7:
		return fmt.Sprintf("chain = 'chain-%02d'", rng.Intn(8))
	case 8:
		return fmt.Sprintf("chain LIKE 'chain-0%d%%'", rng.Intn(10))
	default:
		return fmt.Sprintf("NOT (city = '%s')", hotelCities[rng.Intn(len(hotelCities))])
	}
}
