package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// HotelAggregates generates n seeded aggregate SELECTs over the
// HotelsDef schema, for differential runs of aggregate pushdown against
// the row-shipping path. The shapes cover global and grouped COUNT,
// SUM, MIN, MAX and AVG over INT, FLOAT and MONEY columns; COUNT of a
// column beside COUNT(*) (NULLs count in one, not the other); a WHERE
// that prunes every fragment of a layout split by hotel ranges; HAVING;
// ORDER BY with LIMIT; expressions over aggregates; and shapes outside
// the pushdown's scope (DISTINCT, a text predicate, a join, an
// aggregate over an expression), marked Withheld. Every LIMIT follows
// an ORDER BY that ends in all group keys, so the order is total and
// no query is Unordered. The same seed always yields the same corpus.
func HotelAggregates(n int, seed int64) []GenQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]GenQuery, 0, n)
	for i := 0; i < n; i++ {
		q := genHotelAggregate(rng)
		q.Base = q.SQL
		out = append(out, q)
	}
	return out
}

// hotelGroupKeys are the columns the aggregate corpus groups by.
var hotelGroupKeys = []string{"city", "chain", "health_club"}

// hotelAggs are the decomposable aggregate calls the corpus draws from.
var hotelAggs = []string{
	"COUNT(*)", "COUNT(available)", "COUNT(city)",
	"SUM(available)", "SUM(miles_to_airport)", "SUM(corporate_rate)",
	"MIN(available)", "MIN(miles_to_airport)", "MIN(corporate_rate)", "MIN(city)",
	"MAX(available)", "MAX(miles_to_airport)", "MAX(corporate_rate)", "MAX(hotel)",
	"AVG(available)", "AVG(miles_to_airport)", "AVG(corporate_rate)",
}

func pickAggs(rng *rand.Rand) []string {
	n := 1 + rng.Intn(4)
	out := make([]string, n)
	for i := range out {
		out[i] = hotelAggs[rng.Intn(len(hotelAggs))]
	}
	return out
}

func genWhere(rng *rand.Rand) string {
	preds := genPredicates(rng)
	if len(preds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(preds, chooseConnective(rng, len(preds)))
}

func genHotelAggregate(rng *rand.Rand) GenQuery {
	key := hotelGroupKeys[rng.Intn(len(hotelGroupKeys))]
	aggs := strings.Join(pickAggs(rng), ", ")
	where := genWhere(rng)
	switch rng.Intn(12) {
	case 0:
		return GenQuery{SQL: "SELECT " + aggs + " FROM hotels" + where}
	case 1:
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, %s FROM hotels%s GROUP BY %s", key, aggs, where, key)}
	case 2:
		return GenQuery{SQL: fmt.Sprintf("SELECT city, health_club, %s FROM hotels%s GROUP BY city, health_club", aggs, where)}
	case 3:
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, %s FROM hotels%s GROUP BY %s HAVING COUNT(*) > %d",
			key, aggs, where, key, rng.Intn(12))}
	case 4:
		dir := []string{"", " DESC"}[rng.Intn(2)]
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, COUNT(*) AS n, %s FROM hotels%s GROUP BY %s ORDER BY SUM(available)%s, %s LIMIT %d",
			key, aggs, where, key, dir, key, 1+rng.Intn(4))}
	case 5:
		return GenQuery{SQL: fmt.Sprintf("SELECT h.%s, SUM(h.available) * 2 AS s2, COUNT(*) + 1, MAX(corporate_rate) FROM hotels h%s GROUP BY h.%s ORDER BY h.%s",
			key, where, key, key)}
	case 6:
		// hotel is the key the fragments are split by; no range holds
		// a name before "a".
		if rng.Intn(2) == 0 {
			return GenQuery{SQL: "SELECT " + aggs + " FROM hotels WHERE hotel < 'a'"}
		}
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, %s FROM hotels WHERE hotel = 'none' GROUP BY %s", key, aggs, key)}
	case 7:
		return GenQuery{SQL: fmt.Sprintf("SELECT chain, SUM(corporate_rate), AVG(corporate_rate), MIN(corporate_rate) FROM hotels%s GROUP BY chain", where)}
	case 8:
		return GenQuery{SQL: fmt.Sprintf("SELECT DISTINCT %s, COUNT(*) FROM hotels%s GROUP BY %s", key, where, key), Withheld: true}
	case 9:
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, COUNT(*) FROM hotels WHERE CONTAINS(city, '%s') GROUP BY %s",
			key, strings.ToLower(hotelCities[rng.Intn(len(hotelCities))]), key), Withheld: true}
	case 10:
		return GenQuery{SQL: fmt.Sprintf("SELECT h.%s, COUNT(*) FROM hotels h JOIN hotels g ON h.hotel = g.hotel GROUP BY h.%s", key, key), Withheld: true}
	default:
		return GenQuery{SQL: fmt.Sprintf("SELECT %s, SUM(available + 1) FROM hotels%s GROUP BY %s", key, where, key), Withheld: true}
	}
}
