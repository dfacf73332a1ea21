package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: money survives a render→parse round trip for every currency
// the table knows.
func TestMoneyRoundTripProperty(t *testing.T) {
	currencies := []string{"USD", "EUR", "FRF", "GBP", "JPY", "CAD"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		amt := int64(rng.Intn(2_000_000) - 1_000_000)
		cur := currencies[rng.Intn(len(currencies))]
		v := NewMoney(amt, cur)
		back, err := ParseMoney(v.String())
		if err != nil {
			return false
		}
		return back.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: currency conversion round trips within one minor unit per
// leg (rounding), and identity conversion is exact.
func TestCurrencyConversionProperty(t *testing.T) {
	ct := DefaultCurrencyTable()
	currencies := ct.Currencies()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		amt := int64(rng.Intn(1_000_000))
		from := currencies[rng.Intn(len(currencies))]
		to := currencies[rng.Intn(len(currencies))]
		v := NewMoney(amt, from)
		there, err := ct.Convert(v, to)
		if err != nil {
			return false
		}
		back, err := ct.Convert(there, from)
		if err != nil {
			return false
		}
		got, _ := back.Money()
		diff := got - amt
		if diff < 0 {
			diff = -diff
		}
		// Each leg rounds to a minor unit; the bound scales with the
		// rate ratio (JPY has large minor-unit counts per USD cent).
		rate1, _ := ct.Rate(from)
		rate2, _ := ct.Rate(to)
		bound := int64(rate2/rate1) + int64(rate1/rate2) + 2
		return diff <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: delivery normalization never shortens a promise and calendar
// promises are fixed points, from any weekday.
func TestNormalizeDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		days := rng.Intn(14)
		sems := []DurationSemantics{CalendarDays, BusinessDays, NoSundayDays}
		sem := sems[rng.Intn(len(sems))]
		from := time.Date(2001, 5, 1+rng.Intn(28), 9, 0, 0, 0, time.UTC)
		v := Days(days, sem)
		out, err := NormalizeDelivery(v, from)
		if err != nil {
			return false
		}
		d, gotSem := out.Duration()
		if gotSem != CalendarDays {
			return false
		}
		base := time.Duration(days) * 24 * time.Hour
		if sem == CalendarDays {
			return d == base
		}
		return d >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: two values share a key exactly when they are Equal, over
// floats that include both zeros, NaNs with different payloads and the
// infinities — the cases where bits and equality part. The set is
// small enough to check every pair.
func TestKeyMatchesEqualProperty(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	vals := []Value{Null, NewInt(0), NewInt(1), NewString("0")}
	for _, f := range floats {
		vals = append(vals, NewFloat(f))
	}
	for _, a := range vals {
		for _, b := range vals {
			if a.Equal(b) != (Key(a) == Key(b)) {
				t.Errorf("%v (%s) and %v (%s): Equal %v, keys %q and %q", a, a.Kind(), b, b.Kind(), a.Equal(b), Key(a), Key(b))
			}
		}
	}
}
