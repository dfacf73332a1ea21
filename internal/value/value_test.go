package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "FLOAT", KindString: "TEXT", KindMoney: "MONEY",
		KindTime: "TIMESTAMP", KindDuration: "DURATION",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "VARCHAR": KindString, "Money": KindMoney,
		"decimal": KindFloat, "bool": KindBool, "timestamp": KindTime,
		"interval": KindDuration,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("KindFromName(blob) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("bool round trip failed")
	}
	if NewInt(-42).Int() != -42 {
		t.Error("int round trip failed")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("float round trip failed")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("int should widen to float")
	}
	if NewString("ink").Str() != "ink" {
		t.Error("string round trip failed")
	}
	amt, cur := NewMoney(199, "usd").Money()
	if amt != 199 || cur != "USD" {
		t.Errorf("money = %d %s, want 199 USD", amt, cur)
	}
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	if !NewTime(now).Time().Equal(now) {
		t.Error("time round trip failed")
	}
	d, sem := Days(2, BusinessDays).Duration()
	if d != 48*time.Hour || sem != BusinessDays {
		t.Errorf("duration = %v %v", d, sem)
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic using string as int")
		}
	}()
	_ = NewString("x").Int()
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewInt(7), "7"},
		{NewFloat(2.5), "2.5"},
		{NewString("black ink"), "black ink"},
		{NewMoney(129999, "USD"), "1299.99 USD"},
		{NewMoney(-55, "EUR"), "-0.55 EUR"},
		{Days(2, BusinessDays), "48h0m0s (business)"},
		{Days(1, CalendarDays), "24h0m0s"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewMoney(100, "USD"), NewMoney(200, "USD"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
		// NaN equals NaN and orders after every other number.
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
		{NewFloat(math.NaN()), NewFloat(2.5), 1},
		{NewFloat(2.5), NewFloat(math.NaN()), -1},
		{NewFloat(math.Inf(1)), NewFloat(math.NaN()), -1},
		{NewFloat(math.NaN()), NewInt(7), 1},
		{NewInt(7), NewFloat(math.NaN()), -1},
		{Null, NewFloat(math.NaN()), -1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := NewString("a").Compare(NewInt(1)); err == nil {
		t.Error("string vs int should be incomparable")
	}
	if _, err := NewMoney(1, "USD").Compare(NewMoney(1, "EUR")); err == nil {
		t.Error("cross-currency compare should fail")
	}
}

func TestTruthy(t *testing.T) {
	if Null.Truthy() || NewInt(0).Truthy() || NewString("").Truthy() || NewBool(false).Truthy() {
		t.Error("falsy values reported truthy")
	}
	if !NewInt(1).Truthy() || !NewString("x").Truthy() || !NewBool(true).Truthy() || !NewFloat(0.1).Truthy() {
		t.Error("truthy values reported falsy")
	}
}

// randomValue generates an arbitrary comparable Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return NewInt(int64(r.Intn(2000) - 1000))
	case 1:
		return NewFloat(r.Float64()*200 - 100)
	case 2:
		return NewString(string(rune('a' + r.Intn(26))))
	case 3:
		return Null
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// Property: Compare is antisymmetric and consistent with Equal for values
// of the same kind.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		if !Comparable(a.Kind(), b.Kind()) && a.Kind() != KindNull && b.Kind() != KindNull {
			return true
		}
		ab, err1 := a.Compare(b)
		ba, err2 := b.Compare(a)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return ab == -ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over random int/float triples, NaN
// among them.
func TestCompareTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nums := func() Value {
			if r.Intn(2) == 0 {
				return NewInt(int64(r.Intn(20) - 10))
			}
			if r.Intn(8) == 0 {
				return NewFloat(math.NaN())
			}
			return NewFloat(float64(r.Intn(40))/2 - 10)
		}
		a, b, c := nums(), nums(), nums()
		ab := a.MustCompare(b)
		bc := b.MustCompare(c)
		ac := a.MustCompare(c)
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false
		}
		if ab >= 0 && bc >= 0 && ac < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(5).Equal(NewInt(5)) {
		t.Error("equal ints not Equal")
	}
	if NewInt(5).Equal(NewFloat(5)) {
		t.Error("Equal must require matching kinds")
	}
	if !Null.Equal(Null) {
		t.Error("NULL should Equal NULL")
	}
	if !NewMoney(5, "USD").Equal(NewMoney(5, "USD")) {
		t.Error("equal money not Equal")
	}
	if NewMoney(5, "USD").Equal(NewMoney(5, "EUR")) {
		t.Error("different currencies Equal")
	}
	if !NewFloat(math.NaN()).Equal(NewFloat(math.NaN())) || NewFloat(math.NaN()).Equal(NewFloat(2.5)) {
		t.Error("NaN must Equal NaN and nothing else")
	}
	if !NewFloat(0).Equal(NewFloat(math.Copysign(0, -1))) {
		t.Error("0 and -0 not Equal")
	}
}

func TestEqualReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		return v.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueIsSmall(t *testing.T) {
	// Rows are []Value, and the scan kernel reads every stored cell of
	// every row it visits: Value stays four words.
	if sz := unsafe.Sizeof(Value{}); sz != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", sz)
	}
}
