package exec

import (
	"math"
	"sort"
	"strings"
	"testing"

	"cohera/internal/storage"
	"cohera/internal/value"
)

// demoDB builds a two-table database used across the tests.
func demoDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec := func(sql string) *Result {
		t.Helper()
		r, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
		return r
	}
	mustExec(`CREATE TABLE suppliers (id INTEGER NOT NULL, name TEXT, region TEXT, PRIMARY KEY (id))`)
	mustExec(`CREATE TABLE parts (sku TEXT NOT NULL, name TEXT, price FLOAT, qty INTEGER, sid INTEGER, PRIMARY KEY (sku))`)
	mustExec(`INSERT INTO suppliers (id, name, region) VALUES
		(1, 'Acme Industrial', 'west'),
		(2, 'Bolt Brothers', 'east'),
		(3, 'Chandler Supply', 'west')`)
	mustExec(`INSERT INTO parts (sku, name, price, qty, sid) VALUES
		('P1', 'cordless drill', 99.5, 10, 1),
		('P2', 'corded drill', 45.0, 0, 1),
		('P3', 'India ink bottle', 3.5, 200, 2),
		('P4', 'black ballpoint pen', 1.25, 500, 2),
		('P5', 'forklift', 12000.0, 2, 3),
		('P6', 'lightbulb 60w', 0.99, 1000, 3)`)
	return db
}

func exec1(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func TestSelectAll(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT * FROM parts")
	if len(r.Rows) != 6 || len(r.Columns) != 5 {
		t.Fatalf("rows=%d cols=%v", len(r.Rows), r.Columns)
	}
	if r.Columns[0] != "sku" {
		t.Errorf("columns = %v", r.Columns)
	}
	for _, row := range r.Rows {
		if strings.Contains(strings.Join(r.Columns, ","), "_rowid") {
			t.Fatal("synthetic _rowid leaked into output")
		}
		if len(row) != 5 {
			t.Fatalf("row width = %d", len(row))
		}
	}
}

func TestWhereFilters(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT sku FROM parts WHERE price < 10")
	if len(r.Rows) != 3 {
		t.Errorf("price<10 rows = %d, want 3", len(r.Rows))
	}
	r = exec1(t, db, "SELECT sku FROM parts WHERE qty = 0")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "P2" {
		t.Errorf("qty=0 = %v", r.Rows)
	}
	r = exec1(t, db, "SELECT sku FROM parts WHERE name LIKE '%drill%' AND qty > 0")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "P1" {
		t.Errorf("like+qty = %v", r.Rows)
	}
	r = exec1(t, db, "SELECT sku FROM parts WHERE sku IN ('P1','P9')")
	if len(r.Rows) != 1 {
		t.Errorf("IN = %v", r.Rows)
	}
}

func TestProjectionAndAliases(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT sku AS id, price * qty AS stock_value FROM parts WHERE sku = 'P1'")
	if r.Columns[0] != "id" || r.Columns[1] != "stock_value" {
		t.Errorf("columns = %v", r.Columns)
	}
	if v := r.Rows[0][1].Float(); v != 995 {
		t.Errorf("stock_value = %v", v)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT sku, price FROM parts ORDER BY price DESC LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "P5" || r.Rows[1][0].Str() != "P1" {
		t.Errorf("order desc limit = %v", r.Rows)
	}
	r = exec1(t, db, "SELECT sku FROM parts ORDER BY price LIMIT 2 OFFSET 1")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "P4" {
		t.Errorf("offset = %v", r.Rows)
	}
	// Order by output alias.
	r = exec1(t, db, "SELECT sku, price * 2 AS p2 FROM parts ORDER BY p2 DESC LIMIT 1")
	if r.Rows[0][0].Str() != "P5" {
		t.Errorf("order by alias = %v", r.Rows)
	}
	// Offset beyond end.
	r = exec1(t, db, "SELECT sku FROM parts OFFSET 100")
	if len(r.Rows) != 0 {
		t.Errorf("big offset = %v", r.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT DISTINCT region FROM suppliers")
	if len(r.Rows) != 2 {
		t.Errorf("distinct regions = %v", r.Rows)
	}
}

func TestInnerJoin(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, `SELECT p.sku, s.name FROM parts p
		JOIN suppliers s ON p.sid = s.id WHERE s.region = 'west' ORDER BY p.sku`)
	if len(r.Rows) != 4 {
		t.Fatalf("west join rows = %d, want 4", len(r.Rows))
	}
	if r.Rows[0][0].Str() != "P1" || r.Rows[0][1].Str() != "Acme Industrial" {
		t.Errorf("first = %v", r.Rows[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := demoDB(t)
	// Add a part with no supplier.
	if _, err := db.Exec("INSERT INTO parts (sku, name, price, qty, sid) VALUES ('P7', 'orphan', 1.0, 1, 99)"); err != nil {
		t.Fatal(err)
	}
	r := exec1(t, db, `SELECT p.sku, s.name FROM parts p
		LEFT JOIN suppliers s ON p.sid = s.id ORDER BY p.sku`)
	if len(r.Rows) != 7 {
		t.Fatalf("left join rows = %d, want 7", len(r.Rows))
	}
	last := r.Rows[6]
	if last[0].Str() != "P7" || !last[1].IsNull() {
		t.Errorf("null-extended row = %v", last)
	}
}

func TestJoinWithResidualOn(t *testing.T) {
	db := demoDB(t)
	// Equi key plus a non-equi residual in ON.
	r := exec1(t, db, `SELECT p.sku FROM parts p
		JOIN suppliers s ON p.sid = s.id AND p.price > 50 ORDER BY p.sku`)
	if len(r.Rows) != 2 { // P1 (99.5) and P5 (12000)
		t.Errorf("residual-on rows = %v", r.Rows)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	db := demoDB(t)
	// Non-equi ON forces nested loop.
	r := exec1(t, db, `SELECT p.sku, s.id FROM parts p
		JOIN suppliers s ON p.sid < s.id WHERE p.sku = 'P1'`)
	// sid=1 < {2,3} → two rows.
	if len(r.Rows) != 2 {
		t.Errorf("nested loop rows = %v", r.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Exec("CREATE TABLE regions (code TEXT NOT NULL, label TEXT, PRIMARY KEY (code))"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO regions (code, label) VALUES ('west', 'West Coast'), ('east', 'East Coast')"); err != nil {
		t.Fatal(err)
	}
	r := exec1(t, db, `SELECT p.sku, r.label FROM parts p
		JOIN suppliers s ON p.sid = s.id
		JOIN regions r ON s.region = r.code
		WHERE p.sku = 'P1'`)
	if len(r.Rows) != 1 || r.Rows[0][1].Str() != "West Coast" {
		t.Errorf("three-way = %v", r.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), AVG(qty) FROM parts")
	row := r.Rows[0]
	if row[0].Int() != 6 || row[1].Int() != 1712 {
		t.Errorf("count/sum = %v", row)
	}
	if row[2].Float() != 0.99 || row[3].Float() != 12000 {
		t.Errorf("min/max = %v", row)
	}
	if row[4].Float() != 1712.0/6 {
		t.Errorf("avg = %v", row[4])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, `SELECT s.region, COUNT(*) AS n, SUM(p.qty) AS total
		FROM parts p JOIN suppliers s ON p.sid = s.id
		GROUP BY s.region HAVING COUNT(*) > 1 ORDER BY s.region`)
	if len(r.Rows) != 2 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if r.Rows[0][0].Str() != "east" || r.Rows[0][1].Int() != 2 || r.Rows[0][2].Int() != 700 {
		t.Errorf("east group = %v", r.Rows[0])
	}
	if r.Rows[1][0].Str() != "west" || r.Rows[1][1].Int() != 4 {
		t.Errorf("west group = %v", r.Rows[1])
	}
}

func TestGroupByWithNulls(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Exec("INSERT INTO parts (sku, name, price, qty) VALUES ('P8', 'no supplier', 2.0, 5)"); err != nil {
		t.Fatal(err)
	}
	r := exec1(t, db, "SELECT sid, COUNT(*) FROM parts GROUP BY sid ORDER BY sid")
	// NULL group sorts first.
	if len(r.Rows) != 4 || !r.Rows[0][0].IsNull() {
		t.Errorf("null group = %v", r.Rows)
	}
	// SUM skips NULLs.
	r = exec1(t, db, "SELECT SUM(sid) FROM parts")
	if r.Rows[0][0].Int() != 1+1+2+2+3+3 {
		t.Errorf("SUM skipping nulls = %v", r.Rows[0][0])
	}
}

func TestEmptyAggregate(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "SELECT COUNT(*), SUM(qty) FROM parts WHERE sku = 'NOPE'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", r.Rows)
	}
	// Grouped empty input yields no rows.
	r = exec1(t, db, "SELECT sid, COUNT(*) FROM parts WHERE sku = 'NOPE' GROUP BY sid")
	if len(r.Rows) != 0 {
		t.Errorf("empty grouped = %v", r.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, `SELECT sid, SUM(qty) AS total FROM parts
		GROUP BY sid ORDER BY SUM(qty) DESC LIMIT 1`)
	if r.Rows[0][0].Int() != 3 || r.Rows[0][1].Int() != 1002 {
		t.Errorf("top group = %v", r.Rows)
	}
}

func TestTextPredicates(t *testing.T) {
	db := demoDB(t)
	// parts.name has no FullText flag via CREATE TABLE; build a text table.
	if _, err := db.Exec("CREATE TABLE docs (id INTEGER NOT NULL, body TEXT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("docs")
	_ = tbl
	// Mark body as full-text by recreating via schema? CREATE TABLE has no
	// FULLTEXT syntax, so use the programmatic path like the integrator does.
	db2 := NewDatabase()
	def := mustPartsDef(t)
	if _, err := db2.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{
		{"P1", "cordless drill 18V"},
		{"P2", "India ink bottle"},
		{"P3", "ballpoint pen black"},
	} {
		tb, _ := db2.Table("catalog")
		if _, err := tb.Insert([]value.Value{
			value.NewString(row[0].(string)), value.NewString(row[1].(string)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := db2.Exec("SELECT sku FROM catalog WHERE CONTAINS(name, 'drill')")
	if err != nil {
		t.Fatalf("CONTAINS: %v", err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "P1" {
		t.Errorf("CONTAINS = %v", r.Rows)
	}
	// Fuzzy typo.
	r, err = db2.Exec("SELECT sku FROM catalog WHERE FUZZY(name, 'drlls crdlss')")
	if err != nil {
		t.Fatalf("FUZZY: %v", err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "P1" {
		t.Errorf("FUZZY = %v", r.Rows)
	}
	// Synonym.
	db2.Synonyms().Declare("black ink", "india ink")
	r, err = db2.Exec("SELECT sku FROM catalog WHERE SYNONYM(name, 'black ink')")
	if err != nil {
		t.Fatalf("SYNONYM: %v", err)
	}
	found := false
	for _, row := range r.Rows {
		if row[0].Str() == "P2" {
			found = true
		}
	}
	if !found {
		t.Errorf("SYNONYM = %v", r.Rows)
	}
	// MATCHES combines; works in joins too (qualified).
	r, err = db2.Exec("SELECT c.sku FROM catalog c WHERE MATCHES(c.name, 'drlls')")
	if err != nil {
		t.Fatalf("MATCHES: %v", err)
	}
	if len(r.Rows) != 1 {
		t.Errorf("MATCHES = %v", r.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := demoDB(t)
	r := exec1(t, db, "UPDATE parts SET qty = qty + 1 WHERE sid = 1")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("update count = %v", r.Rows)
	}
	r = exec1(t, db, "SELECT qty FROM parts WHERE sku = 'P1'")
	if r.Rows[0][0].Int() != 11 {
		t.Errorf("updated qty = %v", r.Rows)
	}
	r = exec1(t, db, "DELETE FROM parts WHERE qty > 400")
	if r.Rows[0][0].Int() != 2 { // P4 (500), P6 (1000)
		t.Errorf("delete count = %v", r.Rows)
	}
	r = exec1(t, db, "SELECT COUNT(*) FROM parts")
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("remaining = %v", r.Rows)
	}
}

func TestIndexAccessPath(t *testing.T) {
	db := demoDB(t)
	tbl, _ := db.Table("parts")
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	// Equality via index.
	r := exec1(t, db, "SELECT sku FROM parts WHERE qty = 200")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "P3" {
		t.Errorf("indexed eq = %v", r.Rows)
	}
	// Range via index, with extra conjunct as residual.
	r = exec1(t, db, "SELECT sku FROM parts WHERE qty > 100 AND price < 2")
	if len(r.Rows) != 2 {
		t.Errorf("indexed range = %v", r.Rows)
	}
	// Exclusive bound correctness: qty > 200 must exclude 200.
	r = exec1(t, db, "SELECT sku FROM parts WHERE qty > 200")
	for _, row := range r.Rows {
		if row[0].Str() == "P3" {
			t.Error("exclusive bound included boundary row")
		}
	}
}

// TestNaNComparesAsOneValue: a stored NaN equals only NaN and orders
// after every other number, so neither a scan nor an index lets it
// match a predicate on an ordinary number.
func TestNaNComparesAsOneValue(t *testing.T) {
	db := NewDatabase()
	exec1(t, db, "CREATE TABLE m (id INTEGER NOT NULL, w FLOAT, PRIMARY KEY (id))")
	tbl, _ := db.Table("m")
	for i, w := range []float64{math.NaN(), 2.5, 7} {
		if _, err := tbl.Insert(storage.Row{value.NewInt(int64(i)), value.NewFloat(w)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(sql string) string {
		t.Helper()
		var out []string
		for _, row := range exec1(t, db, sql).Rows {
			out = append(out, row[0].String())
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	check := func(how string) {
		t.Helper()
		for sql, want := range map[string]string{
			"SELECT id FROM m WHERE w = 2.5":               "1",
			"SELECT id FROM m WHERE w = 7":                 "2",
			"SELECT id FROM m WHERE w BETWEEN 1 AND 3":     "1",
			"SELECT id FROM m WHERE w < 100":               "1,2",
			"SELECT id FROM m WHERE w > 5":                 "0,2",
			"SELECT id FROM m WHERE w <> 2.5":              "0,2",
			"SELECT id FROM m WHERE w NOT BETWEEN 1 AND 3": "0,2",
		} {
			if got := ids(sql); got != want {
				t.Errorf("%s: %s = [%s], want [%s]", how, sql, got, want)
			}
		}
	}
	check("scan")
	if err := tbl.CreateIndex("w"); err != nil {
		t.Fatal(err)
	}
	check("index")
}

// TestNegativeZeroIsZero: 0 and -0 are Equal, so every keyed operator
// (DISTINCT, GROUP BY, the hash index) must treat them as one value,
// as a scan's comparison already does.
func TestNegativeZeroIsZero(t *testing.T) {
	db := NewDatabase()
	exec1(t, db, "CREATE TABLE m (id INTEGER NOT NULL, w FLOAT, PRIMARY KEY (id))")
	tbl, _ := db.Table("m")
	var negID int64
	for i, w := range []float64{0, math.Copysign(0, -1), 1} {
		id, err := tbl.Insert(storage.Row{value.NewInt(int64(i)), value.NewFloat(w)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			negID = id
		}
	}
	check := func(how string) {
		t.Helper()
		if r := exec1(t, db, "SELECT DISTINCT w FROM m"); len(r.Rows) != 2 {
			t.Errorf("%s: DISTINCT w = %v, want 0 and 1", how, r.Rows)
		}
		r := exec1(t, db, "SELECT w, COUNT(*) FROM m GROUP BY w ORDER BY w")
		if len(r.Rows) != 2 || r.Rows[0][1].Int() != 2 {
			t.Errorf("%s: GROUP BY w = %v, want one group of two for 0", how, r.Rows)
		}
		if r := exec1(t, db, "SELECT id FROM m WHERE w = 0"); len(r.Rows) != 2 {
			t.Errorf("%s: WHERE w = 0 = %v, want ids 0 and 1", how, r.Rows)
		}
	}
	check("scan")
	if err := tbl.CreateHashIndex("w"); err != nil {
		t.Fatal(err)
	}
	check("hash index")
	// An update that flips the sign keeps the row under its one key.
	if err := tbl.Update(negID, storage.Row{value.NewInt(1), value.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	check("hash index after a sign flip")
}

func TestInsertCoercion(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Exec("CREATE TABLE quotes (id INTEGER NOT NULL, price MONEY, at TIMESTAMP, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO quotes (id, price, at) VALUES (1, '$12.50', '2001-05-21')"); err != nil {
		t.Fatalf("coercing insert: %v", err)
	}
	r := exec1(t, db, "SELECT price FROM quotes WHERE id = 1")
	m, c := r.Rows[0][0].Money()
	if m != 1250 || c != "USD" {
		t.Errorf("coerced money = %d %s", m, c)
	}
}

func TestExecErrors(t *testing.T) {
	db := demoDB(t)
	bad := []string{
		"SELECT * FROM ghost",
		"SELECT ghost FROM parts",
		"SELECT * FROM parts p JOIN ghost g ON p.sid = g.id",
		"INSERT INTO ghost VALUES (1)",
		"INSERT INTO parts (ghost) VALUES (1)",
		"INSERT INTO parts (sku) VALUES (1, 2)",
		"UPDATE ghost SET x = 1",
		"UPDATE parts SET ghost = 1",
		"DELETE FROM ghost",
		"CREATE TABLE parts (x TEXT)",
		"CREATE TABLE bad (x BLOB)",
		"SELECT p.* FROM parts q",
		"SELECT * FROM parts p JOIN parts p ON p.sku = p.sku",
		"SELECT COUNT(*, 2) FROM parts",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	// Duplicate key insert fails midway and reports the error.
	if _, err := db.Exec("INSERT INTO parts (sku, name, price, qty, sid) VALUES ('P1', 'dup', 1.0, 1, 1)"); err == nil {
		t.Error("duplicate insert should fail")
	}
}
