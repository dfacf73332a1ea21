package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// streamDB builds a small database for stream tests.
func streamDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE items (sku TEXT NOT NULL, qty INTEGER, price MONEY, PRIMARY KEY (sku))")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO items (sku, qty, price) VALUES ('sku-%02d', %d, '%d.00 USD')", i, i%7, 100+i))
	}
	return db
}

func mustExec(t *testing.T, db *Database, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func mustParseSelect(t *testing.T, sql string) sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(sqlparse.SelectStmt)
	if !ok {
		t.Fatalf("not a select: %s", sql)
	}
	return sel
}

// TestSelectStreamMatchesMaterialized asserts the streaming path and
// the materialized path produce identical rows for streamable shapes.
func TestSelectStreamMatchesMaterialized(t *testing.T) {
	db := streamDB(t)
	for _, sql := range []string{
		"SELECT * FROM items",
		"SELECT sku, qty FROM items WHERE qty > 3",
		"SELECT sku FROM items WHERE qty = 2 LIMIT 3",
		"SELECT sku, price FROM items LIMIT 10 OFFSET 5",
		"SELECT qty + 1 FROM items WHERE sku >= 'sku-40'",
		"SELECT * FROM items WHERE qty > 100", // empty
	} {
		sel := mustParseSelect(t, sql)
		want, err := db.Select(sel)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st, err := db.SelectStream(context.Background(), sel)
		if err != nil {
			t.Fatalf("%s: stream open: %v", sql, err)
		}
		got, err := storage.CollectRows(st)
		if err != nil {
			t.Fatalf("%s: stream drain: %v", sql, err)
		}
		if len(got) != len(want.Rows) {
			t.Fatalf("%s: stream %d rows, materialized %d", sql, len(got), len(want.Rows))
		}
		for i := range got {
			for j := range got[i] {
				if eq, err := got[i][j].Compare(want.Rows[i][j]); err != nil || eq != 0 {
					t.Fatalf("%s: row %d col %d: stream %v, materialized %v", sql, i, j, got[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

// TestSelectStreamFallback asserts non-streamable shapes still answer
// through the stream interface.
func TestSelectStreamFallback(t *testing.T) {
	db := streamDB(t)
	sel := mustParseSelect(t, "SELECT qty, COUNT(*) FROM items GROUP BY qty ORDER BY qty")
	if Streamable(sel) {
		t.Fatal("aggregate select must not be streamable")
	}
	st, err := db.SelectStream(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d groups, want 7", len(rows))
	}
}

// TestSelectStreamCancellation asserts ctx cancellation surfaces as an
// error from Next, not a silent short result.
func TestSelectStreamCancellation(t *testing.T) {
	db := streamDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := db.SelectStream(ctx, mustParseSelect(t, "SELECT * FROM items"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	if _, err := st.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
}

// TestSelectStreamCloseThenNext pins the reuse-after-Close contract.
func TestSelectStreamCloseThenNext(t *testing.T) {
	db := streamDB(t)
	st, err := db.SelectStream(context.Background(), mustParseSelect(t, "SELECT * FROM items"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Next(); !errors.Is(err, storage.ErrStreamClosed) {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestSelectStreamEarlyTermination asserts LIMIT stops the scan without
// touching the remaining rows: the predicate divides by zero on the
// second row (qty 1), which only an unlimited scan reaches.
func TestSelectStreamEarlyTermination(t *testing.T) {
	db := streamDB(t)
	const sql = "SELECT sku FROM items WHERE 10 / (qty - 1) < 100"
	st, err := db.SelectStream(context.Background(), mustParseSelect(t, sql+" LIMIT 1"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("post-limit Next = %v, want io.EOF", err)
	}
	all, err := db.SelectStream(context.Background(), mustParseSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := storage.CollectRows(all); err == nil || len(rows) != 1 {
		t.Fatalf("unlimited scan = %d rows, %v; want the first row, then the division error", len(rows), err)
	}
}
