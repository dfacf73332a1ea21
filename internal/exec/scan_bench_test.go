package exec

import (
	"context"
	"fmt"
	"io"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
	"cohera/internal/wrapper"
)

// The site-side scan micro-benchmarks: one 5 000-row catalog shard (the
// standing benchmark's shard size, sku indexed), driven through the two
// entry points every federated read reaches — Database.SelectStream
// (in-process sites) and ERPSource.FetchPushStream (the source behind
// remote.Server.PublishTable).

const benchShardRows = 5000

// benchShard loads one catalog shard whose qty column is rewritten to
// i % 1000, so a one-value qty range selects exactly 0.1 % of the rows
// and a hundred-value range 10 %.
func benchShard(b *testing.B) (*Database, *storage.Table) {
	b.Helper()
	db := NewDatabase()
	if err := db.LoadRows(workload.CatalogDef(), benchShardData(b)); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTableIndex("catalog", "sku", false); err != nil {
		b.Fatal(err)
	}
	t, err := db.Table("catalog")
	if err != nil {
		b.Fatal(err)
	}
	return db, t
}

// benchShardData generates the shard's rows.
func benchShardData(b *testing.B) []storage.Row {
	b.Helper()
	sup := workload.Suppliers(1, benchShardRows, 0.05, 1)[0]
	rows, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range rows {
		r[0] = value.NewString(fmt.Sprintf("P%07d", i))
		r[6] = value.NewInt(int64(i % 1000))
	}
	return rows
}

// benchRows is the sink that keeps the drained row count live.
var benchRows int

func drainCount(b *testing.B, st storage.RowStream, want int) {
	b.Helper()
	n := 0
	for {
		_, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if n != want {
		b.Fatalf("drained %d rows, want %d", n, want)
	}
	benchRows += n
}

func benchSelect(b *testing.B, sql string, want int) {
	db, _ := benchShard(b)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(sqlparse.SelectStmt)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := db.SelectStream(ctx, sel)
		if err != nil {
			b.Fatal(err)
		}
		drainCount(b, st, want)
	}
}

func benchPushed(b *testing.B, where string, cols []string, want int) {
	_, t := benchShard(b)
	src := wrapper.NewERPSource("erp", t, "sku")
	var push wrapper.Pushdown
	if where != "" {
		e, err := sqlparse.ParseExpr(where)
		if err != nil {
			b.Fatal(err)
		}
		push.Where = e
	}
	push.Cols = cols
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := src.FetchPushStream(ctx, nil, push)
		if err != nil {
			b.Fatal(err)
		}
		drainCount(b, st, want)
	}
}

// BenchmarkFilterScan is the pushed predicate on an unindexed column —
// the heap filter scan under the standing benchmark's search, join and
// filter classes.
func BenchmarkFilterScan(b *testing.B) {
	b.Run("select/sel=0.1%", func(b *testing.B) {
		benchSelect(b, "SELECT sku, qty FROM catalog WHERE qty >= 500 AND qty < 501", benchShardRows/1000)
	})
	b.Run("select/sel=10%", func(b *testing.B) {
		benchSelect(b, "SELECT sku, qty FROM catalog WHERE qty >= 500 AND qty < 600", benchShardRows/10)
	})
	b.Run("pushed/sel=0.1%", func(b *testing.B) {
		benchPushed(b, "qty >= 500 AND qty < 501", []string{"sku", "qty"}, benchShardRows/1000)
	})
	b.Run("pushed/sel=10%", func(b *testing.B) {
		benchPushed(b, "qty >= 500 AND qty < 600", []string{"sku", "qty"}, benchShardRows/10)
	})
}

// BenchmarkWideScan ships every column of every row.
func BenchmarkWideScan(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		benchSelect(b, "SELECT * FROM catalog", benchShardRows)
	})
	b.Run("pushed", func(b *testing.B) {
		benchPushed(b, "", nil, benchShardRows)
	})
}

// BenchmarkPointLookup is one row by sku, through the sku index: the
// local engine's SELECT, and the same predicate pushed to a published
// table, which picks the index from the WHERE the same way.
func BenchmarkPointLookup(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		benchSelect(b, "SELECT * FROM catalog WHERE sku = 'P0002500'", 1)
	})
	b.Run("pushed", func(b *testing.B) {
		benchPushed(b, "sku = 'P0002500'", nil, 1)
	})
}
