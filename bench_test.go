package cohera_test

import (
	"context"
	"fmt"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/ir"
	"cohera/internal/mview"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// Micro-benchmarks on the engine's hot paths.

// BenchmarkLocalSelect measures the single-site executor on an indexed
// point query.
func BenchmarkLocalSelect(b *testing.B) {
	db := exec.NewDatabase()
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "payload", Kind: value.KindString},
	}, "id")
	tbl, err := db.CreateTable(def)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 10000; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewInt(i), value.NewString("x")}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT payload FROM t WHERE id = %d", i%10000)
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederatedSelect measures the full decompose-gather-recombine
// path over four fragments.
func BenchmarkFederatedSelect(b *testing.B) {
	fed := federation.New(federation.NewAgoric())
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "region", Kind: value.KindInt},
	}, "id")
	var frags []*federation.Fragment
	for i := 0; i < 4; i++ {
		s := federation.NewSite(fmt.Sprintf("s%d", i))
		if err := fed.AddSite(s); err != nil {
			b.Fatal(err)
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("region = %d", i))
		if err != nil {
			b.Fatal(err)
		}
		frags = append(frags, federation.NewFragment(fmt.Sprintf("f%d", i), pred, s))
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		b.Fatal(err)
	}
	for i, f := range frags {
		var rows []storage.Row
		for j := 0; j < 500; j++ {
			rows = append(rows, storage.Row{value.NewInt(int64(i*500 + j)), value.NewInt(int64(i))})
		}
		if err := fed.LoadFragment("t", f, rows); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Query(ctx, "SELECT COUNT(*) FROM t WHERE region = 2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the parser on a representative query.
func BenchmarkSQLParse(b *testing.B) {
	const q = `SELECT p.sku, s.name, SUM(p.qty) AS total FROM parts p
		JOIN suppliers s ON p.sid = s.id
		WHERE p.price BETWEEN 10 AND 500 AND FUZZY(p.name, 'drlls')
		GROUP BY p.sku, s.name HAVING SUM(p.qty) > 10 ORDER BY total DESC LIMIT 20`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzyLookup measures trigram fuzzy matching over the MRO
// vocabulary-scale term set.
func BenchmarkFuzzyLookup(b *testing.B) {
	ix := ir.NewIndex()
	for i, s := range workload.Suppliers(20, 20, 0, 1) {
		for j, it := range s.Items {
			ix.Add(int64(i*100+j), it.Name)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := ix.Search("drlls crdlss", ir.SearchOptions{Fuzzy: true, Limit: 5})
		if len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkBTreeInsert measures ordered-index maintenance.
func BenchmarkBTreeInsert(b *testing.B) {
	b.ReportAllocs()
	bt := storage.NewBTree()
	for i := 0; i < b.N; i++ {
		bt.Insert(value.NewInt(int64(i%100000)), int64(i))
	}
}

// BenchmarkTransformPipeline measures per-row normalization cost.
func BenchmarkTransformPipeline(b *testing.B) {
	sup := workload.Suppliers(1, 100, 0, 3)[0]
	rates := value.DefaultCurrencyTable()
	rows, err := workload.GroundTruthRows(sup, rates)
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.GroundTruthRows(sup, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatviewRefresh measures a view refresh over a 1k-row base.
func BenchmarkMatviewRefresh(b *testing.B) {
	fed := federation.New(federation.NewAgoric())
	s := federation.NewSite("s")
	if err := fed.AddSite(s); err != nil {
		b.Fatal(err)
	}
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	frag := federation.NewFragment("f", nil, s)
	if _, err := fed.DefineTable(def, frag); err != nil {
		b.Fatal(err)
	}
	var rows []storage.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, storage.Row{value.NewInt(i)})
	}
	if err := fed.LoadFragment("t", frag, rows); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	mgr, err := mview.NewManager(fed, "mv-cache")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Create(ctx, "snapshot", "SELECT id FROM t", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Refresh(ctx, "snapshot"); err != nil {
			b.Fatal(err)
		}
	}
}
