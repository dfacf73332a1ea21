package main

import (
	"fmt"
	"math/rand"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// suppliersDef is the small dimension table the interactive join
// reads: one row per supplier name.
func suppliersDef() *schema.Table {
	return schema.MustTable("suppliers", []schema.Column{
		{Name: "name", Kind: value.KindString, NotNull: true},
		{Name: "region", Kind: value.KindString},
		{Name: "tier", Kind: value.KindInt},
	}, "name")
}

func supplierRows(n int) []storage.Row {
	regions := []string{"emea", "amer", "apac", "latam"}
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			value.NewString(fmt.Sprintf("supplier-%02d", i)),
			value.NewString(regions[i%len(regions)]),
			value.NewInt(int64(1 + i%3)),
		}
	}
	return rows
}

// catalogShards generates `shards` catalog shards of n rows each from
// workload.Suppliers (one generated supplier per shard). SKUs are
// rewritten to a dense sortable key — prefix[shard] + 7 digits — so a
// shard is one sku range and fragment pruning can act on it.
func catalogShards(prefix []string, n int, seed int64) ([][]storage.Row, error) {
	sups := workload.Suppliers(len(prefix), n, 0.05, seed)
	rates := value.DefaultCurrencyTable()
	out := make([][]storage.Row, len(prefix))
	for s, sup := range sups {
		rows, err := workload.GroundTruthRows(sup, rates)
		if err != nil {
			return nil, fmt.Errorf("generating shard %d: %w", s, err)
		}
		for j, r := range rows {
			r[0] = value.NewString(skuAt(prefix[s], j))
		}
		out[s] = rows
	}
	return out, nil
}

func skuAt(prefix string, j int) string { return fmt.Sprintf("%s%07d", prefix, j) }

// cloneRows copies the row slices (values are immutable) so one
// generated shard can be loaded into several engines that each own
// their rows.
func cloneRows(rows []storage.Row) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = append(storage.Row(nil), r...)
	}
	return out
}

// op is one generated operation: the SQL handed to the program under
// test and the class it is accounted under.
type op struct {
	class int
	sql   string
}

// searchScope is the pushed part of every search statement. The
// federation evaluates text predicates at the coordinator over the
// rows the sites ship, so FUZZY and MATCHES expand against the
// vocabulary of that subset, not of the whole table; the oracle
// mirrors that by answering a search over the same subset (see
// oracle.answer).
const searchScope = "category = '%s' AND qty < 200"

// Interactive op classes, in the order class1..class4 report them.
const (
	classPoint = iota
	classSearch
	classJoin
	classFilter
	numClasses = 4
)

// readGen draws the read-side statements. Literals come from Zipf
// samplers so a small set of statements recurs — the property a plan
// or result cache would exploit — while the tail stays long.
type readGen struct {
	rng      *rand.Rand
	shards   int
	perShard int
	keyZipf  func() int
	qtyZipf  func() int
	searches []workload.SearchQuery
	catOf    map[string]string // canonical product → category code
	cats     []string
	block    []int // undealt rest of the current mix block
}

func newReadGen(seed int64, shards, perShard int) *readGen {
	g := &readGen{
		rng:      rand.New(rand.NewSource(seed)),
		shards:   shards,
		perShard: perShard,
		keyZipf:  workload.Zipf(shards*perShard, 1.1, seed+1),
		qtyZipf:  workload.Zipf(1000, 1.1, seed+2),
		searches: workload.SearchQueries(seed+3, 60),
		catOf:    make(map[string]string),
	}
	for _, p := range workload.MROVocabulary() {
		g.catOf[p.Canonical] = p.Category
		g.cats = append(g.cats, p.Category)
	}
	return g
}

// spreadRank maps a Zipf rank to a key index so the hot ranks spread
// over every shard instead of piling onto the first one.
func spreadRank(rank, total int) int { return (rank * 7919) % total }

func (g *readGen) hotKey() string {
	k := spreadRank(g.keyZipf(), g.shards*g.perShard)
	return skuAt(readPrefix(k/g.perShard), k%g.perShard)
}

func readPrefix(shard int) string { return string(rune('P' + shard)) }

func (g *readGen) point() op {
	return op{classPoint, fmt.Sprintf("SELECT sku, name, price, qty FROM catalog WHERE sku = '%s'", g.hotKey())}
}

// search scopes a workload.SearchQueries probe to the product's
// category, the way a catalog UI searches inside a department: the
// category conjunct is pushed to the sites, the text predicate runs at
// the coordinator over what they ship.
func (g *readGen) search() op {
	q := g.searches[g.rng.Intn(len(g.searches))]
	fn := "MATCHES"
	if q.Kind == "typo" {
		fn = "FUZZY"
	}
	return op{classSearch, fmt.Sprintf("SELECT sku, name FROM catalog WHERE "+searchScope+" AND %s(name, '%s')",
		g.catOf[q.Canonical], fn, q.Query)}
}

func (g *readGen) join() op {
	cat := g.cats[g.rng.Intn(len(g.cats))]
	return op{classJoin, fmt.Sprintf("SELECT c.sku, c.qty, s.region FROM catalog c JOIN suppliers s ON c.supplier = s.name WHERE c.category = '%s' AND c.qty < %d",
		cat, 10+10*g.rng.Intn(3))}
}

// filter is the pushed 0.1%-selectivity range predicate: qty is
// uniform on [0,1000), so one unit of qty is one row in a thousand.
func (g *readGen) filter() op {
	a := (g.qtyZipf() * 37) % 1000
	return op{classFilter, fmt.Sprintf("SELECT sku, qty FROM catalog WHERE qty >= %d AND qty < %d", a, a+1)}
}

// mixBlock is the interactive mix — 70% point, 15% search, 10% join,
// 5% filter — as one block of twenty ops. next deals shuffled blocks,
// so every run holds the classes in exactly these shares and only
// their order and literals depend on the seed.
var mixBlock = [20]int{
	classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint,
	classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint,
	classSearch, classSearch, classSearch, classJoin, classJoin, classFilter,
}

func (g *readGen) next() op {
	if len(g.block) == 0 {
		g.block = make([]int, len(mixBlock))
		for i, j := range g.rng.Perm(len(mixBlock)) {
			g.block[i] = mixBlock[j]
		}
	}
	class := g.block[0]
	g.block = g.block[1:]
	switch class {
	case classPoint:
		return g.point()
	case classSearch:
		return g.search()
	case classJoin:
		return g.join()
	default:
		return g.filter()
	}
}
