package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/value"
)

// The model-based test for Table: a byte string is read as a sequence
// of insert / update / upsert / delete operations (plus bulk insert and
// bulk delete, which force compaction), applied both to a Table and to
// a map model. After every operation every index of the table must
// answer exactly as a table rebuilt from the model does.

// modelKeys is the primary-key domain: large enough that a bulk delete
// from a full table crosses the compaction threshold.
const modelKeys = 200

func modelDef() *schema.Table {
	return schema.MustTable("m", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true},
		{Name: "qty", Kind: value.KindInt},
		{Name: "cat", Kind: value.KindString},
		{Name: "w", Kind: value.KindFloat},
	}, "sku")
}

// newModelTable creates the table under test: a B-tree on the key and
// on qty, hash indexes on cat and on the float w (whose ±0 keys differ),
// and the inverted index on name.
func newModelTable(tb testing.TB) *Table {
	tbl := NewTable(modelDef())
	for _, c := range []string{"sku", "qty"} {
		if err := tbl.CreateIndex(c); err != nil {
			tb.Fatal(err)
		}
	}
	for _, c := range []string{"cat", "w"} {
		if err := tbl.CreateHashIndex(c); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// modelNames include terms that appear in one name only, so deleting or
// rewriting that row empties their postings.
var modelNames = []string{
	"cordless drill", "corded drill 18V", "claw hammer", "India ink bottle",
	"black ink", "fountain pen", "drill bits", "hammer drill", "saw blade",
	"drillz chuck", "drils of the week", "", "the",
}

var modelQueries = []string{"drill", "drlls", "ink", "hamer", "crdless drill", "black ink", "pen", "chuk"}

var (
	modelCats    = []value.Value{value.Null, value.NewString("a"), value.NewString("b"), value.NewString("c")}
	modelWeights = []value.Value{value.Null, value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1.5), value.NewFloat(math.NaN())}
)

func modelSKU(k int) value.Value { return value.NewString(fmt.Sprintf("k%03d", k%modelKeys)) }

// opReader hands out the op string's bytes, then zeros forever.
type opReader struct {
	data []byte
	i    int
}

func (r *opReader) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1])
}

func (r *opReader) name() value.Value {
	if n := r.next() % (len(modelNames) + 1); n < len(modelNames) {
		return value.NewString(modelNames[n])
	}
	return value.Null
}

func (r *opReader) qty() value.Value {
	if n := r.next() % 11; n < 10 {
		return value.NewInt(int64(n))
	}
	return value.Null
}

func (r *opReader) row() Row {
	return Row{modelSKU(r.next()), r.name(), r.qty(), modelCats[r.next()%len(modelCats)], modelWeights[r.next()%len(modelWeights)]}
}

// mutate returns a copy of old with the columns the next byte's low
// five bits select rewritten; zero rewrites nothing.
func (r *opReader) mutate(old Row) Row {
	out := old.Clone()
	flags := r.next()
	if flags&1 != 0 {
		out[1] = r.name()
	}
	if flags&2 != 0 {
		out[2] = r.qty()
	}
	if flags&4 != 0 {
		out[3] = modelCats[r.next()%len(modelCats)]
	}
	if flags&8 != 0 {
		out[4] = modelWeights[r.next()%len(modelWeights)]
	}
	if flags&16 != 0 {
		out[0] = modelSKU(r.next())
	}
	return out
}

// tableModel is the reference: live rows by id, and the key index.
type tableModel struct {
	rows  map[int64]Row
	byKey map[string]int64
}

func (m *tableModel) ids() []int64 {
	ids := make([]int64, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *tableModel) put(id int64, row Row) {
	if old, ok := m.rows[id]; ok {
		delete(m.byKey, old[0].Str())
	}
	m.rows[id] = row
	m.byKey[row[0].Str()] = id
}

func (m *tableModel) drop(id int64) {
	delete(m.byKey, m.rows[id][0].Str())
	delete(m.rows, id)
}

// pick returns a live id chosen by the next byte, or — one time in
// len+1 — an id the table does not hold.
func (m *tableModel) pick(r *opReader) int64 {
	ids := m.ids()
	if n := r.next() % (len(ids) + 1); n < len(ids) {
		return ids[n]
	}
	return 1 << 40
}

// runTableOps applies the op string to a fresh table and to the model,
// checking the table against a rebuilt one after every op. It returns
// how many compactions the table went through.
func runTableOps(t testing.TB, data []byte) (compactions int) {
	tbl := newModelTable(t)
	m := &tableModel{rows: make(map[int64]Row), byKey: make(map[string]int64)}
	r := &opReader{data: data}
	insert := func(row Row) {
		id, err := tbl.Insert(row)
		_, dup := m.byKey[row[0].Str()]
		switch {
		case dup && !errors.Is(err, ErrDuplicateKey):
			t.Fatalf("insert of existing key %v: err %v", row[0], err)
		case !dup && err != nil:
			t.Fatalf("insert %v: %v", row, err)
		case !dup:
			m.put(id, row)
		}
	}
	del := func(id int64) {
		err := tbl.Delete(id)
		if _, ok := m.rows[id]; !ok {
			if !errors.Is(err, ErrNoRow) {
				t.Fatalf("delete of missing id %d: err %v", id, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		m.drop(id)
	}
	for step := 0; r.i < len(r.data); step++ {
		heap := len(tbl.rows)
		switch op := r.next() % 8; op {
		case 0, 1:
			insert(r.row())
		case 2, 3: // update: unchanged, changed or NULLed columns, key moves
			id := m.pick(r)
			old, live := m.rows[id]
			if !live {
				old = r.row()
			}
			row := r.mutate(old)
			err := tbl.Update(id, row)
			owner, taken := m.byKey[row[0].Str()]
			switch {
			case !live:
				if !errors.Is(err, ErrNoRow) {
					t.Fatalf("update of missing id %d: err %v", id, err)
				}
			case taken && owner != id:
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("update of %d onto key %v held by %d: err %v", id, row[0], owner, err)
				}
			case err != nil:
				t.Fatalf("update %d to %v: %v", id, row, err)
			default:
				m.put(id, row)
			}
		case 4: // upsert: a replace when the key exists
			row := r.row()
			if prev, ok := m.byKey[row[0].Str()]; ok && r.next()%2 == 0 {
				row = r.mutate(m.rows[prev])
				row[0] = m.rows[prev][0]
			}
			id, err := tbl.Upsert(row)
			if err != nil {
				t.Fatalf("upsert %v: %v", row, err)
			}
			if prev, ok := m.byKey[row[0].Str()]; ok && prev != id {
				t.Fatalf("upsert of key %v gave id %d, the key's row is %d", row[0], id, prev)
			}
			m.put(id, row)
		case 5:
			del(m.pick(r))
		case 6: // bulk insert of absent keys
			start, n := r.next(), 16+r.next()%48
			for k := 0; k < modelKeys && n > 0; k++ {
				row := Row{modelSKU(start + k), value.NewString(modelNames[k%len(modelNames)]),
					value.NewInt(int64(k % 10)), modelCats[k%len(modelCats)], modelWeights[k%len(modelWeights)]}
				if _, ok := m.byKey[row[0].Str()]; !ok {
					insert(row)
					n--
				}
			}
		case 7: // bulk delete of two live rows in three
			keep := r.next() % 3
			for i, id := range m.ids() {
				if i%3 != keep {
					del(id)
				}
			}
		}
		if len(tbl.rows) < heap {
			compactions++
		}
		checkTableModel(t, tbl, m, fmt.Sprintf("step %d", step))
	}
	return compactions
}

// checkTableModel compares every index of tbl against a table rebuilt
// from the model. The rebuilt table receives the rows in ascending id
// order, so its ids are a monotone relabelling of tbl's and even
// tie-broken orders must agree once ids are mapped to keys.
func checkTableModel(t testing.TB, tbl *Table, m *tableModel, where string) {
	t.Helper()
	ref := newModelTable(t)
	for _, id := range m.ids() {
		if _, err := ref.Insert(m.rows[id]); err != nil {
			t.Fatalf("%s: rebuilding: %v", where, err)
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", where, fmt.Sprintf(format, args...))
	}
	if got, want := tbl.Digest(), ref.Digest(); !got.Equal(want) || got.Rows != len(m.rows) {
		fail("digest %+v, rebuilt %+v, model %d rows", got, want, len(m.rows))
	}
	if tbl.Len() != len(m.rows) {
		fail("Len %d, model %d", tbl.Len(), len(m.rows))
	}
	// Heap order and content.
	var scanned []int64
	tbl.Scan(func(id int64, row Row) bool {
		scanned = append(scanned, id)
		if !sameRow(row, m.rows[id]) {
			fail("row %d = %v, model %v", id, row, m.rows[id])
		}
		return true
	})
	if want := m.ids(); !slices.Equal(scanned, want) {
		fail("scan ids %v, model %v", scanned, want)
	}
	// Primary key.
	for key, id := range m.byKey {
		got, row, err := tbl.GetByKey(value.NewString(key))
		if err != nil || got != id || !sameRow(row, m.rows[id]) {
			fail("GetByKey(%s) = %d, %v, %v; model %d", key, got, row, err, id)
		}
	}
	for k := 0; k < modelKeys; k += 37 {
		key := modelSKU(k)
		if _, ok := m.byKey[key.Str()]; !ok {
			if _, _, err := tbl.GetByKey(key); !errors.Is(err, ErrNoRow) {
				fail("GetByKey(%v) of an absent key: err %v", key, err)
			}
		}
	}
	// Equality lookups on the B-trees (sku, qty) and the hashes (cat, w).
	keysOf := func(tb *Table, ids []int64, err error) []string {
		if err != nil {
			fail("lookup: %v", err)
		}
		out := make([]string, len(ids))
		for i, id := range ids {
			row, gerr := tb.Get(id)
			if gerr != nil {
				fail("lookup returned id %d: %v", id, gerr)
			}
			out[i] = row[0].Str()
		}
		slices.Sort(out)
		return out
	}
	probes := map[string][]value.Value{
		"sku": {modelSKU(0), modelSKU(7), modelSKU(150)},
		"cat": modelCats[1:],
		"w":   modelWeights[1:],
	}
	for q := 0; q < 10; q++ {
		probes["qty"] = append(probes["qty"], value.NewInt(int64(q)))
	}
	for col, vs := range probes {
		for _, v := range vs {
			ids, err := tbl.LookupEqual(col, v)
			got := keysOf(tbl, ids, err)
			ids, err = ref.LookupEqual(col, v)
			if want := keysOf(ref, ids, err); !slices.Equal(got, want) {
				fail("LookupEqual(%s, %v) = %v, rebuilt %v", col, v, got, want)
			}
		}
	}
	// Range lookups on the B-trees, open bounds included.
	ranges := []struct {
		col    string
		lo, hi value.Value
	}{
		{"qty", value.NewInt(2), value.NewInt(5)},
		{"qty", value.Null, value.NewInt(3)},
		{"qty", value.NewInt(7), value.Null},
		{"qty", value.Null, value.Null},
		{"sku", modelSKU(20), modelSKU(90)},
		{"sku", modelSKU(150), value.Null},
	}
	for _, rg := range ranges {
		ids, err := tbl.LookupRange(rg.col, rg.lo, rg.hi)
		got := keysOf(tbl, ids, err)
		ids, err = ref.LookupRange(rg.col, rg.lo, rg.hi)
		if want := keysOf(ref, ids, err); !slices.Equal(got, want) {
			fail("LookupRange(%s, %v, %v) = %v, rebuilt %v", rg.col, rg.lo, rg.hi, got, want)
		}
	}
	// Text search, plain / synonym / fuzzy: same keys, same scores, same
	// order.
	syn := ir.NewSynonyms()
	syn.Declare("black ink", "india ink")
	syn.Declare("hammer", "mallet")
	type hit struct {
		Key   string
		Score float64
	}
	hitsOf := func(tb *Table, q string, o ir.SearchOptions) []hit {
		hs, err := tb.TextSearch("name", q, o)
		if err != nil {
			fail("TextSearch(%q): %v", q, err)
		}
		out := make([]hit, len(hs))
		for i, h := range hs {
			row, gerr := tb.Get(h.DocID)
			if gerr != nil {
				fail("TextSearch(%q) returned id %d: %v", q, h.DocID, gerr)
			}
			out[i] = hit{row[0].Str(), h.Score}
		}
		return out
	}
	for _, q := range modelQueries {
		for _, o := range []ir.SearchOptions{{}, {Synonyms: syn}, {Fuzzy: true}, {Fuzzy: true, Synonyms: syn}} {
			if got, want := hitsOf(tbl, q, o), hitsOf(ref, q, o); !reflect.DeepEqual(got, want) {
				fail("TextSearch(%q, %+v) = %v, rebuilt %v", q, o, got, want)
			}
		}
	}
	if got, want := tbl.TextIndex("name").VocabSize(), ref.TextIndex("name").VocabSize(); got != want {
		fail("text vocabulary %d terms, rebuilt %d", got, want)
	}
}

// sameRow compares rows by their binary encoding, which tells -0.0
// from +0.0 where Equal does not.
func sameRow(a, b Row) bool {
	return bytes.Equal(value.AppendRow(nil, a), value.AppendRow(nil, b))
}

func TestTableAgainstModel(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 6; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		compactions += runTableOps(t, data)
	}
	if compactions == 0 {
		t.Error("no op sequence compacted the heap; the bulk ops no longer reach the threshold")
	}
}

// FuzzTableOps is TestTableAgainstModel with the op string from the
// fuzzer: any byte string is a valid sequence.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	// Insert; update every column (name, qty to NULL, cat, w to -0.0,
	// key move); delete.
	f.Add([]byte{0, 5, 3, 1, 1, 1, 2, 0, 31, 0, 10, 2, 2, 9, 5, 0})
	// Bulk-insert 189 rows, bulk-delete two in three (compacts), refill,
	// update changing nothing.
	f.Add([]byte{6, 0, 47, 6, 63, 47, 6, 126, 47, 7, 0, 6, 0, 47, 2, 5, 0})
	// Insert with w = +0.0; upsert the same key flipping w to -0.0;
	// upsert a fresh key.
	f.Add([]byte{0, 9, 1, 2, 1, 1, 4, 9, 1, 2, 1, 1, 0, 8, 2, 4, 12, 4, 3, 2, 3})
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400] // keep one input's check cost bounded
		}
		runTableOps(t, data)
	})
}
