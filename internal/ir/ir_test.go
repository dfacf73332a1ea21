package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Cordless Drill, 18V (Heavy-Duty)")
	want := []string{"cordless", "drill", "18v", "heavy", "duty"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if Tokenize("") != nil {
		t.Error("Tokenize(empty) should be nil")
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"drills": "drill", "batteries": "battery", "glasses": "glass",
		"pass": "pass", "ink": "ink", "18v": "18v", "abc123s": "abc123s",
		"cats": "cat",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTerms(t *testing.T) {
	got := Terms("The drills of a Supplier")
	want := []string{"drill", "supplier"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "abc", 3},
		{"kitten", "sitting", 3}, {"drill", "drill", 0},
		{"drlls", "drills", 1}, {"crdlss", "cordless", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Levenshtein is symmetric, zero iff equal, and obeys the
// triangle inequality.
func TestLevenshteinMetricProperty(t *testing.T) {
	gen := func(r *rand.Rand) string {
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(4))
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Levenshtein(a, b) != Levenshtein(b, a) {
			return false
		}
		if (Levenshtein(a, b) == 0) != (a == b) {
			return false
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if EditSimilarity("drill", "drill") != 1 {
		t.Error("identical strings should score 1")
	}
	if s := EditSimilarity("drlls", "drills"); s < 0.8 {
		t.Errorf("drlls~drills = %g, want ≥ 0.8", s)
	}
	if s := EditSimilarity("xyz", "drill"); s > 0.3 {
		t.Errorf("xyz~drill = %g, want low", s)
	}
	if EditSimilarity("", "") != 1 {
		t.Error("empty strings should score 1")
	}
}

func TestNGrams(t *testing.T) {
	g := NGrams("ab", 3)
	// padded: __ab__ → __a, _ab, ab_, b__
	if len(g) != 4 {
		t.Errorf("NGrams(ab,3) = %v", g)
	}
	if NGrams("x", 0) != nil {
		t.Error("n=0 should be nil")
	}
	if s := JaccardNGrams("drill", "drill", 3); s != 1 {
		t.Errorf("Jaccard identical = %g", s)
	}
	if s := JaccardNGrams("drill", "zzzzz", 3); s != 0 {
		t.Errorf("Jaccard disjoint = %g", s)
	}
}

func TestFuzzyMatcher(t *testing.T) {
	m := NewFuzzyMatcher(0.6)
	for _, term := range []string{"cordless", "drill", "drills", "corded", "ink"} {
		m.Add(term)
	}
	m.Add("drill") // duplicate ignored
	if m.Len() != 5 {
		t.Errorf("Len = %d, want 5", m.Len())
	}
	got := m.Lookup("drlls", 3)
	if len(got) == 0 {
		t.Fatal("Lookup(drlls) found nothing")
	}
	if got[0].Term != "drill" && got[0].Term != "drills" {
		t.Errorf("Lookup(drlls)[0] = %v", got[0])
	}
	got = m.Lookup("crdlss", 3)
	if len(got) == 0 || got[0].Term != "cordless" {
		t.Errorf("Lookup(crdlss) = %v, want cordless first", got)
	}
	// Exact hit scores 1.
	got = m.Lookup("ink", 1)
	if len(got) != 1 || got[0].Score != 1 {
		t.Errorf("Lookup(ink) = %v", got)
	}
}

func TestSynonyms(t *testing.T) {
	s := NewSynonyms()
	s.Declare("India ink", "black ink")
	s.Declare("black ink", "fountain pen ink, black")
	got := s.Expand("india ink")
	if len(got) != 3 {
		t.Fatalf("Expand = %v, want 3 members", got)
	}
	// Transitive merge happened.
	found := false
	for _, p := range got {
		if p == "fountain pen ink black" {
			found = true
		}
	}
	if !found {
		t.Errorf("transitive synonym missing from %v", got)
	}
	// Unknown phrase returns itself normalized.
	if got := s.Expand("Cordless Drills"); len(got) != 1 || got[0] != "cordles drill" && got[0] != "cordless drill" {
		// stemmer folds "drills"→"drill"; "cordless"→"cordles" (strip s)
		t.Logf("Expand unknown = %v", got)
	}
	if s.Size() != 1 {
		t.Errorf("Size = %d, want 1 merged ring", s.Size())
	}
	// Merging two existing rings.
	s.Declare("pencil", "lead stick")
	s.Declare("pencil", "india ink") // merges both rings
	if s.Size() != 1 {
		t.Errorf("Size after merge = %d, want 1", s.Size())
	}
	s.Declare() // no-op
}

func TestSynonymExpandTerms(t *testing.T) {
	s := NewSynonyms()
	s.Declare("ink", "india ink")
	out := s.ExpandTerms([]string{"ink"})
	// Should include both "ink" and "india".
	has := func(term string) bool {
		for _, o := range out {
			if o == term {
				return true
			}
		}
		return false
	}
	if !has("ink") || !has("india") {
		t.Errorf("ExpandTerms = %v", out)
	}
}

func TestIndexAddSearch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "cordless drill 18V heavy duty")
	ix.Add(2, "corded drill 12V")
	ix.Add(3, "black India ink for fountain pens")
	if ix.DocCount() != 3 {
		t.Fatalf("DocCount = %d", ix.DocCount())
	}
	hits := ix.Search("cordless drill", SearchOptions{})
	if len(hits) == 0 || hits[0].DocID != 1 {
		t.Errorf("Search(cordless drill) = %v, want doc 1 first", hits)
	}
	// Both drill docs match "drill".
	hits = ix.Search("drill", SearchOptions{})
	if len(hits) != 2 {
		t.Errorf("Search(drill) = %v, want 2 hits", hits)
	}
	// Limit.
	hits = ix.Search("drill", SearchOptions{Limit: 1})
	if len(hits) != 1 {
		t.Errorf("limit not applied: %v", hits)
	}
}

func TestIndexFuzzySearch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "cordless drill")
	ix.Add(2, "black ink")
	// Exact search misses the typo.
	if hits := ix.Search("drlls crdlss", SearchOptions{}); len(hits) != 0 {
		t.Errorf("exact search on typos = %v, want none", hits)
	}
	// Fuzzy search recovers it — the paper's "drlls: crdlss" example.
	hits := ix.Search("drlls: crdlss", SearchOptions{Fuzzy: true})
	if len(hits) == 0 || hits[0].DocID != 1 {
		t.Errorf("fuzzy search = %v, want doc 1", hits)
	}
}

func TestIndexSynonymSearch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "India ink, 50ml bottle")
	ix.Add(2, "blue ballpoint pen")
	syn := NewSynonyms()
	syn.Declare("black ink", "india ink")
	hits := ix.Search("black ink", SearchOptions{Synonyms: syn})
	if len(hits) == 0 || hits[0].DocID != 1 {
		t.Errorf("synonym search = %v, want doc 1", hits)
	}
}

func TestIndexUpsertRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "drill")
	// Replacing a document is Remove of the indexed text, then Add.
	ix.Remove(1, "drill")
	ix.Add(1, "ink")
	if hits := ix.Search("drill", SearchOptions{}); len(hits) != 0 {
		t.Errorf("stale postings after replace: %v", hits)
	}
	if hits := ix.Search("ink", SearchOptions{}); len(hits) != 1 {
		t.Errorf("replacing content missing: %v", hits)
	}
	if ix.VocabSize() != 1 {
		t.Errorf("VocabSize after replace = %d, want 1", ix.VocabSize())
	}
	ix.Remove(1, "ink")
	if ix.DocCount() != 0 || ix.VocabSize() != 0 {
		t.Errorf("DocCount, VocabSize after remove = %d, %d", ix.DocCount(), ix.VocabSize())
	}
	ix.Remove(99, "ink") // unknown doc: no-op
	if hits := ix.Search("ink", SearchOptions{}); len(hits) != 0 {
		t.Errorf("search after remove = %v", hits)
	}
	// A repeated term is removed once; the doc's other terms survive in
	// other docs.
	ix.Add(2, "ink ink pen")
	ix.Add(3, "pen")
	ix.Remove(2, "ink ink pen")
	if hits := ix.Search("pen", SearchOptions{}); len(hits) != 1 || hits[0].DocID != 3 {
		t.Errorf("search(pen) after removing doc 2 = %v, want doc 3", hits)
	}
	// Adding a doc that is still indexed is a caller bug, not an upsert.
	defer func() {
		if recover() == nil {
			t.Error("Add of an indexed doc should panic")
		}
	}()
	ix.Add(3, "drill")
}

// A typo whose five nearest vocabulary terms have all been deleted must
// still reach the live sixth: fuzzy expansion considers only terms that
// still have postings.
func TestFuzzySkipsDeadVocabulary(t *testing.T) {
	ix := NewIndex()
	dead := []string{"drilla", "drillb", "drillc", "drilld", "drille"}
	for i, term := range dead {
		ix.Add(int64(i+1), term)
	}
	ix.Add(99, "drillzz")
	for i, term := range dead {
		ix.Remove(int64(i+1), term)
	}
	// "drillx" is one edit from each dead term and two from the live one.
	hits := ix.Search("drillx", SearchOptions{Fuzzy: true})
	if len(hits) != 1 || hits[0].DocID != 99 {
		t.Errorf("fuzzy search after deletes = %v, want doc 99", hits)
	}
	if ix.fuzzy.Len() != 1 {
		t.Errorf("fuzzy vocabulary = %d live terms, want 1", ix.fuzzy.Len())
	}
	// A deleted term that comes back is found again.
	ix.Add(1, dead[0])
	if hits := ix.Search("drillx", SearchOptions{Fuzzy: true}); len(hits) != 2 || hits[0].DocID != 1 {
		t.Errorf("fuzzy search after revival = %v, want doc 1 then 99", hits)
	}
}

func TestIndexContains(t *testing.T) {
	ix := NewIndex()
	ix.Add(7, "heavy duty cordless drill")
	if !ix.Contains(7, "cordless drill") {
		t.Error("Contains should match both terms")
	}
	if ix.Contains(7, "cordless saw") {
		t.Error("Contains should require all terms")
	}
	if ix.Contains(8, "drill") {
		t.Error("Contains on unknown doc")
	}
}

func TestIndexMinScore(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "drill drill drill")
	ix.Add(2, "drill and many other words about unrelated topics entirely")
	hits := ix.Search("drill", SearchOptions{})
	if len(hits) != 2 || hits[0].DocID != 1 {
		t.Fatalf("hits = %v", hits)
	}
	filtered := ix.Search("drill", SearchOptions{MinScore: hits[0].Score})
	if len(filtered) != 1 {
		t.Errorf("MinScore filter = %v", filtered)
	}
}

// Property: after any sequence of adds and removes, DocCount matches the
// set of live documents and search never returns a removed document.
func TestIndexLivenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		live := make(map[int64]string) // doc → indexed text
		words := []string{"drill", "ink", "pen", "forklift", "bulb"}
		for i := 0; i < 50; i++ {
			id := int64(r.Intn(10))
			if text, ok := live[id]; ok {
				ix.Remove(id, text) // remove before re-adding, as storage does
				delete(live, id)
			}
			if r.Intn(3) != 0 {
				text := words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
				ix.Add(id, text)
				live[id] = text
			}
		}
		if ix.DocCount() != len(live) {
			return false
		}
		for _, w := range words {
			for _, h := range ix.Search(w, SearchOptions{}) {
				if _, ok := live[h.DocID]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
