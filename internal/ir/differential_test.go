package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// diffWords mixes stems, stopwords, digits and near-typos so removals
// empty some terms' postings while their fuzzy neighbours stay live.
var diffWords = []string{
	"drill", "drills", "driller", "ink", "inks", "pen", "pens", "forklift",
	"bulb", "bulbs", "cordless", "corded", "hammer", "hammers", "claw",
	"saw", "18v", "a", "the", "of",
}

var diffQueries = []string{
	"drill", "drlls", "ink pen", "crdlss", "hamer", "bulb saw", "fork",
	"claw hammer", "18v", "the",
}

func diffText(r *rand.Rand) string {
	n := r.Intn(5) // 0 words (and all-stopword texts) index nothing
	words := make([]string, n)
	for i := range words {
		words[i] = diffWords[r.Intn(len(diffWords))]
	}
	return strings.Join(words, " ")
}

// TestIndexDifferential: after random Add/Remove sequences an index
// answers every plain, synonym and fuzzy query, and every Contains
// probe, exactly as a fresh index built from the surviving documents —
// removal by the doc's own terms leaves nothing behind, fuzzy
// expansion included.
func TestIndexDifferential(t *testing.T) {
	syn := NewSynonyms()
	syn.Declare("pen", "ink")
	syn.Declare("hammer", "claw")
	opts := []SearchOptions{{}, {Synonyms: syn}, {Fuzzy: true}, {Fuzzy: true, Synonyms: syn}}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		live := make(map[int64]string)
		for step := 0; step < 300; step++ {
			id := int64(r.Intn(40))
			if text, ok := live[id]; ok {
				ix.Remove(id, text)
				delete(live, id)
			} else if r.Intn(4) == 0 {
				ix.Remove(id, diffText(r)) // never indexed: a no-op
			}
			if r.Intn(3) != 0 {
				text := diffText(r)
				ix.Add(id, text)
				live[id] = text
			}
			if step%25 != 24 {
				continue
			}
			fresh := NewIndex()
			for id, text := range live {
				fresh.Add(id, text)
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if ix.DocCount() != fresh.DocCount() || ix.VocabSize() != fresh.VocabSize() || ix.fuzzy.Len() != fresh.fuzzy.Len() {
				t.Fatalf("%s: docs/vocab/fuzzy %d/%d/%d, fresh %d/%d/%d", where,
					ix.DocCount(), ix.VocabSize(), ix.fuzzy.Len(), fresh.DocCount(), fresh.VocabSize(), fresh.fuzzy.Len())
			}
			for _, q := range diffQueries {
				for _, o := range opts {
					if got, want := ix.Search(q, o), fresh.Search(q, o); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Search(%q, %+v) = %v, fresh index %v", where, q, o, got, want)
					}
				}
				for id := int64(0); id < 40; id++ {
					if ix.Contains(id, q) != fresh.Contains(id, q) {
						t.Fatalf("%s: Contains(%d, %q) differs from the fresh index", where, id, q)
					}
				}
			}
		}
	}
}

// BenchmarkIndexRemove prices taking one document out of indexes of
// growing vocabulary and putting it back, the text-index half of a
// storage UPDATE of a full-text column. Removal costs the document's
// own terms, so ns/op should not grow with the vocabulary. (It does
// grow with the length of those terms' postings, which each removal
// and insertion shifts; every document here has terms of its own.)
func BenchmarkIndexRemove(b *testing.B) {
	for _, vocab := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("vocab=%d", vocab), func(b *testing.B) {
			ix := NewIndex()
			docs := make([]string, vocab/4)
			for i := range docs {
				docs[i] = fmt.Sprintf("t%06d t%06d t%06d t%06d", 4*i, 4*i+1, 4*i+2, 4*i+3)
				ix.Add(int64(i), docs[i])
			}
			if ix.VocabSize() != vocab {
				b.Fatalf("vocabulary %d, want %d", ix.VocabSize(), vocab)
			}
			order := rand.New(rand.NewSource(1)).Perm(len(docs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := order[i%len(order)]
				ix.Remove(int64(id), docs[id])
				ix.Add(int64(id), docs[id])
			}
		})
	}
}
