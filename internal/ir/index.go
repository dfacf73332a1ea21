package ir

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Posting records one document's occurrences of a term.
type Posting struct {
	// DocID identifies the document (the storage layer uses row ids).
	DocID int64
	// TF is the term frequency within the document.
	TF int
}

// Index is an inverted index with TF-IDF ranking. It supports incremental
// insertion and deletion so the storage layer can keep it transactionally
// consistent with table updates — the paper notes that mixing efficient
// text search with structured search under update is the hard part.
//
// Index is safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]Posting // term → postings sorted by DocID
	docLen   map[int64]int        // doc → token count
	fuzzy    *FuzzyMatcher
}

// NewIndex returns an empty inverted index with a trigram fuzzy matcher
// over its vocabulary.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		docLen:   make(map[int64]int),
		fuzzy:    NewFuzzyMatcher(0.6),
	}
}

// Add indexes the text under docID, which must not be indexed already:
// to replace a document, Remove it first. The index keeps no forward
// doc → terms map, so it could not undo the old content itself.
func (ix *Index) Add(docID int64, text string) {
	terms := Terms(text)
	slices.Sort(terms) // equal terms become runs: their length is the TF
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[docID]; ok {
		panic(fmt.Sprintf("ir: Add of doc %d, which is already indexed", docID))
	}
	if len(terms) == 0 {
		return
	}
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		t := terms[i]
		ps := ix.postings[t]
		if len(ps) == 0 {
			ix.fuzzy.Add(t)
		}
		ix.postings[t] = insertPosting(ps, Posting{DocID: docID, TF: j - i})
		i = j
	}
	ix.docLen[docID] = len(terms)
}

// Remove deletes a document from the index. text must be what Add
// indexed under docID: the document is taken out of those terms'
// postings only, so the cost is the document's terms, not the
// vocabulary. Removing an unknown docID is a no-op.
func (ix *Index) Remove(docID int64, text string) {
	terms := Terms(text)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[docID]; !ok {
		return
	}
	for _, t := range terms {
		ps := ix.postings[t]
		i := searchPostings(ps, docID)
		if i == len(ps) || ps[i].DocID != docID {
			continue // a repeated term, already removed
		}
		if len(ps) == 1 {
			delete(ix.postings, t)
			ix.fuzzy.Remove(t)
			continue
		}
		ix.postings[t] = append(ps[:i], ps[i+1:]...)
	}
	delete(ix.docLen, docID)
}

// searchPostings returns the first position in ps holding a DocID >=
// docID (len(ps) when none does).
func searchPostings(ps []Posting, docID int64) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].DocID >= docID })
}

// insertPosting adds a posting for a document ps does not hold yet.
func insertPosting(ps []Posting, p Posting) []Posting {
	i := searchPostings(ps, p.DocID)
	ps = append(ps, Posting{})
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	return ps
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLen)
}

// VocabSize returns the number of distinct terms.
func (ix *Index) VocabSize() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Hit is one ranked search result.
type Hit struct {
	DocID int64
	Score float64
}

// SearchOptions control query expansion.
type SearchOptions struct {
	// Synonyms, when non-nil, expands query terms through synonym rings.
	Synonyms *Synonyms
	// Fuzzy expands query terms to approximately matching vocabulary
	// terms (edit similarity ≥ 0.6), scoring them by similarity.
	Fuzzy bool
	// Limit caps the result count; 0 means unlimited.
	Limit int
	// MinScore drops hits scoring below the threshold.
	MinScore float64
}

// Search ranks documents against the query text by TF-IDF with cosine-style
// length normalization. Expanded terms (synonym or fuzzy) contribute with
// a weight equal to their match confidence.
func (ix *Index) Search(query string, opts SearchOptions) []Hit {
	qterms := Terms(query)
	if opts.Synonyms != nil {
		qterms = opts.Synonyms.ExpandTerms(qterms)
	}
	type weighted struct {
		term   string
		weight float64
	}
	var expanded []weighted
	seen := make(map[string]bool)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, t := range qterms {
		if !seen[t] {
			seen[t] = true
			expanded = append(expanded, weighted{t, 1})
		}
		if opts.Fuzzy {
			if _, exact := ix.postings[t]; exact {
				continue // exact vocabulary hit; no need to fuzz
			}
			for _, m := range ix.fuzzy.Lookup(t, 5) {
				if !seen[m.Term] {
					seen[m.Term] = true
					expanded = append(expanded, weighted{m.Term, m.Score})
				}
			}
		}
	}
	n := float64(len(ix.docLen))
	if n == 0 {
		return nil
	}
	scores := make(map[int64]float64)
	for _, w := range expanded {
		ps := ix.postings[w.term]
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(len(ps)))
		for _, p := range ps {
			dl := float64(ix.docLen[p.DocID])
			tf := float64(p.TF) / dl
			scores[p.DocID] += w.weight * tf * idf
		}
	}
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		if s >= opts.MinScore {
			hits = append(hits, Hit{DocID: id, Score: s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits
}

// Contains reports whether the document contains every term of the query
// (after analysis) — the boolean CONTAINS predicate, cheaper than ranking.
func (ix *Index) Contains(docID int64, query string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, t := range Terms(query) {
		ps := ix.postings[t]
		i := searchPostings(ps, docID)
		if i >= len(ps) || ps[i].DocID != docID {
			return false
		}
	}
	return true
}
