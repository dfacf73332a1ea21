package ir

import (
	"sort"
	"strings"
)

// Levenshtein returns the edit distance between a and b (insertions,
// deletions, substitutions all cost 1). It runs in O(len(a)·len(b)) time
// and O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(ra)+1)
	cur := make([]int, len(ra)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		cur[0] = j
		for i := 1; i <= len(ra); i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[i] = min3(cur[i-1]+1, prev[i]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(ra)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// EditSimilarity maps edit distance into [0,1]: 1 is identical, 0 shares
// nothing. It normalizes by the longer string so short typos score high.
func EditSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	longest := la
	if lb > longest {
		longest = lb
	}
	if longest == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(longest)
}

// NGrams returns the set of character n-grams of s, padded with '_' at the
// boundaries so prefixes and suffixes weigh in. Used for candidate
// generation: computing Levenshtein against every vocabulary term is too
// slow, so the fuzzy matcher first narrows by shared trigrams.
func NGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	padded := strings.Repeat("_", n-1) + strings.ToLower(s) + strings.Repeat("_", n-1)
	runes := []rune(padded)
	if len(runes) < n {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for i := 0; i+n <= len(runes); i++ {
		g := string(runes[i : i+n])
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// JaccardNGrams returns the Jaccard similarity of the trigram sets of a
// and b — a cheap fuzzy pre-filter.
func JaccardNGrams(a, b string, n int) float64 {
	ga, gb := NGrams(a, n), NGrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	set := make(map[string]bool, len(ga))
	for _, g := range ga {
		set[g] = true
	}
	inter := 0
	for _, g := range gb {
		if set[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// FuzzyMatcher finds vocabulary terms approximately matching a query term.
// It maintains a trigram index over the vocabulary for candidate
// generation, then ranks candidates by edit similarity.
//
// A removed term keeps its id and trigram entries but is marked dead, so
// Lookup never returns it and adding it again only revives the mark.
type FuzzyMatcher struct {
	gramN  int
	grams  map[string][]int // gram → term ids
	vocab  []string
	live   []bool         // parallel to vocab
	ids    map[string]int // term → id
	nLive  int
	minSim float64
}

// NewFuzzyMatcher returns a matcher accepting matches with edit similarity
// at least minSim (a good default is 0.6).
func NewFuzzyMatcher(minSim float64) *FuzzyMatcher {
	return &FuzzyMatcher{
		gramN:  3,
		grams:  make(map[string][]int),
		ids:    make(map[string]int),
		minSim: minSim,
	}
}

// Add inserts a vocabulary term. Duplicates are ignored.
func (m *FuzzyMatcher) Add(term string) {
	term = strings.ToLower(term)
	if id, ok := m.ids[term]; ok {
		if !m.live[id] {
			m.live[id] = true
			m.nLive++
		}
		return
	}
	id := len(m.vocab)
	m.ids[term] = id
	m.vocab = append(m.vocab, term)
	m.live = append(m.live, true)
	m.nLive++
	for _, g := range NGrams(term, m.gramN) {
		m.grams[g] = append(m.grams[g], id)
	}
}

// Remove takes a term out of the vocabulary; Lookup no longer returns
// it. Removing an unknown or already removed term is a no-op.
func (m *FuzzyMatcher) Remove(term string) {
	if id, ok := m.ids[strings.ToLower(term)]; ok && m.live[id] {
		m.live[id] = false
		m.nLive--
	}
}

// Len returns the vocabulary size: the terms added and not removed.
func (m *FuzzyMatcher) Len() int { return m.nLive }

// Match holds one fuzzy match and its similarity score.
type Match struct {
	Term  string
	Score float64
}

// Lookup returns vocabulary terms similar to q, best first, at most limit
// results (0 means no limit). An exact hit scores 1 and is always first.
func (m *FuzzyMatcher) Lookup(q string, limit int) []Match {
	q = strings.ToLower(q)
	counts := make(map[int]int)
	for _, g := range NGrams(q, m.gramN) {
		for _, id := range m.grams[g] {
			counts[id]++
		}
	}
	var out []Match
	for id, shared := range counts {
		// Cheap lower bound: too few shared grams cannot clear minSim.
		if shared < 1 || !m.live[id] {
			continue
		}
		term := m.vocab[id]
		sim := EditSimilarity(q, term)
		if sim >= m.minSim {
			out = append(out, Match{Term: term, Score: sim})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
