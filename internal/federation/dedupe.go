package federation

import (
	"bytes"
	"hash/maphash"

	"cohera/internal/storage"
	"cohera/internal/value"
)

// appendKey appends the encoding of r's primary key, the cells at
// keyIdx, to dst: the bytes value.AppendRowKey writes for the key row.
func appendKey(dst []byte, r storage.Row, keyIdx []int) []byte {
	for _, ki := range keyIdx {
		dst = value.AppendKey(dst, r[ki])
		dst = append(dst, 0)
	}
	return dst
}

// keySet is the streaming merge's primary-key dedupe set. It holds the
// encoded keys back to back in one arena; a 64-bit hash of each key
// points at the newest key with that hash, keys sharing a hash are
// chained, and a hash hit is confirmed by comparing the bytes, so a
// collision costs a compare, never a wrong answer, and no key becomes a
// string.
type keySet struct {
	hash  func([]byte) uint64 // nil: maphash under seed; tests force collisions
	seed  maphash.Seed
	arena []byte
	ends  []int          // key i is arena[ends[i-1]:ends[i]]
	heads map[uint64]int // hash → newest key with it
	prev  []int          // per key: the older key with its hash, or -1
}

func (s *keySet) key(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.arena[start:s.ends[i]]
}

// insert adds key, reporting whether it was absent.
func (s *keySet) insert(key []byte) bool {
	if s.heads == nil {
		s.seed = maphash.MakeSeed()
		s.heads = make(map[uint64]int)
	}
	var h uint64
	if s.hash != nil {
		h = s.hash(key)
	} else {
		h = maphash.Bytes(s.seed, key)
	}
	head, ok := s.heads[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = s.prev[i] {
		if bytes.Equal(s.key(i), key) {
			return false
		}
	}
	s.arena = append(s.arena, key...)
	s.ends = append(s.ends, len(s.arena))
	s.prev = append(s.prev, head)
	s.heads[h] = len(s.prev) - 1
	return true
}
