package storage

import (
	"cohera/internal/value"
)

// Content digests for anti-entropy replica repair (see
// internal/federation's Reconciler). A table maintains an
// order-independent digest of its row content: the XOR of a stable
// 64-bit hash of every stored row. XOR is self-inverse, so the digest
// updates in O(1) on every insert, delete and in-place replace — two
// replicas that applied the same logical writes in any order report
// the same digest, and a replica that missed a write differs.
//
// The Rows count travels with the hash: a pair of identical rows in a
// keyless table XOR-cancels to the empty hash, so comparisons always
// check (Hash, Rows) together. Keyed tables cannot hold duplicate
// rows (the key is part of the row), so for them Hash alone is
// already collision-resistant up to the 64-bit birthday bound.

// TableDigest summarizes a table's (or a row subset's) content.
type TableDigest struct {
	// Hash is the XOR of RowHash over the covered rows (0 when empty).
	Hash uint64
	// Rows is the number of rows covered.
	Rows int
}

// Equal reports whether two digests describe identical content.
func (d TableDigest) Equal(o TableDigest) bool { return d.Hash == o.Hash && d.Rows == o.Rows }

// FNV-1a 64-bit parameters; inlined so hashing a row does not allocate
// a hash.Hash.
const (
	fnvOffset64 = 14695981039346816037
	fnvPrime64  = 1099511628211
)

// RowHash returns the stable content hash of a row: FNV-1a over the
// kind-tagged key encoding (value.AppendRowKey), so two rows hash
// identically iff their values are Equal column by column.
func RowHash(row Row) uint64 {
	buf := value.AppendRowKey(make([]byte, 0, 64), row)
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Digest returns the whole-table content digest. O(1): the hash is
// maintained incrementally by every mutation.
func (t *Table) Digest() TableDigest {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableDigest{Hash: t.digest, Rows: len(t.rows) - t.dead}
}

// DigestFunc digests the subset of rows match accepts — the
// per-fragment view of a table hosting several fragments. It scans
// under the read lock; match must not call back into the table or
// retain the row.
func (t *Table) DigestFunc(match func(Row) bool) TableDigest {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var d TableDigest
	for _, row := range t.rows {
		if row != nil && match(row) {
			d.Hash ^= RowHash(row)
			d.Rows++
		}
	}
	return d
}
