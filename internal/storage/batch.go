package storage

import "sync"

// DefaultBatchRows is the row-batch size streaming layers use when the
// caller does not configure one. Large enough to amortize per-batch
// overhead (one wire frame, one channel send), small enough that
// per-query coordinator memory stays O(batch × fragments).
const DefaultBatchRows = 256

// Batch is a reusable slice of rows flowing through the streaming
// pipeline. Batches come from a process-wide sync.Pool so the hot
// scatter-gather path does not allocate a fresh slice per chunk.
type Batch struct {
	Rows []Row
}

var batchPool = sync.Pool{
	New: func() any {
		return &Batch{Rows: make([]Row, 0, DefaultBatchRows)}
	},
}

// GetBatch returns an empty pooled batch.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Rows = b.Rows[:0]
	return b
}

// PutBatch returns a batch to the pool. The caller must not touch the
// batch afterwards; row references are dropped so pooled memory does
// not pin row data between uses.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.Rows {
		b.Rows[i] = nil
	}
	b.Rows = b.Rows[:0]
	batchPool.Put(b)
}
