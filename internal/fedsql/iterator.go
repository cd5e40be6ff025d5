package fedsql

import (
	"context"

	"repro/internal/record"
)

// BatchRows is the row capacity of one streamed batch — matching the OLAP
// layer's scan window, so a batch crosses the connector boundary exactly as
// the segment kernels produced it.
const BatchRows = 4096

// Batch is one column-major batch of rows crossing the connector boundary:
// Cols[c][r] is the value of Columns[c] at batch row r, nil for SQL NULL.
// A batch is valid only until the iterator's following Next or Close call —
// iterators recycle the backing arrays.
type Batch struct {
	Columns []string
	Cols    [][]any
	Len     int
}

// Record copies batch row r into a record, omitting NULLs.
func (b *Batch) Record(r int) record.Record {
	rec := make(record.Record, len(b.Columns))
	for ci, c := range b.Columns {
		if v := b.Cols[ci][r]; v != nil {
			rec[c] = v
		}
	}
	return rec
}

// Bytes estimates the resident size of the batch's values — the unit the
// engine tracks as PeakEngineBytes.
func (b *Batch) Bytes() int64 {
	var n int64
	for ci := range b.Cols {
		for _, v := range b.Cols[ci][:b.Len] {
			n += approxValueBytes(v)
		}
	}
	return n
}

func approxValueBytes(v any) int64 {
	const word = 16 // interface header + typical boxed scalar
	if s, ok := v.(string); ok {
		return word + int64(len(s))
	}
	return word
}

// RowIterator is a connector's row scan: a pull-based stream of row
// batches. Exactly one consumer calls Next until io.EOF (or an error) and
// must Close on every path — Close is idempotent, safe mid-stream, and
// releases backend resources (the repolint iterclose analyzer enforces the
// discipline). Stats is complete once Next returned io.EOF or after Close.
type RowIterator interface {
	// Columns is the column order of every batch.
	Columns() []string
	// Next returns the next batch, or io.EOF at end of stream. The batch is
	// valid only until the following Next or Close call.
	Next(ctx context.Context) (*Batch, error)
	// Stats reports what the scan did; complete after io.EOF or Close. An
	// early-closed iterator reports only the work actually done.
	Stats() QueryStats
	// Close releases the iterator. Idempotent; required on all paths.
	Close() error
}
