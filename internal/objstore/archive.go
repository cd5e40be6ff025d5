package objstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metadata"
	"repro/internal/record"
)

// This file implements the archival pipeline of §4.4: raw logs land in the
// object store as row-oriented batches (the stand-in for Avro), and a
// compaction process merges them into column-oriented archive files (the
// stand-in for Parquet) that the batch/SQL layers read.
//
// Key layout:
//
//	rawlogs/<dataset>/<seq>      row batches, append order
//	archive/<dataset>/<part>    columnar parts produced by compaction

// RawLogWriter appends row batches for one dataset to the store. Batches are
// sequenced so compaction can consume them in arrival order. It is safe for
// concurrent use.
type RawLogWriter struct {
	store   Store
	dataset string
	codec   *record.Codec

	mu  sync.Mutex
	seq int64
}

// NewRawLogWriter creates a writer for dataset using the schema-bound codec.
func NewRawLogWriter(store Store, dataset string, codec *record.Codec) *RawLogWriter {
	return &RawLogWriter{store: store, dataset: dataset, codec: codec}
}

// Append encodes the records as one raw-log batch object.
func (w *RawLogWriter) Append(records []record.Record) error {
	if len(records) == 0 {
		return nil
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		payload, err := w.codec.Encode(r)
		if err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	w.mu.Lock()
	seq := w.seq
	w.seq++
	w.mu.Unlock()
	return w.store.Put(rawLogKey(w.dataset, seq), buf)
}

func rawLogKey(dataset string, seq int64) string {
	return fmt.Sprintf("rawlogs/%s/%012d", dataset, seq)
}

// decodeRawBatch parses one raw-log object back into records.
func decodeRawBatch(codec *record.Codec, data []byte) ([]record.Record, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("objstore: corrupt raw batch header")
	}
	data = data[n:]
	// Every record carries at least its one-byte length prefix.
	if count > uint64(len(data)) {
		return nil, fmt.Errorf("objstore: corrupt raw batch header")
	}
	out := make([]record.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		payload, rest, ok := readBytes(data)
		if !ok {
			return nil, fmt.Errorf("objstore: corrupt raw batch record %d", i)
		}
		r, err := codec.Decode(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		data = rest
	}
	return out, nil
}

// Compactor merges raw-log batches into columnar archive parts. One
// Compact() call consumes all raw batches written since the previous call
// and produces at most one new part — mirroring the periodic merge job the
// paper describes.
type Compactor struct {
	store   Store
	dataset string
	codec   *record.Codec

	mu       sync.Mutex
	nextPart int64
	consumed map[string]bool
}

// NewCompactor creates a compactor for one dataset.
func NewCompactor(store Store, dataset string, codec *record.Codec) *Compactor {
	return &Compactor{store: store, dataset: dataset, codec: codec, consumed: make(map[string]bool)}
}

// Compact reads unconsumed raw batches, writes one columnar part containing
// their rows, and deletes the consumed raw objects. It returns the number of
// rows compacted (0 when there is nothing new).
func (c *Compactor) Compact() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, err := c.store.List("rawlogs/" + c.dataset + "/")
	if err != nil {
		return 0, err
	}
	var rows []record.Record
	var toDelete []string
	for _, k := range keys {
		if c.consumed[k] {
			continue
		}
		data, err := c.store.Get(k)
		if err != nil {
			return 0, err
		}
		batch, err := decodeRawBatch(c.codec, data)
		if err != nil {
			return 0, fmt.Errorf("objstore: compacting %s: %w", k, err)
		}
		rows = append(rows, batch...)
		toDelete = append(toDelete, k)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	part, err := EncodeColumnar(c.codec.Schema(), rows)
	if err != nil {
		return 0, err
	}
	partKey := fmt.Sprintf("archive/%s/%06d", c.dataset, c.nextPart)
	if err := c.store.Put(partKey, part); err != nil {
		return 0, err
	}
	c.nextPart++
	for _, k := range toDelete {
		c.consumed[k] = true
		if err := c.store.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(rows), nil
}

// ArchiveReader reads back all columnar parts of a dataset — the batch-side
// source used by Kappa+ backfill (§7) and the archival SQL connector.
type ArchiveReader struct {
	store   Store
	dataset string
	schema  *metadata.Schema
}

// NewArchiveReader creates a reader over dataset's archive parts.
func NewArchiveReader(store Store, dataset string, schema *metadata.Schema) *ArchiveReader {
	return &ArchiveReader{store: store, dataset: dataset, schema: schema.Clone()}
}

// Parts lists the archive part keys in part order.
func (a *ArchiveReader) Parts() ([]string, error) {
	return a.store.List("archive/" + a.dataset + "/")
}

// ReadPart decodes one archive part into rows.
func (a *ArchiveReader) ReadPart(key string) ([]record.Record, error) {
	data, err := a.store.Get(key)
	if err != nil {
		return nil, err
	}
	return DecodeColumnar(a.schema, data)
}

// ReadAll decodes every part, in part order.
func (a *ArchiveReader) ReadAll() ([]record.Record, error) {
	parts, err := a.Parts()
	if err != nil {
		return nil, err
	}
	var rows []record.Record
	for _, p := range parts {
		batch, err := a.ReadPart(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// EncodeColumnar serializes rows column-major with per-column dictionary
// encoding for strings and varint packing for longs — the compact long-term
// format standing in for Parquet. The presence of each value is tracked in a
// per-column bitmap so nullable columns round-trip.
func EncodeColumnar(schema *metadata.Schema, rows []record.Record) ([]byte, error) {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema.Fields)))
	for _, f := range schema.Fields {
		col, err := encodeColumn(f, rows)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	return buf, nil
}

func encodeColumn(f metadata.Field, rows []record.Record) ([]byte, error) {
	var buf []byte
	bitmap := make([]byte, (len(rows)+7)/8)
	for i, r := range rows {
		if v, ok := r[f.Name]; ok && v != nil {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, bitmap...)
	switch f.Type {
	case metadata.TypeLong, metadata.TypeTimestamp:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.AppendVarint(buf, v.(int64))
			}
		}
	case metadata.TypeDouble:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
			}
		}
	case metadata.TypeBool:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				if v.(bool) {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	case metadata.TypeString:
		// Dictionary encode: sorted unique values, then per-row codes.
		dict := make(map[string]int)
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				dict[v.(string)] = 0
			}
		}
		values := make([]string, 0, len(dict))
		for s := range dict {
			values = append(values, s)
		}
		sort.Strings(values)
		for i, s := range values {
			dict[s] = i
		}
		buf = binary.AppendUvarint(buf, uint64(len(values)))
		for _, s := range values {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.AppendUvarint(buf, uint64(dict[v.(string)]))
			}
		}
	case metadata.TypeBytes:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				b := v.([]byte)
				buf = binary.AppendUvarint(buf, uint64(len(b)))
				buf = append(buf, b...)
			}
		}
	default:
		return nil, fmt.Errorf("objstore: unsupported column type %s", f.Type)
	}
	return buf, nil
}

// readBytes splits a uvarint-length-prefixed byte string off the front of
// data. The length is checked against the bytes that remain, so a corrupt
// length can neither overflow int nor reach past the buffer.
func readBytes(data []byte) (b, rest []byte, ok bool) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, nil, false
	}
	return data[n : n+int(l)], data[n+int(l):], true
}

// DecodeColumnar parses a columnar part produced by EncodeColumnar. Parts
// come from the deep store, so every count and length is checked against
// the bytes that remain before anything is allocated: corrupt input is an
// error, never a panic or an outsized allocation.
func DecodeColumnar(schema *metadata.Schema, data []byte) ([]record.Record, error) {
	nRows, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("objstore: corrupt columnar header")
	}
	data = data[n:]
	nCols, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("objstore: corrupt columnar header")
	}
	data = data[n:]
	// Each column takes at least two length bytes and carries a presence
	// bitmap of one bit per row.
	if nCols > uint64(len(data))/2 || nRows > 8*uint64(len(data)) {
		return nil, fmt.Errorf("objstore: corrupt columnar header (%d rows, %d columns in %d bytes)", nRows, nCols, len(data))
	}
	rows := make([]record.Record, nRows)
	for i := range rows {
		rows[i] = make(record.Record, len(schema.Fields))
	}
	for c := uint64(0); c < nCols; c++ {
		nameBytes, rest, ok := readBytes(data)
		if !ok {
			return nil, fmt.Errorf("objstore: corrupt column name")
		}
		name := string(nameBytes)
		col, rest, ok := readBytes(rest)
		if !ok {
			return nil, fmt.Errorf("objstore: corrupt column %q", name)
		}
		data = rest
		f, ok := schema.Field(name)
		if !ok {
			continue // column dropped from schema; skip
		}
		if err := decodeColumn(f, col, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func decodeColumn(f metadata.Field, col []byte, rows []record.Record) error {
	bitmapLen := (len(rows) + 7) / 8
	if len(col) < bitmapLen {
		return fmt.Errorf("objstore: corrupt bitmap for column %q", f.Name)
	}
	bitmap := col[:bitmapLen]
	col = col[bitmapLen:]
	present := func(i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }
	switch f.Type {
	case metadata.TypeLong, metadata.TypeTimestamp:
		for i := range rows {
			if !present(i) {
				continue
			}
			v, n := binary.Varint(col)
			if n <= 0 {
				return fmt.Errorf("objstore: truncated long column %q", f.Name)
			}
			rows[i][f.Name] = v
			col = col[n:]
		}
	case metadata.TypeDouble:
		for i := range rows {
			if !present(i) {
				continue
			}
			if len(col) < 8 {
				return fmt.Errorf("objstore: truncated double column %q", f.Name)
			}
			rows[i][f.Name] = math.Float64frombits(binary.LittleEndian.Uint64(col))
			col = col[8:]
		}
	case metadata.TypeBool:
		for i := range rows {
			if !present(i) {
				continue
			}
			if len(col) < 1 {
				return fmt.Errorf("objstore: truncated bool column %q", f.Name)
			}
			rows[i][f.Name] = col[0] != 0
			col = col[1:]
		}
	case metadata.TypeString:
		dictSize, n := binary.Uvarint(col)
		if n <= 0 {
			return fmt.Errorf("objstore: truncated dictionary for %q", f.Name)
		}
		col = col[n:]
		// Every entry carries at least its one-byte length prefix.
		if dictSize > uint64(len(col)) {
			return fmt.Errorf("objstore: truncated dictionary for %q", f.Name)
		}
		dict := make([]string, dictSize)
		for d := range dict {
			entry, rest, ok := readBytes(col)
			if !ok {
				return fmt.Errorf("objstore: truncated dictionary entry for %q", f.Name)
			}
			dict[d] = string(entry)
			col = rest
		}
		for i := range rows {
			if !present(i) {
				continue
			}
			code, n := binary.Uvarint(col)
			if n <= 0 || code >= dictSize {
				return fmt.Errorf("objstore: bad dictionary code for %q", f.Name)
			}
			rows[i][f.Name] = dict[code]
			col = col[n:]
		}
	case metadata.TypeBytes:
		for i := range rows {
			if !present(i) {
				continue
			}
			b, rest, ok := readBytes(col)
			if !ok {
				return fmt.Errorf("objstore: truncated bytes column %q", f.Name)
			}
			v := make([]byte, len(b))
			copy(v, b)
			rows[i][f.Name] = v
			col = rest
		}
	}
	return nil
}
