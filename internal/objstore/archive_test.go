package objstore

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
	"repro/internal/record"
)

func archiveSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeLong},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "rush", Type: metadata.TypeBool},
			{Name: "payload", Type: metadata.TypeBytes, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
			{Name: "note", Type: metadata.TypeString, Nullable: true},
		},
		TimeField: "ts",
	}
}

func orderRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"id":     int64(i),
			"city":   cities[i%len(cities)],
			"amount": float64(i) * 1.5,
			"rush":   i%3 == 0,
			"ts":     int64(1700000000000 + i*1000),
		}
		if i%2 == 0 {
			rows[i]["note"] = fmt.Sprintf("note-%d", i%5)
		}
		if i%7 == 0 {
			rows[i]["payload"] = []byte{byte(i), byte(i + 1)}
		}
	}
	return rows
}

func TestColumnarRoundTrip(t *testing.T) {
	s := archiveSchema()
	rows := orderRows(100)
	data, err := EncodeColumnar(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumnar(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("row count %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		want, _ := record.Conform(rows[i], s)
		if !reflect.DeepEqual(map[string]any(got[i]), map[string]any(want)) {
			t.Fatalf("row %d mismatch:\n got %v\nwant %v", i, got[i], want)
		}
	}
}

func TestColumnarEmpty(t *testing.T) {
	s := archiveSchema()
	data, err := EncodeColumnar(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumnar(s, data)
	if err != nil || len(got) != 0 {
		t.Errorf("empty round trip = %v, %v", got, err)
	}
}

func TestColumnarDictionaryCompression(t *testing.T) {
	// Low-cardinality string columns should compress far better than the
	// row-oriented encoding: the dictionary stores each distinct value once.
	s := &metadata.Schema{
		Name:    "dict",
		Version: 1,
		Fields:  []metadata.Field{{Name: "city", Type: metadata.TypeString}},
	}
	rows := make([]record.Record, 10000)
	for i := range rows {
		rows[i] = record.Record{"city": fmt.Sprintf("city-%d", i%4)}
	}
	colData, err := EncodeColumnar(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := record.NewCodec(s)
	var rowBytes int
	for _, r := range rows {
		b, _ := codec.Encode(r)
		rowBytes += len(b)
	}
	if len(colData)*4 > rowBytes {
		t.Errorf("columnar %dB should be <25%% of row %dB for 4-value column", len(colData), rowBytes)
	}
}

func TestRawLogAndCompactor(t *testing.T) {
	store := NewMemStore()
	s := archiveSchema()
	codec, err := record.NewCodec(s)
	if err != nil {
		t.Fatal(err)
	}
	w := NewRawLogWriter(store, "orders", codec)
	rows := orderRows(50)
	if err := w.Append(rows[:20]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rows[20:35]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(nil); err != nil {
		t.Fatal(err) // empty append is a no-op
	}

	raw, _ := store.List("rawlogs/orders/")
	if len(raw) != 2 {
		t.Fatalf("raw batches = %d, want 2", len(raw))
	}

	c := NewCompactor(store, "orders", codec)
	n, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 35 {
		t.Errorf("compacted %d rows, want 35", n)
	}

	// Raw logs consumed and deleted.
	raw, _ = store.List("rawlogs/orders/")
	if len(raw) != 0 {
		t.Errorf("raw logs remain after compaction: %v", raw)
	}

	// Second compaction with nothing new is a no-op.
	if n, err := c.Compact(); err != nil || n != 0 {
		t.Errorf("idle compaction = %d, %v", n, err)
	}

	// New raw data produces a second part.
	if err := w.Append(rows[35:]); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Compact(); err != nil || n != 15 {
		t.Errorf("second compaction = %d, %v; want 15", n, err)
	}

	reader := NewArchiveReader(store, "orders", s)
	parts, err := reader.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %v, want 2", parts)
	}
	all, err := reader.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("archive rows = %d, want 50", len(all))
	}
	for i, r := range all {
		if r.Long("id") != int64(i) {
			t.Fatalf("archive order broken at %d: id=%d", i, r.Long("id"))
		}
	}
}

func TestDecodeColumnarSkipsDroppedColumns(t *testing.T) {
	full := archiveSchema()
	rows := orderRows(10)
	data, err := EncodeColumnar(full, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Reader schema without the "note" column still decodes.
	reduced := full.Clone()
	var fields []metadata.Field
	for _, f := range reduced.Fields {
		if f.Name != "note" {
			fields = append(fields, f)
		}
	}
	reduced.Fields = fields
	got, err := DecodeColumnar(reduced, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[0]["note"]; ok {
		t.Error("dropped column decoded anyway")
	}
	if got[0].String("city") != "sf" {
		t.Error("remaining columns should decode")
	}
}

func TestColumnarCorruptData(t *testing.T) {
	s := archiveSchema()
	if _, err := DecodeColumnar(s, nil); err == nil {
		t.Error("empty input should error")
	}
	data, _ := EncodeColumnar(s, orderRows(5))
	if _, err := DecodeColumnar(s, data[:len(data)/2]); err == nil {
		t.Error("truncated input should error")
	}
}

func TestColumnarProperty(t *testing.T) {
	// Property: longs survive columnar round-trip in order.
	s := &metadata.Schema{
		Name:    "p",
		Version: 1,
		Fields:  []metadata.Field{{Name: "v", Type: metadata.TypeLong}},
	}
	f := func(vals []int64) bool {
		rows := make([]record.Record, len(vals))
		for i, v := range vals {
			rows[i] = record.Record{"v": v}
		}
		data, err := EncodeColumnar(s, rows)
		if err != nil {
			return false
		}
		got, err := DecodeColumnar(s, data)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got[i].Long("v") != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzRows derives archiveSchema rows from fuzz input, four bytes a row,
// with the nullable columns present or NULL by the input's bits.
func fuzzRows(data []byte) []record.Record {
	var rows []record.Record
	for ; len(data) >= 4; data = data[4:] {
		c := data[:4]
		r := record.Record{
			"id":     int64(int8(c[0])) * 1_000_003,
			"city":   fmt.Sprintf("c%d", c[1]%8),
			"amount": float64(int8(c[2])) / 4,
			"rush":   c[3]&1 == 1,
			"ts":     int64(c[0]) << 40,
		}
		if c[3]&2 != 0 {
			r["note"] = string(c[1:3])
		}
		if c[3]&4 != 0 {
			r["payload"] = append([]byte{}, c[:c[3]%5]...)
		}
		rows = append(rows, r)
	}
	return rows
}

// FuzzDecodeColumnar: archive parts are read back from the deep store, so
// DecodeColumnar must turn any corrupt input into an error, never a panic,
// and every EncodeColumnar output must round-trip exactly.
func FuzzDecodeColumnar(f *testing.F) {
	s := archiveSchema()
	valid, err := EncodeColumnar(s, orderRows(20))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A row count that would size a slice past the address space.
	huge := binary.AppendUvarint(nil, 1<<62)
	f.Add(append(binary.AppendUvarint(huge, 1), 0, 0))
	// A column-name length that overflows int.
	name := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1)
	f.Add(append(binary.AppendUvarint(name, 1<<63), "id"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeColumnar(s, data) // corrupt input: an error is fine, a panic is not

		rows := fuzzRows(data)
		enc, err := EncodeColumnar(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeColumnar(s, enc)
		if err != nil {
			t.Fatalf("valid part rejected: %v", err)
		}
		if len(got) != len(rows) {
			t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			if !reflect.DeepEqual(map[string]any(got[i]), map[string]any(rows[i])) {
				t.Fatalf("row %d:\n got %v\nwant %v", i, got[i], rows[i])
			}
		}
	})
}
