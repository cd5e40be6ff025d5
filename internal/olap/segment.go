package olap

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/metadata"
	"repro/internal/record"
)

// dictionary holds the sorted distinct values of one column. Codes are
// positions in sorted order, so range predicates become code ranges — the
// property the range "index" exploits.
type dictionary struct {
	Typ  metadata.FieldType
	Strs []string  // sorted, for string columns
	Nums []float64 // sorted, for numeric/bool columns (longs stored exactly up to 2^53)
}

func (d *dictionary) size() int {
	if d.Typ == metadata.TypeString {
		return len(d.Strs)
	}
	return len(d.Nums)
}

// lookup returns the code for a value, or -1 when absent.
func (d *dictionary) lookup(v any) int {
	if d.Typ == metadata.TypeString {
		s, ok := v.(string)
		if !ok {
			return -1
		}
		i := sort.SearchStrings(d.Strs, s)
		if i < len(d.Strs) && d.Strs[i] == s {
			return i
		}
		return -1
	}
	f, ok := toF64(v)
	if !ok {
		return -1
	}
	i := sort.SearchFloat64s(d.Nums, f)
	if i < len(d.Nums) && d.Nums[i] == f {
		return i
	}
	return -1
}

// codeRange returns the half-open code interval [lo, hi) of values in
// [min, max] (inclusive bounds; nil bound = open side).
func (d *dictionary) codeRange(min, max any) (int, int) {
	lo, hi := 0, d.size()
	if d.Typ == metadata.TypeString {
		if min != nil {
			if s, ok := min.(string); ok {
				lo = sort.SearchStrings(d.Strs, s)
			}
		}
		if max != nil {
			if s, ok := max.(string); ok {
				hi = sort.Search(len(d.Strs), func(i int) bool { return d.Strs[i] > s })
			}
		}
		return lo, hi
	}
	if min != nil {
		if f, ok := toF64(min); ok {
			lo = sort.SearchFloat64s(d.Nums, f)
		}
	}
	if max != nil {
		if f, ok := toF64(max); ok {
			hi = sort.Search(len(d.Nums), func(i int) bool { return d.Nums[i] > f })
		}
	}
	return lo, hi
}

// value returns the decoded value for a code.
func (d *dictionary) value(code int) any {
	if d.Typ == metadata.TypeString {
		return d.Strs[code]
	}
	f := d.Nums[code]
	switch d.Typ {
	case metadata.TypeLong, metadata.TypeTimestamp:
		return int64(f)
	case metadata.TypeBool:
		return f != 0
	default:
		return f
	}
}

func (d *dictionary) memBytes() int64 {
	var n int64 = 48
	for _, s := range d.Strs {
		n += int64(len(s)) + 16
	}
	n += int64(len(d.Nums) * 8)
	return n
}

func toF64(v any) (float64, bool) { return record.ToFloat64(v) }

// packedInts stores n small non-negative ints bit-packed at the minimal
// width — Pinot's "bit compressed forward indices" that the paper credits
// for its smaller footprint vs Druid (§4.3).
type packedInts struct {
	Bits uint
	N    int
	Data []uint64
}

func newPackedInts(values []int, maxValue int) packedInts {
	bits := uint(1)
	for (1 << bits) <= maxValue {
		bits++
	}
	p := packedInts{Bits: bits, N: len(values), Data: make([]uint64, (len(values)*int(bits)+63)/64)}
	for i, v := range values {
		p.set(i, uint64(v))
	}
	return p
}

func (p *packedInts) set(i int, v uint64) {
	bitPos := i * int(p.Bits)
	word, off := bitPos/64, uint(bitPos%64)
	p.Data[word] |= v << off
	if off+p.Bits > 64 {
		p.Data[word+1] |= v >> (64 - off)
	}
}

// Get returns the i-th packed value.
func (p *packedInts) Get(i int) int {
	bitPos := i * int(p.Bits)
	word, off := bitPos/64, uint(bitPos%64)
	v := p.Data[word] >> off
	if off+p.Bits > 64 {
		v |= p.Data[word+1] << (64 - off)
	}
	return int(v & ((1 << p.Bits) - 1))
}

func (p *packedInts) memBytes() int64 { return int64(len(p.Data)*8) + 24 }

// column is one dictionary-encoded column with optional secondary indexes.
type column struct {
	Field    metadata.Field
	Dict     dictionary
	Codes    packedInts
	Present  *Bitmap
	Inverted []*Bitmap // code -> row bitmap; nil when the index is disabled
	Sorted   bool      // rows are sorted by this column (codes non-decreasing)
}

func (c *column) memBytes() int64 {
	n := c.Dict.memBytes() + c.Codes.memBytes() + c.Present.MemBytes()
	for _, bm := range c.Inverted {
		if bm != nil {
			n += bm.MemBytes()
		}
	}
	return n
}

// IndexConfig selects the per-table index structures — the knobs the
// Druid-comparison experiment (E4) ablates.
type IndexConfig struct {
	// InvertedColumns get a code→bitmap inverted index.
	InvertedColumns []string
	// SortedColumn, when set, sorts segment rows by this column at build
	// time, enabling binary-search run lookup.
	SortedColumn string
	// StarTree enables the star-tree pre-aggregation index.
	StarTree *StarTreeConfig
}

func (ic IndexConfig) inverted(col string) bool {
	for _, c := range ic.InvertedColumns {
		if c == col {
			return true
		}
	}
	return false
}

// Segment is an immutable columnar chunk of a table — the unit of storage,
// replication, backup and query fan-out.
type Segment struct {
	Name    string
	Schema  *metadata.Schema
	NumRows int
	Columns map[string]*column
	Tree    *StarTree // nil unless configured
	MinTime int64
	MaxTime int64
	Sealed  bool
	// Partition is the upsert partition this segment belongs to (-1 when
	// the table is not upsert-enabled).
	Partition int
}

// BuildSegment constructs an immutable segment from rows. Rows are
// dictionary-encoded per column; secondary indexes follow cfg.
func BuildSegment(name string, schema *metadata.Schema, rows []record.Record, cfg IndexConfig, partition int) (*Segment, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("olap: segment %q has no rows", name)
	}
	// Sort rows by the sorted column first (segment-local clustering).
	if cfg.SortedColumn != "" {
		f, ok := schema.Field(cfg.SortedColumn)
		if !ok {
			return nil, fmt.Errorf("olap: sorted column %q not in schema", cfg.SortedColumn)
		}
		rows = append([]record.Record(nil), rows...)
		if f.Type == metadata.TypeString {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].String(cfg.SortedColumn) < rows[j].String(cfg.SortedColumn)
			})
		} else {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].Double(cfg.SortedColumn) < rows[j].Double(cfg.SortedColumn)
			})
		}
	}
	seg := &Segment{
		Name:      name,
		Schema:    schema.Clone(),
		NumRows:   len(rows),
		Columns:   make(map[string]*column, len(schema.Fields)),
		Sealed:    true,
		Partition: partition,
	}
	for _, f := range schema.Fields {
		if f.Type == metadata.TypeBytes {
			continue // blobs are not queryable; skip columnar encoding
		}
		col, err := buildColumn(f, rows, cfg)
		if err != nil {
			return nil, err
		}
		seg.Columns[f.Name] = col
	}
	if schema.TimeField != "" {
		seg.MinTime, seg.MaxTime = timeBounds(rows, schema.TimeField)
	}
	if cfg.StarTree != nil {
		tree, err := buildStarTree(seg, *cfg.StarTree)
		if err != nil {
			return nil, err
		}
		seg.Tree = tree
	}
	return seg, nil
}

func timeBounds(rows []record.Record, field string) (int64, int64) {
	min, max := rows[0].Long(field), rows[0].Long(field)
	for _, r := range rows[1:] {
		t := r.Long(field)
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return min, max
}

func buildColumn(f metadata.Field, rows []record.Record, cfg IndexConfig) (*column, error) {
	present := NewBitmap(len(rows))
	dict := dictionary{Typ: f.Type}
	if f.Type == metadata.TypeString {
		uniq := make(map[string]bool)
		for i, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				present.Set(i)
				uniq[r.String(f.Name)] = true
			}
		}
		dict.Strs = make([]string, 0, len(uniq))
		for s := range uniq {
			dict.Strs = append(dict.Strs, s)
		}
		sort.Strings(dict.Strs)
	} else {
		uniq := make(map[float64]bool)
		for i, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				present.Set(i)
				fv, ok := toF64(v)
				if !ok {
					return nil, fmt.Errorf("olap: column %q row %d: non-numeric %T", f.Name, i, v)
				}
				uniq[fv] = true
			}
		}
		dict.Nums = make([]float64, 0, len(uniq))
		for v := range uniq {
			dict.Nums = append(dict.Nums, v)
		}
		sort.Float64s(dict.Nums)
	}
	codes := make([]int, len(rows))
	maxCode := dict.size() // code==size() reserved for null
	for i, r := range rows {
		if !present.Get(i) {
			codes[i] = maxCode
			continue
		}
		var code int
		if f.Type == metadata.TypeString {
			code = dict.lookup(r.String(f.Name))
		} else {
			fv, _ := toF64(r[f.Name])
			code = dict.lookup(fv)
		}
		codes[i] = code
	}
	col := &column{
		Field:   f,
		Dict:    dict,
		Codes:   newPackedInts(codes, maxCode),
		Present: present,
		Sorted:  cfg.SortedColumn == f.Name,
	}
	if cfg.inverted(f.Name) {
		col.Inverted = make([]*Bitmap, dict.size())
		for i, code := range codes {
			if code == maxCode {
				continue
			}
			if col.Inverted[code] == nil {
				col.Inverted[code] = NewBitmap(len(rows))
			}
			col.Inverted[code].Set(i)
		}
	}
	return col, nil
}

// MemBytes approximates the segment's in-memory footprint.
func (s *Segment) MemBytes() int64 {
	var n int64 = 128
	for _, c := range s.Columns {
		n += c.memBytes()
	}
	if s.Tree != nil {
		n += s.Tree.memBytes()
	}
	return n
}

// Encode serializes the segment for the segment store / deep archival. The
// bit-packed columnar structures serialize compactly, which is what the
// disk-footprint experiment (E3) measures against the document store.
func (s *Segment) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("olap: encoding segment %q: %w", s.Name, err)
	}
	return buf.Bytes(), nil
}

// DecodeSegment parses a segment serialized by Encode.
func DecodeSegment(data []byte) (*Segment, error) {
	var s Segment
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("olap: decoding segment: %w", err)
	}
	return &s, nil
}

// DecodeRows reconstructs the segment's rows as records in doc-ID order —
// the input compaction feeds back through BuildSegment when merging many
// small sealed segments into one. Columns the segment never encoded
// (TypeBytes blobs) are absent from the decoded rows, matching what any
// query could observe.
func (s *Segment) DecodeRows() []record.Record {
	rows := make([]record.Record, s.NumRows)
	for i := range rows {
		r := make(record.Record, len(s.Columns))
		for name := range s.Columns {
			if v := s.value(name, i); v != nil {
				r[name] = v
			}
		}
		rows[i] = r
	}
	return rows
}

// value returns the decoded value of a column at a row (nil when absent).
func (s *Segment) value(col string, row int) any {
	c, ok := s.Columns[col]
	if !ok || !c.Present.Get(row) {
		return nil
	}
	return c.Dict.value(c.Codes.Get(row))
}

// double returns a column's numeric value at a row (0 when absent).
func (s *Segment) double(col string, row int) float64 {
	c, ok := s.Columns[col]
	if !ok || !c.Present.Get(row) {
		return 0
	}
	code := c.Codes.Get(row)
	if c.Field.Type == metadata.TypeString {
		return 0
	}
	return c.Dict.Nums[code]
}
