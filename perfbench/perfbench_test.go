package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := generate(7, 500, 300, 100, 20*time.Millisecond)
	b := generate(7, 500, 300, 100, 20*time.Millisecond)
	c := generate(8, 500, 300, 100, 20*time.Millisecond)
	if !reflect.DeepEqual(a.static, b.static) || !reflect.DeepEqual(a.live, b.live) || !reflect.DeepEqual(a.dims, b.dims) {
		t.Fatal("same seed generated different inputs")
	}
	if reflect.DeepEqual(a.static, c.static) {
		t.Fatal("different seeds generated the same backlog")
	}
	if _, err := a.encode(nil, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := b.encode(nil, 100); err != nil {
		t.Fatal(err)
	}
	for i := range a.staticPayloads {
		if !bytes.Equal(a.staticPayloads[i], b.staticPayloads[i]) {
			t.Fatalf("payload %d differs between runs of one seed", i)
		}
	}
	// Live rows are scheduled batch by batch after the backlog's time range.
	if got := a.live[100].ts - a.live[99].ts; got != 20 {
		t.Fatalf("batch spacing = %dms, want 20", got)
	}
	if a.live[0].ts <= a.static[len(a.static)-1].ts {
		t.Fatal("live rows overlap the backlog's time range")
	}
	qa := makeQueries(7, a)
	qb := makeQueries(7, b)
	for _, k := range kinds {
		for i := range qa[k] {
			if qa[k][i].sql != qb[k][i].sql || !reflect.DeepEqual(qa[k][i].want, qb[k][i].want) {
				t.Fatalf("%s query %d differs between runs of one seed", k, i)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n        int
		want     float64
		pct, val float64
	}{
		{1000, 99, 99, 990},  // exactly 10 samples beyond p99
		{500, 99, 98, 490},   // p99 would leave 5 beyond; p98 leaves 10
		{1010, 99, 99, 1000}, // ceil(999.9)
		{15, 99, 50, 8},      // too few for a tail: the median
		{1000, 50, 50, 500},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.want)
		if got.Pct != c.pct || got.Value != c.val || got.N != c.n {
			t.Errorf("n=%d p%v: got %+v, want pct %v value %v", c.n, c.want, got, c.pct, c.val)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if c.pct != 50 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] with children [10,30], [20,50] (overlapping) and [60,70];
	// the grandchild [12,14] must not count against the root.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 1, Start: 12, End: 14},
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	children := childIndex(spans)
	for id, want := range map[int32]int64{0: 100 - 40 - 10, 1: 20 - 2, 2: 30, 4: 2, 5: 10} {
		if got := selfTime(spans, children, id); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	// A child running past its parent's end counts only inside the parent.
	if got := covered(spans, []int32{2}, 40, 45); got != 5 {
		t.Errorf("covered = %d, want 5", got)
	}
}

func TestEngineSelfTime(t *testing.T) {
	// An aggregate scan ends before the engine works on its rows: the
	// engine's self time is the query span minus the scan, 100-30 = 70.
	// A row scan stays open while the engine consumes its batches, and the
	// server stream beneath it blocks meanwhile, so the streamed query's
	// engine time is reported missing rather than as the few ns outside it.
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.query", Kind: "sql_agg", Start: 0, End: 110},
		{ID: 1, Parent: 0, Name: "fedsql.query", Kind: "sql_agg", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scan", Kind: "sql_agg", Access: "aggregate-scan", Start: 10, End: 40, Rows: 12},
		{ID: 3, Parent: 2, Name: "broker.execute", Kind: "sql_agg", Start: 11, End: 39},
		{ID: 4, Parent: -1, Name: "bench.query", Kind: "sql_select", Start: 200, End: 310},
		{ID: 5, Parent: 4, Name: "fedsql.query", Kind: "sql_select", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "scan", Kind: "sql_select", Access: "row-scan", Start: 205, End: 298, Rows: 1000},
		{ID: 7, Parent: 6, Name: "server.stream", Kind: "sql_select", Start: 206, End: 297},
	}
	m := newMetricSet()
	readSpans(spans).put(m)
	if got := m.metrics["fedsql.engine_self_ms.sql_agg"].Value; got != 70e-6 {
		t.Errorf("sql_agg engine self time = %v ms, want 70e-6", got)
	}
	if _, ok := m.metrics["fedsql.engine_self_ms.sql_select"]; ok {
		t.Error("streamed sql_select reported an engine self time")
	}
	missing := false
	for _, name := range m.missing {
		missing = missing || name == "fedsql.engine_self_ms.sql_select"
	}
	if !missing {
		t.Errorf("streamed sql_select not listed as missing: %v", m.missing)
	}
}

func tinyDataset() *dataset {
	ev := func(id int64, city, status, rest string, amount float64) event {
		return event{orderID: id, city: city, status: status, restaurant: rest, amount: amount, ts: staticT0 + id*staticStepMs}
	}
	return &dataset{
		static: []event{
			ev(0, "sf", "delivered", "a", 10),
			ev(1, "sf", "cancelled", "b", 5.5),
			ev(2, "nyc", "delivered", "a", 2.25),
			ev(3, "nyc", "delivered", "c", 4),
			ev(4, "la", "delivered", "b", 1),
			ev(5, "sf", "delivered", "c", 3),
		},
		cuisine: map[string]string{"a": "thai", "b": "pizza", "c": "thai"},
	}
}

func TestReferenceEvaluator(t *testing.T) {
	ds := tinyDataset()
	all := func(kind string) spec {
		return spec{kind: kind, lo: staticT0, hi: staticT0 + 100, city: "sf", status: "delivered",
			cities: []string{"sf", "la"}, minAmount: 3}
	}
	check := func(s spec, rows ...[]any) {
		t.Helper()
		q := &query{spec: s, want: reference(&s, ds)}
		if err := q.check(rows); err != nil {
			t.Errorf("%s: %v (reference %+v)", s.kind, err, q.want)
		}
	}
	check(all("agg"),
		[]any{"sf", 13.0, int64(2), 6.5}, []any{"la", 1.0, int64(1), 1.0}, []any{"nyc", 6.25, int64(2), 3.125})
	check(all("multigroup"),
		[]any{"nyc", "delivered", int64(1), 4.0}, []any{"sf", "cancelled", int64(1), 5.5},
		[]any{"sf", "delivered", int64(2), 13.0})
	check(all("distinct"), []any{"la", int64(1)}, []any{"sf", int64(3)})
	check(all("sql_agg"), []any{"delivered", int64(2), 13.0}, []any{"cancelled", int64(1), 5.5})
	check(all("sql_join"), []any{"pizza", int64(1), 5.5}, []any{"thai", int64(2), 13.0})
	check(all("topk"), []any{"a", 12.25}, []any{"c", 7.0}, []any{"b", 1.0})
	check(all("sql_select"), []any{int64(0), 10.0}, []any{int64(5), 3.0})

	// The event-time window excludes rows outside it.
	narrow := all("agg")
	narrow.hi = staticT0 + 2*staticStepMs
	check(narrow, []any{"nyc", 2.25, int64(1), 2.25}, []any{"sf", 10.0, int64(1), 10.0})

	// Wrong answers are rejected.
	wrong := []struct {
		s    spec
		rows [][]any
	}{
		{all("agg"), [][]any{{"sf", 13.0, int64(2), 6.5}, {"la", 1.0, int64(1), 1.0}}},
		{all("sql_agg"), [][]any{{"cancelled", int64(1), 5.5}, {"delivered", int64(2), 13.0}}},
		{all("distinct"), [][]any{{"la", int64(1)}, {"sf", int64(2)}}},
		{all("topk"), [][]any{{"c", 7.0}, {"a", 12.25}, {"b", 1.0}}},
		{all("sql_select"), [][]any{{int64(0), 10.0}, {int64(0), 10.0}}},
		{all("sql_select"), [][]any{{int64(0), 10.0}, {int64(1), 5.5}}},
	}
	for _, w := range wrong {
		q := &query{spec: w.s, want: reference(&w.s, ds)}
		if q.check(w.rows) == nil {
			t.Errorf("%s: wrong answer %v accepted", w.s.kind, w.rows)
		}
	}
}

func TestTopKAcceptsTiesAtTheBoundary(t *testing.T) {
	want := answer{groupSum: map[string]float64{}}
	for i := 0; i < topK+1; i++ {
		want.groupSum[string(rune('a'+i))] = 5 // every group ties
	}
	want.cutoff = 5
	var rows [][]any
	for i := 1; i <= topK; i++ { // leaves out "a", which ties with the rest
		rows = append(rows, []any{string(rune('a' + i)), 5.0})
	}
	if err := checkTopK(want, rows); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, every: 20 * time.Millisecond}
	if got := s.due(3); !got.Equal(start.Add(60 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Early or on time is not late; a stall makes every batch behind it late
	// by the time it still owes, measured from each batch's own due time.
	starts := []time.Duration{0, 19 * time.Millisecond, 95 * time.Millisecond, 96 * time.Millisecond, 97 * time.Millisecond, 100 * time.Millisecond}
	want := []time.Duration{0, 0, 55 * time.Millisecond, 36 * time.Millisecond, 17 * time.Millisecond, 0}
	for k, at := range starts {
		if got := s.late(k, start.Add(at)); got != want[k] {
			t.Errorf("batch %d started at %v: late %v, want %v", k, at, got, want[k])
		}
	}
}

func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	a := runFile{cpus: 1, metrics: map[string]metric{"x": {Value: 1}}}
	b := runFile{cpus: 2, metrics: map[string]metric{"x": {Value: 1}}}
	if compareRuns(a, b) != 3 {
		t.Fatal("compared runs with different CPU counts")
	}
}
