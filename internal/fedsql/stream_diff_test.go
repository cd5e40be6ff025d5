package fedsql

// Randomized differential harness for the streaming execution path: every
// query shape runs once against the OLAP deployment through the Pinot
// connector and once against an independent reference — the same rows
// archived into columnar parts and served by an ArchiveConnector, so the
// engine evaluates every filter and aggregate itself — and the results must
// be byte-identical after canonical serialization. Unordered results are
// compared as sorted multisets — the row set is deterministic, the arrival
// order across concurrent segment producers is not; ORDER BY results
// compare in exact order. Amounts are quarter-valued so float aggregation
// is exact and order-independent.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

func diffSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "events",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true, Nullable: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "qty", Type: metadata.TypeLong},
			{Name: "rush", Type: metadata.TypeBool, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

var diffCities = []string{"sf", "nyc", "la", "chi"}

// diffRows generates n random rows. Nullable columns are NULL with real
// probability, but row 0 carries every column.
func diffRows(rng *rand.Rand, n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		r := record.Record{
			"id":     fmt.Sprintf("e%05d", i),
			"city":   diffCities[rng.Intn(len(diffCities))],
			"amount": float64(rng.Intn(400)) / 4, // exact quarters: order-independent sums
			"qty":    int64(rng.Intn(20)),
			"ts":     int64(1700000000000 + i*1000),
		}
		if i == 0 || rng.Float64() > 0.3 {
			r["status"] = []string{"ok", "late", "lost"}[rng.Intn(3)]
		}
		if i == 0 || rng.Float64() > 0.4 {
			r["rush"] = rng.Intn(2) == 0
		}
		rows[i] = r
	}
	return rows
}

// diffPartRows is the row count of one reference archive part: small, so
// the reference scan streams many parts.
const diffPartRows = 128

// buildDiffEngines returns the same data behind two engines, both with the
// catalog "pinot": the OLAP deployment, and the archive reference.
func buildDiffEngines(t *testing.T, rng *rand.Rand, n int, disablePushdown bool) (streaming, reference *Engine, servers []*olap.Server) {
	t.Helper()
	servers = []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "events",
			Schema:      diffSchema(),
			SegmentRows: 64,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := diffRows(rng, n)
	for i, r := range rows {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.DisablePushdown = disablePushdown
	pinot.AddTable(d)

	store := objstore.NewMemStore()
	codec, _ := record.NewCodec(citiesSchema())
	w := objstore.NewRawLogWriter(store, "cities", codec)
	w.Append([]record.Record{
		{"city": "sf", "region": "west"},
		{"city": "la", "region": "west"},
		{"city": "nyc", "region": "east"},
		{"city": "chi", "region": "central"},
	})
	objstore.NewCompactor(store, "cities", codec).Compact()
	hive := NewArchiveConnector("hive", store)
	hive.AddTable("cities", citiesSchema())

	archive := objstore.NewMemStore()
	eventsCodec, _ := record.NewCodec(diffSchema())
	ew := objstore.NewRawLogWriter(archive, "events", eventsCodec)
	compactor := objstore.NewCompactor(archive, "events", eventsCodec)
	for lo := 0; lo < n; lo += diffPartRows {
		if err := ew.Append(rows[lo:min(lo+diffPartRows, n)]); err != nil {
			t.Fatal(err)
		}
		if _, err := compactor.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	ref := NewArchiveConnector("pinot", archive)
	ref.AddTable("events", diffSchema())

	streaming = NewEngine()
	streaming.Register(pinot)
	streaming.Register(hive)
	reference = NewEngine()
	reference.Register(ref)
	reference.Register(hive)
	return streaming, reference, servers
}

// serializeRows renders every row to a canonical byte form.
func serializeRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprintf("%#v", row)
	}
	return out
}

// diffQuery runs sql through both engines and fails on any divergence.
func diffQuery(t *testing.T, streaming, reference *Engine, sql string, ordered, wantStreamed bool) {
	t.Helper()
	sRes, err := streaming.Query(sql)
	if err != nil {
		t.Fatalf("streaming %q: %v", sql, err)
	}
	rRes, err := reference.Query(sql)
	if err != nil {
		t.Fatalf("reference %q: %v", sql, err)
	}
	if fmt.Sprintf("%q", sRes.Columns) != fmt.Sprintf("%q", rRes.Columns) {
		t.Fatalf("%q: columns diverge\nstreaming %q\nreference %q", sql, sRes.Columns, rRes.Columns)
	}
	sRows, rRows := serializeRows(sRes), serializeRows(rRes)
	if !ordered {
		sort.Strings(sRows)
		sort.Strings(rRows)
	}
	if len(sRows) != len(rRows) {
		t.Fatalf("%q: row count diverges: streaming %d, reference %d", sql, len(sRows), len(rRows))
	}
	for i := range sRows {
		if sRows[i] != rRows[i] {
			t.Fatalf("%q: row %d diverges\nstreaming %s\nreference %s", sql, i, sRows[i], rRows[i])
		}
	}
	if wantStreamed {
		if !sRes.Stats.Streamed || sRes.Stats.BatchesStreamed == 0 {
			t.Fatalf("%q: streaming engine did not stream (streamed=%v batches=%d)",
				sql, sRes.Stats.Streamed, sRes.Stats.BatchesStreamed)
		}
	}
}

func TestStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dp := range []bool{false, true} {
		name := "pushdown"
		if dp {
			name = "scan-only"
		}
		t.Run(name, func(t *testing.T) {
			streaming, reference, _ := buildDiffEngines(t, rng, 600, dp)
			for trial := 0; trial < 4; trial++ {
				x := float64(rng.Intn(400)) / 4
				city := diffCities[rng.Intn(len(diffCities))]
				k := 5 + rng.Intn(40)
				// Selections stream in both modes; aggregates stream only
				// when pushdown is off (scan + engine-side agg).
				shapes := []struct {
					sql          string
					ordered      bool
					wantStreamed bool
				}{
					{fmt.Sprintf("SELECT * FROM pinot.events WHERE amount > %v", x), false, true},
					{fmt.Sprintf("SELECT id, city, amount FROM pinot.events WHERE city = '%s' AND amount <= %v", city, x), false, true},
					{"SELECT id, status FROM pinot.events WHERE rush = true", false, true},
					{fmt.Sprintf("SELECT id, amount FROM pinot.events ORDER BY id LIMIT %d", k), true, false},
					{"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.events GROUP BY city ORDER BY city", true, dp},
					{fmt.Sprintf("SELECT COUNT(*) AS n, AVG(amount) AS mean FROM pinot.events WHERE amount >= %v", x), false, dp},
					{fmt.Sprintf("SELECT o.id, o.city, c.region FROM pinot.events o JOIN hive.cities c ON o.city = c.city WHERE o.amount > %v", x), false, true},
				}
				for _, s := range shapes {
					diffQuery(t, streaming, reference, s.sql, s.ordered, s.wantStreamed)
				}
			}
			// Unordered LIMIT picks an arbitrary subset per arrival order;
			// only the cardinality is comparable.
			sRes, err := streaming.Query("SELECT id FROM pinot.events LIMIT 17")
			if err != nil {
				t.Fatal(err)
			}
			rRes, err := reference.Query("SELECT id FROM pinot.events LIMIT 17")
			if err != nil {
				t.Fatal(err)
			}
			if len(sRes.Rows) != 17 || len(rRes.Rows) != 17 {
				t.Fatalf("LIMIT rows: streaming %d, reference %d, want 17", len(sRes.Rows), len(rRes.Rows))
			}
		})
	}
}

// TestStreamDiffCancelMidQuery cancels an engine query mid-stream: the
// error must surface (no silent truncation) and every producer goroutine
// must be reaped.
func TestStreamDiffCancelMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streaming, _, servers := buildDiffEngines(t, rng, 2000, false)
	for _, s := range servers {
		s.SetScanDelay(2 * time.Millisecond)
		defer s.SetScanDelay(0)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
		_, err := streaming.QueryCtx(ctx, "SELECT * FROM pinot.events")
		cancel()
		if err == nil {
			t.Fatal("mid-stream deadline produced a clean result: truncation went unreported")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mid-stream error = %v, want context.DeadlineExceeded", err)
		}
	}
	waitGoroutines(t, before)
}

// TestOpenScanCloseMidStreamNoLeak abandons connector-level iterators after
// one batch; Close alone must reap the broker producers.
func TestOpenScanCloseMidStreamNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	streaming, _, _ := buildDiffEngines(t, rng, 2000, false)
	conn := streaming.connectors["pinot"]
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		it, err := conn.OpenScan(context.Background(), "events", Pushdown{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(context.Background()); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		st := it.Stats()
		if !st.Streamed {
			t.Fatal("open-scan iterator did not report Streamed")
		}
	}
	waitGoroutines(t, before)
}

// TestOpenScanContextCancelSticky cancels the pull context mid-stream: Next
// must converge to context.Canceled and stay there.
func TestOpenScanContextCancelSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	streaming, _, _ := buildDiffEngines(t, rng, 2000, false)
	conn := streaming.connectors["pinot"]
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	it, err := conn.OpenScan(ctx, "events", Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := it.Next(ctx)
		if err == nil {
			continue // batches in flight before the cancel may still arrive
		}
		if errors.Is(err, context.Canceled) {
			break
		}
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
	if _, err := it.Next(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error is not sticky: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to return to its baseline
// (within the runtime's background slack).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
