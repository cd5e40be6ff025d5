package experiments

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"time"

	"repro/internal/fedsql"
	"repro/internal/record"
)

// ---- E24: streaming batch-iterator execution ----

// materializingConnector is the pre-streaming baseline: its OpenScan drains
// the inner connector's stream into one []record.Record before handing out
// the first batch, then re-chunks that slice.
type materializingConnector struct{ fedsql.Connector }

func (m materializingConnector) OpenScan(ctx context.Context, table string, pd fedsql.Pushdown) (fedsql.RowIterator, error) {
	it, err := m.Connector.OpenScan(ctx, table, pd)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []record.Record
	var sliceBytes int64
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		sliceBytes += b.Bytes()
		for r := 0; r < b.Len; r++ {
			rows = append(rows, b.Record(r))
		}
	}
	stats := it.Stats()
	stats.Streamed, stats.BatchesStreamed, stats.PeakEngineBytes = false, 0, sliceBytes
	cols := it.Columns()
	return &sliceIterator{
		rows: rows, sliceBytes: sliceBytes, stats: stats,
		batch: fedsql.Batch{Columns: cols, Cols: make([][]any, len(cols))},
	}, nil
}

// sliceIterator hands out a materialized slice in BatchRows batches. Its
// PeakEngineBytes is the whole slice plus the largest batch copied out of
// it, both resident at once.
type sliceIterator struct {
	rows       []record.Record
	pos        int
	sliceBytes int64
	stats      fedsql.QueryStats
	batch      fedsql.Batch
}

func (s *sliceIterator) Columns() []string { return s.batch.Columns }

func (s *sliceIterator) Next(ctx context.Context) (*fedsql.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	end := min(s.pos+fedsql.BatchRows, len(s.rows))
	for ci, c := range s.batch.Columns {
		out := s.batch.Cols[ci][:0]
		for _, r := range s.rows[s.pos:end] {
			out = append(out, r[c])
		}
		s.batch.Cols[ci] = out
	}
	s.batch.Len = end - s.pos
	s.pos = end
	s.stats.BatchesStreamed++
	s.stats.PeakEngineBytes = max(s.stats.PeakEngineBytes, s.sliceBytes+s.batch.Bytes())
	return &s.batch, nil
}

func (s *sliceIterator) Stats() fedsql.QueryStats { return s.stats }

func (s *sliceIterator) Close() error {
	s.rows = nil
	return nil
}

// E24 measures streaming execution on its headline shape:
// a cold full-table aggregate scan that the backend cannot absorb
// (DisablePushdown), so every row crosses the connector boundary into the
// engine-side aggregator. The materialized path buffers the entire scan
// result before the engine sees the first row; the streaming path holds
// one in-flight batch. Both paths run the same engine aggregation code, so
// the answers must be identical — the differential harness in
// internal/fedsql proves the same property across many more shapes.
//
// Reported:
//   - streaming_mem_reduction: materialized peak engine bytes / streaming
//     peak engine bytes (the ≥10x claim);
//   - streaming_throughput_ratio: materialized elapsed / streaming elapsed,
//     best-of-3 interleaved (≥1 means streaming is no slower);
//   - stream_scan_gbps_core: streamed scan volume per second per core;
//   - streaming_exact: byte-identical answers on both paths.
func E24(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	d := ScatterGatherDeployment(rowsN, rowsN/32)
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.DisablePushdown = true // force scan + engine-side aggregation
	pinot.AddTable(d)

	streamEng := fedsql.NewEngine()
	streamEng.Register(pinot)
	matEng := fedsql.NewEngine()
	matEng.Register(materializingConnector{Connector: pinot})

	const sql = "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders GROUP BY city ORDER BY city"
	run := func(e *fedsql.Engine) (*fedsql.Result, time.Duration) {
		start := time.Now()
		res, err := e.Query(sql)
		if err != nil {
			panic(err)
		}
		return res, time.Since(start)
	}

	// Warm both sides once (segment maps, dictionaries), then take the
	// best of three interleaved timed rounds per side so a preempted round
	// doesn't masquerade as a throughput regression.
	run(streamEng)
	run(matEng)
	var sRes, mRes *fedsql.Result
	var sBest, mBest time.Duration
	for i := 0; i < 3; i++ {
		res, el := run(streamEng)
		if sBest == 0 || el < sBest {
			sRes, sBest = res, el
		}
		res, el = run(matEng)
		if mBest == 0 || el < mBest {
			mRes, mBest = res, el
		}
	}

	exact := 0.0
	if reflect.DeepEqual(sRes.Rows, mRes.Rows) && reflect.DeepEqual(sRes.Columns, mRes.Columns) {
		exact = 1
	}
	memReduction := 0.0
	if sRes.Stats.PeakEngineBytes > 0 {
		memReduction = float64(mRes.Stats.PeakEngineBytes) / float64(sRes.Stats.PeakEngineBytes)
	}
	// Scan volume: the materialized peak is the whole boundary-crossing
	// result, which is exactly the bytes the streaming path scanned through.
	gbPerSecPerCore := float64(mRes.Stats.PeakEngineBytes) / 1e9 / sBest.Seconds() / float64(runtime.NumCPU())
	streamedOK := 0.0
	if sRes.Stats.Streamed && sRes.Stats.BatchesStreamed > 0 && !mRes.Stats.Streamed {
		streamedOK = 1
	}

	return []Row{
		{"stream_peak_engine_bytes", float64(sRes.Stats.PeakEngineBytes), "B"},
		{"mat_peak_engine_bytes", float64(mRes.Stats.PeakEngineBytes), "B"},
		{"streaming_mem_reduction", memReduction, "x"},
		{"stream_elapsed_us", float64(sBest.Microseconds()), "us"},
		{"mat_elapsed_us", float64(mBest.Microseconds()), "us"},
		{"streaming_throughput_ratio", float64(mBest) / float64(sBest), "x"},
		{"stream_scan_gbps_core", gbPerSecPerCore, "GB/s/core"},
		{"stream_batches", float64(sRes.Stats.BatchesStreamed), "batches"},
		{"stream_rows", float64(sRes.Stats.RowsReturned), "rows"},
		{"streaming_exact", exact, "bool"},
		{"streaming_streamed", streamedOK, "bool"},
	}
}

// streamingExperiments registers E24 for rtbench / AllWithIntegration.
func streamingExperiments() []Experiment {
	return []Experiment{
		{
			ID:    "E24",
			Title: "Streaming batch-iterator execution (internal/fedsql)",
			Claim: "pull-based batch streaming cuts peak engine-resident bytes ≥10x on full-table cold aggregate scans vs the materialized connector path, at no throughput cost, with byte-identical answers",
			Run:   func() []Row { return E24(0) },
		},
	}
}
