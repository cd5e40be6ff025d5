// Command perfbench is the repository's end-to-end benchmark. It assembles
// the paper's pipeline (stream → FlinkSQL enrich job → Pinot-style table,
// with archival to the object store) through public constructors, drives it
// with one open-loop event generator and one query client, checks every
// answer against a reference computed from the generated rows, and prints
// the end-to-end metrics, or with --trace 1 the per-layer metrics, as one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/olap"
)

// workload is one traffic mix over the same pipeline and backlog.
type workload struct {
	name       string
	rowsPerSec float64 // live rows produced per second
	batchRows  int     // rows per produce batch; the last one is the probe
}

var workloads = []workload{
	// The read path: the closed-loop client over the sealed table, with a
	// probe-only trickle (one row every 10ms) for freshness.
	{name: "dashboard", rowsPerSec: 100, batchRows: 1},
	// The same client plus the write path at 5k rows/s. 50-row batches give
	// 100 probes a second, as a steady p99 needs a few thousand probes per
	// run.
	{name: "mixed", rowsPerSec: 5000, batchRows: 50},
}

const setupRepeats = 5 // untraced runs set up this often and report the median

// Every run opens its measured phase with an ingest-only slice, the same in
// every workload: live rows at sliceRowsPerSec in sliceBatchRows-row batches,
// with no query client and no probes. Its process CPU per row is
// cpu_us_per_row.
const (
	sliceRowsPerSec = 5000
	sliceBatchRows  = 50
	sliceShare      = 5 // the slice takes a fifth of --seconds
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: dashboard or mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 44, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	outDir := flag.String("out-dir", ".", "directory for the span file of a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dashboard|mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(map[string]any{"header": res.header})
	emit(map[string]any{"detail": res.detail})
	emit(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics.metrics,
	})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type result struct {
	header    map[string]any
	detail    map[string]any
	attempted int
	failed    int
	metrics   *metricSet
}

// run executes one workload run end to end.
func run(w workload, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	sliceDur := time.Duration(seconds) * time.Second / sliceShare
	sliceRows := int(sliceDur.Seconds()*sliceRowsPerSec) / sliceBatchRows * sliceBatchRows
	phaseDur := time.Duration(seconds)*time.Second - sliceDur
	interval := time.Duration(float64(w.batchRows) / w.rowsPerSec * float64(time.Second))
	batches := int(phaseDur/interval) + 1
	ds := generate(seed, staticRows, sliceRows+batches*w.batchRows, w.batchRows, interval)
	var rec *recorder
	rounds := setupRepeats
	if traced {
		rec = newRecorder()
		rounds = 1
	}
	encodeNs, err := ds.encode(rec, 100)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	queries := makeQueries(seed, ds)
	staticSum := 0.0
	for i := range ds.static {
		staticSum += ds.static[i].amount
	}
	ds.static = nil // only the payloads and the reference answers are needed from here on

	s, setups, err := setupRounds(ds, rec, rounds)
	if err != nil {
		return nil, err
	}
	defer s.close()
	runtime.GC()
	idleCores := math.NaN()
	if traced {
		c0, t0 := cpuTime(), time.Now()
		time.Sleep(time.Second)
		idleCores = (cpuTime() - c0).Seconds() / time.Since(t0).Seconds()
	}

	tl := &tally{}
	msgs := messages(ds.livePayloads, 0, len(ds.livePayloads))
	runtime.GC()
	gc0 := readRuntime().gcs
	sl, err := ingestOnly(s, msgs[:sliceRows], ds.live[:sliceRows])
	tl.add(err)
	sliceGCs := readRuntime().gcs - gc0
	msgs, ds.live = msgs[sliceRows:], ds.live[sliceRows:]

	ph := &phase{w: w, s: s, ds: ds, queries: queries, cycle: mixCycle(seed), rec: rec, tally: tl, interval: interval}
	if traced {
		ph.clientTracer = obs.NewTracer(obs.TracerConfig{Recent: 1})
		ph.probeTracer = obs.NewTracer(obs.TracerConfig{Recent: 1})
		ph.sqlTracer = obs.NewTracer(obs.TracerConfig{Recent: 1})
		ph.clientBroker = olap.NewBrokerWithOptions(s.d, olap.BrokerOptions{Tracer: ph.clientTracer})
		ph.probeBroker = olap.NewBrokerWithOptions(s.d, olap.BrokerOptions{Tracer: ph.probeTracer})
	}
	before := s.d.MetricsSnapshot()
	puts0, _, _, _ := s.store.Stats()
	rt0 := readRuntime()

	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() { peak <- heapPeak(10*time.Millisecond, stop) }()
	lags := make(chan lagSamples, 1)
	if traced {
		go func() { lags <- sampleLags(s, 10*time.Millisecond, stop) }()
	}
	ph.start = time.Now()
	ph.end = ph.start.Add(phaseDur)
	ph.run(msgs)
	wall := time.Since(ph.start)
	rt1 := readRuntime()
	after := s.d.MetricsSnapshot()
	puts1, _, _, _ := s.store.Stats()

	expectRows := int64(len(ds.staticPayloads) + sl.rows + ph.liveRows)
	tl.add(drainCheck(s, expectRows, staticSum+sl.sum+ph.liveSum))
	close(stop)
	peakHeap := <-peak

	res := &result{metrics: newMetricSet()}
	res.header = map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc": envOr("GOGC", "100 (default)"), "go": runtime.Version(),
		"static_rows": len(ds.staticPayloads), "restaurants": numRestaurants, "segment_rows": segmentRows,
		"live_rows_per_s": w.rowsPerSec, "batch_rows": w.batchRows,
		"client": "closed loop, 1 client", "query_window_frac": windowFrac, "setup_rounds": rounds,
		"slice_s": sliceDur.Seconds(), "slice_rows_per_s": sliceRowsPerSec, "slice_batch_rows": sliceBatchRows,
	}
	detail := map[string]any{
		"live_rows": ph.liveRows, "probes_seen": len(ph.freshness), "phase_wall_s": wall.Seconds(),
		"slice_rows": sl.rows, "slice_wall_s": sl.wall.Seconds(), "slice_gcs": sliceGCs,
		"live_gcs": rt1.gcs - rt0.gcs, "live_gc_cpu_frac": ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
		"live_alloc_mb": float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20),
	}
	res.detail = detail
	m := res.metrics
	liveRows := float64(ph.liveRows)

	if !traced {
		var setupS, catchup []float64
		for _, st := range setups {
			setupS = append(setupS, st.total.Seconds())
			catchup = append(catchup, float64(len(ds.staticPayloads))/st.catchup.Seconds())
		}
		detail["setup_s_rounds"] = setupS
		detail["catchup_rows_per_s_rounds"] = catchup
		m.put("setup_s", "s", median(setupS))
		m.put("catchup_rows_per_s", "rows/s", median(catchup))
		p50 := percentile(append([]float64(nil), ph.freshness...), 50)
		p99 := percentile(ph.freshness, 99)
		detail["freshness_p99"] = p99
		m.put("freshness_p50_ms", "ms", p50.Value)
		m.put("freshness_p99_ms", "ms", p99.Value)
		m.put("cpu_us_per_row", "us", ratio(float64(sl.cpu.Nanoseconds())/1e3, float64(sl.rows)))
		var all []float64
		byKind := map[string][]float64{}
		for _, o := range ph.ops {
			if kindWeights[o.kind] > 0 {
				all = append(all, o.ms)
				byKind[o.kind] = append(byKind[o.kind], o.ms)
			}
		}
		m.put("query_qps", "q/s", float64(len(all))/ph.clientEnd.Sub(ph.clientStart).Seconds())
		qp99 := percentile(all, 99)
		detail["query_p99"] = qp99
		m.put("query_p99_ms", "ms", qp99.Value)
		counts := map[string]int{}
		for _, k := range kinds {
			counts[k] = len(byKind[k])
			m.put("query_p50_ms."+k, "ms", medianOrNaN(byKind[k]))
		}
		detail["query_n"] = counts
		m.put("peak_heap_mb", "MB", float64(peakHeap)/(1<<20))
	} else {
		putLayers(m, s, ph, setups[0], before, after, <-lags, layerInputs{
			puts: float64(puts1 - puts0), liveRows: liveRows, totalRows: float64(expectRows),
			encodeNs: encodeNs, idleCores: idleCores, wall: wall, rt0: rt0, rt1: rt1,
		})
		for k, v := range allocPass(ph) {
			m.put("olap.allocs_per_query."+k, "allocs", v)
		}
		m.put("record.decode_ns_per_row", "ns/row", decodeTime(ds, rec))
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		detail["span_file"] = path
		detail["spans"] = len(rec.spans)
	}
	res.attempted, res.failed = tl.attempted, tl.failed
	if traced {
		m.put("failed_frac", "fraction", ratio(float64(res.failed), float64(res.attempted)))
	}
	detail["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	detail["errors"] = tl.errs
	detail["missing"] = m.missing
	return res, nil
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// drainCheck waits until the table holds every produced row and checks
// COUNT(*) and SUM(amount) over the whole table against what was produced.
func drainCheck(s *stack, rows int64, sum float64) error {
	err := waitFor(30*time.Second, func() (bool, error) {
		ingested, _, _ := s.d.Stats()
		return ingested >= rows, nil
	})
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	resp, err := s.broker.Execute(context.Background(), &olap.QueryRequest{Query: &olap.Query{
		Table: "orders", Aggs: []olap.AggSpec{{Kind: olap.AggCount}, {Kind: olap.AggSum, Column: "amount"}},
	}})
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if len(resp.Rows) != 1 || canon(resp.Rows[0]...) != canon(rows, sum) {
		return fmt.Errorf("drain: table has COUNT, SUM = %v, produced %d rows summing to %v", resp.Rows, rows, sum)
	}
	return nil
}

// lagSamples are periodic readings of the pipeline's backlog gauges.
type lagSamples struct {
	enrich, archive, ingest []float64
}

// sampleLags reads the flow jobs' source lag and the table's ingest lag every
// interval until stop is closed.
func sampleLags(s *stack, interval time.Duration, stop <-chan struct{}) lagSamples {
	var out lagSamples
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		if st, err := s.p.Jobs.Status(enrichJob); err == nil {
			out.enrich = append(out.enrich, float64(st.Metrics.SourceLag))
		}
		if st, err := s.p.Jobs.Status(archiveJob); err == nil {
			out.archive = append(out.archive, float64(st.Metrics.SourceLag))
		}
		if v := value(s.d.MetricsSnapshot(), "ingest_lag_rows"); !math.IsNaN(v) {
			out.ingest = append(out.ingest, v)
		}
	}
}

// layerInputs are the run-level figures the per-layer metrics divide by.
type layerInputs struct {
	puts, liveRows, totalRows float64
	encodeNs, idleCores       float64
	wall                      time.Duration
	rt0, rt1                  runtimeSample
}

// putLayers records the per-layer metrics of a traced run.
func putLayers(m *metricSet, s *stack, ph *phase, st setupTimes, before, after []obs.MetricPoint, lags lagSamples, in layerInputs) {
	readSpans(ph.rec.spans).put(m)
	m.put("stream.retained_bytes_per_row", "B/row", partitionBytes(s.cluster.PartitionStats())/in.totalRows)
	m.put("flow.enrich_lag_p99_rows", "rows", tailOrNaN(lags.enrich))
	m.put("flow.archive_lag_p99_rows", "rows", tailOrNaN(lags.archive))
	m.put("flow.enrich_catchup_s", "s", st.enrichCatchup.Seconds())
	m.put("flow.archive_catchup_s", "s", st.archiveCatch.Seconds())
	restarts := 0.0
	for _, job := range []string{enrichJob, archiveJob} {
		js, err := s.p.Jobs.Status(job)
		if err != nil {
			restarts = math.NaN()
			break
		}
		restarts += float64(js.Restarts)
	}
	m.put("flow.restarts", "count", restarts)
	m.put("olap.ingest_lag_p99_rows", "rows", tailOrNaN(lags.ingest))
	m.put("olap.catchup_after_flow_s", "s", (st.catchup - st.enrichCatchup).Seconds())
	sealP50, sealP99 := math.NaN(), math.NaN()
	if h, ok := lookup(after, "olap_seal_ns"); ok && h.Count > 0 {
		sealP50, sealP99 = h.P50/1e6, h.P99/1e6
	}
	m.put("olap.seal_ms_p50", "ms", sealP50)
	m.put("olap.seal_ms_p99", "ms", sealP99)
	delta := func(name string) float64 { return value(after, name) - value(before, name) }
	m.put("olap.seals", "count", delta("olap_sealed_segments_total"))
	m.put("olap.generations_per_row", "1/row", delta("olap_table_generation")/in.liveRows)
	m.put("olap.ingest_errors", "count", value(after, "ingest_errors_total"))
	m.put("olap.upload_errors", "count", value(after, "olap_upload_errors_total"))
	m.put("objstore.puts_per_row", "puts/row", in.puts/in.liveRows)
	m.put("objstore.bytes_per_row", "B/row", float64(s.store.TotalBytes())/in.totalRows)
	m.put("record.encode_ns_per_row", "ns/row", in.encodeNs)
	m.put("obs.trace_overhead_frac", "fraction", traceOverhead(ph.ops))
	m.put("runtime.gc_cpu_frac", "fraction", ratio(in.rt1.gcCPU-in.rt0.gcCPU, in.rt1.totalCPU-in.rt0.totalCPU))
	m.put("runtime.alloc_mb_per_s", "MB/s", float64(in.rt1.allocBytes-in.rt0.allocBytes)/(1<<20)/in.wall.Seconds())
	m.put("runtime.idle_cpu_cores", "cores", in.idleCores)
	m.put("bench.gen_late_ms_p99", "ms", tailOrNaN(ph.lateness))
	var polls []float64
	for _, o := range ph.ops {
		if o.kind == "poll" {
			polls = append(polls, o.ms)
		}
	}
	m.put("bench.probe_poll_ms_p50", "ms", medianOrNaN(polls))
}

func tailOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentile(append([]float64(nil), xs...), 99).Value
}

// allocPass runs n instances of every kind one after another,
// traced, with the generator stopped, and returns heap allocations per query.
func allocPass(ph *phase) map[string]float64 {
	const n = 8
	out := map[string]float64{}
	for _, k := range kinds {
		a0 := readAllocs()
		for i := 0; i < n; i++ {
			_, _, err := ph.runQuery(ph.queries[k][i%poolPerKind], true)
			ph.tally.add(err)
		}
		out[k] = float64(readAllocs()-a0) / n
	}
	return out
}

// decodeTime decodes the backlog payloads with the raw codec, recording one
// span per 100 decode calls, and returns the mean decode time per row.
func decodeTime(ds *dataset, rec *recorder) float64 {
	codec, err := versioned(rawSchema())
	if err != nil {
		return math.NaN()
	}
	var total time.Duration
	for lo := 0; lo < len(ds.staticPayloads); lo += 100 {
		hi := min(lo+100, len(ds.staticPayloads))
		op := rec.newOp()
		sp := rec.start(op, -1, "record.Codec.Decode")
		start := time.Now()
		for _, p := range ds.staticPayloads[lo:hi] {
			if _, err := codec.Decode(p); err != nil {
				return math.NaN()
			}
		}
		total += time.Since(start)
		rec.end(sp, int64(hi-lo))
	}
	return float64(total.Nanoseconds()) / float64(len(ds.staticPayloads))
}
