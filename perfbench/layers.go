package main

import (
	"math"

	"repro/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects reported metrics. A figure that could not be measured
// (NaN, or a program counter or span name that does not exist) is listed
// under missing and left out of the metrics, never reported as zero.
type metricSet struct {
	metrics map[string]metric
	missing []string
}

func newMetricSet() *metricSet { return &metricSet{metrics: map[string]metric{}} }

func (m *metricSet) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.missing = append(m.missing, name)
		return
	}
	m.metrics[name] = metric{Value: v, Unit: unit}
}

// lookup reads one metric of a registry snapshot by name.
func lookup(points []obs.MetricPoint, name string) (obs.MetricPoint, bool) {
	for _, p := range points {
		if p.Name == name && len(p.Labels) == 0 {
			return p, true
		}
	}
	return obs.MetricPoint{}, false
}

// value reads a counter or gauge by name; NaN when the name is missing.
func value(points []obs.MetricPoint, name string) float64 {
	if p, ok := lookup(points, name); ok {
		return p.Value
	}
	return math.NaN()
}

// ratio divides, giving NaN for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// spanStats are the per-layer figures read from the traced run's spans.
type spanStats struct {
	produceUs []float64 // stream.Producer.ProduceBatch, live phase only
	parseUs   map[string][]float64

	ops map[string]float64 // traced operations per query kind

	segScanNs   map[string]float64
	segScanRows map[string]float64
	mergeNs     map[string]float64
	engineNs    map[string]float64 // fedsql.query self time, measurable queries only
	engineOps   map[string]float64 // measurable fedsql.query spans
	engineRows  map[string]float64
	streamedOps map[string]float64 // fedsql.query spans with a row scan

	consumingNs    float64
	brokerExecs    float64
	routeNs, route float64
}

// readSpans derives the per-layer span figures. Program spans are found by
// name: broker.execute, route, server.scan, segment.scan, consuming.scan,
// merge, fedsql.query and scan.
func readSpans(spans []span) *spanStats {
	st := &spanStats{
		parseUs: map[string][]float64{}, ops: map[string]float64{},
		segScanNs: map[string]float64{}, segScanRows: map[string]float64{},
		mergeNs: map[string]float64{}, engineNs: map[string]float64{}, engineOps: map[string]float64{},
		engineRows: map[string]float64{}, streamedOps: map[string]float64{},
	}
	children := childIndex(spans)
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "stream.Producer.ProduceBatch":
			st.produceUs = append(st.produceUs, float64(sp.dur())/1e3)
		case "sqlparse.Parse":
			st.parseUs[sp.Kind] = append(st.parseUs[sp.Kind], float64(sp.dur())/1e3)
		case "bench.query":
			st.ops[sp.Kind]++
		case "segment.scan":
			st.segScanNs[sp.Kind] += float64(sp.dur())
			st.segScanRows[sp.Kind] += float64(sp.Rows)
		case "merge":
			// The merge span waits for the scans it merges; count only the
			// part of it no sibling scan covers.
			var scans []int32
			if sp.Parent >= 0 {
				for _, c := range children[sp.Parent] {
					if n := spans[c].Name; n == "server.scan" || n == "consuming.scan" {
						scans = append(scans, c)
					}
				}
			}
			st.mergeNs[sp.Kind] += float64(sp.dur() - covered(spans, scans, sp.Start, sp.End))
		case "fedsql.query":
			// The engine's self time is its span minus its scans only when
			// every scan is an aggregate scan, which ends before the engine
			// touches its rows. Any other scan streams: its span stays open
			// until the engine has drained it, and the program spans beneath
			// it block while the engine works, so no span separates the
			// engine's per-batch work from the backend's.
			streamed := false
			for _, c := range children[sp.ID] {
				if spans[c].Name == "scan" {
					st.engineRows[sp.Kind] += float64(spans[c].Rows)
					streamed = streamed || spans[c].Access != "aggregate-scan"
				}
			}
			if streamed {
				st.streamedOps[sp.Kind]++
			} else {
				st.engineNs[sp.Kind] += float64(selfTime(spans, children, sp.ID))
				st.engineOps[sp.Kind]++
			}
		case "consuming.scan":
			st.consumingNs += float64(sp.dur())
		case "broker.execute":
			st.brokerExecs++
		case "route":
			st.routeNs += float64(sp.dur())
			st.route++
		}
	}
	return st
}

// perKind is the mean of a per-kind total over that kind's traced queries.
func (st *spanStats) perKind(total map[string]float64, kind string, scale float64) float64 {
	if _, ok := total[kind]; !ok {
		return math.NaN()
	}
	return ratio(total[kind], st.ops[kind]) * scale
}

func (st *spanStats) put(m *metricSet) {
	m.put("stream.produce_us_p50", "us", medianOrNaN(st.produceUs))
	for _, k := range []string{"agg", "multigroup", "distinct", "topk", "sql_agg"} {
		m.put("olap.segment_scan_ns_per_row."+k, "ns/row", ratio(st.segScanNs[k], st.segScanRows[k]))
		m.put("olap.rows_scanned_per_query."+k, "rows", st.perKind(st.segScanRows, k, 1))
	}
	for _, k := range []string{"multigroup", "distinct", "topk"} {
		m.put("olap.merge_ms_per_query."+k, "ms", st.perKind(st.mergeNs, k, 1e-6))
	}
	m.put("olap.consuming_scan_ms_per_query", "ms", ratio(st.consumingNs, st.brokerExecs)/1e6)
	m.put("olap.route_us_per_query", "us", ratio(st.routeNs, st.route)/1e3)
	for _, k := range kinds {
		if isSQL(k) {
			// A kind any of whose queries streamed is reported missing.
			engine := math.NaN()
			if st.streamedOps[k] == 0 {
				engine = ratio(st.engineNs[k], st.engineOps[k]) * 1e-6
			}
			m.put("fedsql.engine_self_ms."+k, "ms", engine)
			m.put("sqlparse.parse_us."+k, "us", medianOrNaN(st.parseUs[k]))
		}
	}
	m.put("fedsql.rows_in_per_query.sql_join", "rows", st.perKind(st.engineRows, "sql_join", 1))
}

func medianOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return median(xs)
}

// traceOverhead compares traced and untraced operations of the same kind:
// the count-weighted mean over kinds of median(traced)/median(untraced) - 1.
func traceOverhead(ops []opSample) float64 {
	tr, un := map[string][]float64{}, map[string][]float64{}
	for _, o := range ops {
		if o.traced {
			tr[o.kind] = append(tr[o.kind], o.ms)
		} else {
			un[o.kind] = append(un[o.kind], o.ms)
		}
	}
	var sum, n float64
	for k, t := range tr {
		u := un[k]
		if len(t) < 5 || len(u) < 5 {
			continue
		}
		w := float64(len(t) + len(u))
		sum += w * (median(t)/median(u) - 1)
		n += w
	}
	return ratio(sum, n)
}

// partitionBytes sums the "bytes" field of every partition of every topic.
func partitionBytes(stats []map[string]any) float64 {
	total := 0.0
	for _, p := range stats {
		b, ok := p["bytes"].(int64)
		if !ok {
			return math.NaN()
		}
		total += float64(b)
	}
	return total
}
