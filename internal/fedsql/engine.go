package fedsql

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// Result is a federated query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Stats aggregates connector-side and backend execution statistics.
	Stats QueryStats
	// Plan holds one line per table scan describing the pushdown and
	// routing decisions taken — the payload of sqlshell's EXPLAIN. When the
	// engine has a Tracer, each line also carries the scan's elapsed time.
	Plan []string
	// Trace is the finished span tree of this query when the engine has a
	// Tracer (fedsql.query → scan → broker.execute → ... down to
	// segment.scan) — the payload of sqlshell's EXPLAIN ANALYZE.
	Trace *obs.TraceSummary
}

// Records converts the result rows into records keyed by column name.
func (r *Result) Records() []record.Record {
	out := make([]record.Record, len(r.Rows))
	for i, row := range r.Rows {
		rec := make(record.Record, len(r.Columns))
		for ci, c := range r.Columns {
			if row[ci] != nil {
				rec[c] = row[ci]
			}
		}
		out[i] = rec
	}
	return out
}

// Engine is the federated query engine: it parses SQL, resolves tables
// through registered connectors, plans pushdown per connector capabilities,
// and executes the remainder (joins, subqueries, residual filters and
// aggregations) in memory with a hash-join + hash-aggregation executor.
type Engine struct {
	connectors map[string]Connector
	defaultCat string
	// Logf, when set, receives one diagnostic line per pushdown fallback
	// (an aggregate query a connector could not absorb). Fallbacks are
	// counted in QueryStats.PushdownFallbacks regardless. Logf is the
	// legacy compatibility sink: structured diagnostics flow through Log,
	// and each event is also formatted onto Logf so existing consumers
	// keep seeing one line per fallback.
	Logf func(format string, args ...any)
	// Log, when set, receives structured events (level + key/value fields)
	// for the same diagnostics Logf renders as text.
	Log *obs.Logger
	// Tracer, when set, opens a fedsql.query root span per query; connector
	// scans and the backend broker pipeline record child spans, and the
	// finished tree is attached to Result.Trace.
	Tracer *obs.Tracer
}

// event emits one structured diagnostic through the obs logger and renders
// the same fact onto the legacy Logf sink.
func (e *Engine) event(level obs.Level, msg string, legacy string, fields ...obs.Field) {
	switch level {
	case obs.LevelWarn:
		e.Log.Warn(msg, fields...)
	case obs.LevelError:
		e.Log.Error(msg, fields...)
	default:
		e.Log.Info(msg, fields...)
	}
	if e.Logf != nil {
		e.Logf("%s", legacy)
	}
}

// NewEngine creates an engine. The first registered connector becomes the
// default catalog for unqualified table names.
func NewEngine() *Engine {
	return &Engine{connectors: make(map[string]Connector)}
}

// Register adds a connector under its catalog name.
func (e *Engine) Register(c Connector) {
	if len(e.connectors) == 0 {
		e.defaultCat = c.Name()
	}
	e.connectors[c.Name()] = c
}

// SetDefaultCatalog changes the catalog used for unqualified table names.
func (e *Engine) SetDefaultCatalog(name string) error {
	if _, ok := e.connectors[name]; !ok {
		return fmt.Errorf("fedsql: unknown catalog %q", name)
	}
	e.defaultCat = name
	return nil
}

// Catalogs lists registered connector names, sorted.
func (e *Engine) Catalogs() []string {
	out := make([]string, 0, len(e.connectors))
	for n := range e.connectors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query parses and executes one SELECT with the background context.
func (e *Engine) Query(sql string) (*Result, error) {
	//lint:ignore ctxflow pre-PR-1 convenience entry point kept for callers with no context; QueryCtx is the cancellable API
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx parses and executes one SELECT under a caller context. The
// context flows through every connector scan, so cancelling it aborts
// backend-side work (e.g. the OLAP broker's parallel scatter-gather) too.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	// Trace wiring: own a fedsql.query root unless the caller's context
	// already carries a span (then the query nests under it and the owner
	// finishes the trace).
	var root obs.Span
	if e.Tracer != nil && !obs.SpanFromContext(ctx).Active() {
		root = e.Tracer.StartTrace("fedsql.query")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	res, err := e.execute(ctx, stmt)
	if root.Active() {
		if err != nil {
			root.SetAttr("error", err.Error())
		} else {
			root.SetRows(int64(len(res.Rows)))
		}
		sum := e.Tracer.FinishTraceSummary(root)
		if err == nil {
			res.Trace = sum
		}
	}
	return res, err
}

// relation is an intermediate result: named rows plus the predicates the
// backend did not absorb. A relation with src != nil has not materialized
// yet — the consumer pulls batches from the iterator (and must complete or
// fail the scan, which closes the span and renders the plan line).
type relation struct {
	rows  []record.Record
	cols  []string // known column order (may be empty for star)
	stats QueryStats
	// plan collects one EXPLAIN line per table scan beneath this relation.
	plan []string
	// residual predicates still to be applied by the engine.
	residual []sqlparse.Predicate
	// aggregated marks that the connector already produced the final
	// aggregate rows, so the engine skips its own aggregation step.
	aggregated bool
	// ordered marks that ORDER BY/LIMIT already applied in the backend.
	ordered bool
	// src is the unconsumed batch iterator of a streaming table scan; rows
	// is empty until it is drained. The path that consumes it owns Close.
	src RowIterator
	// meta carries the deferred plan-line/span context of the src scan —
	// rendered only at completeScan, when stats are finally known.
	meta *scanMeta
}

// scanMeta is the deferred EXPLAIN/tracing context of one streaming scan.
type scanMeta struct {
	catalog, table, kind string
	residual             int
	span                 obs.Span
	start                time.Time
	// fallback marks an aggregate query that fell back to row scan +
	// engine-side aggregation; counted once the scan completes.
	fallback bool
}

// completeScan finalizes a streaming scan after its iterator was drained:
// folds the iterator's end-of-stream stats into the relation, renders the
// plan line, and ends the scan span.
func (rel *relation) completeScan() {
	if rel.meta == nil || rel.src == nil {
		return
	}
	st := rel.src.Stats()
	if rel.meta.fallback {
		st.PushdownFallbacks++
	}
	rel.stats = st
	rel.plan = []string{planLine(rel.meta.catalog, rel.meta.table, rel.meta.kind, st, rel.meta.residual, time.Since(rel.meta.start))}
	if rel.meta.span.Active() {
		rel.meta.span.SetRows(st.RowsReturned)
		rel.meta.span.End()
	}
	rel.meta = nil
}

// failScan ends a streaming scan's span with the error that aborted it.
func (rel *relation) failScan(err error) {
	if rel.meta == nil {
		return
	}
	if rel.meta.span.Active() {
		rel.meta.span.SetAttr("error", err.Error())
		rel.meta.span.End()
	}
	rel.meta = nil
}

func (e *Engine) execute(ctx context.Context, stmt *sqlparse.SelectStmt) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if stmt.From == nil {
		return nil, fmt.Errorf("fedsql: SELECT without FROM is not supported")
	}
	if stmt.Window != nil {
		return nil, fmt.Errorf("fedsql: window functions belong to the streaming SQL layer (flinksql)")
	}
	rel, err := e.resolveFrom(ctx, stmt)
	if err != nil {
		return nil, err
	}
	if rel.src != nil {
		// Streaming table scan: consume batch-at-a-time instead of
		// materializing the scan into records first.
		return e.consumeSource(ctx, rel, stmt)
	}
	rows := rel.rows

	// Residual filters (anything not pushed down was left in rel by
	// resolveFrom via the returned residual list — here rel carries rows
	// already filtered when pushdown happened).
	if !rel.aggregated {
		if len(rel.residual) > 0 {
			rows = filterRows(rows, rel.residual)
		}
		if stmt.HasAggregates() {
			rows, err = aggregateRows(rows, stmt)
			if err != nil {
				return nil, err
			}
		}
	}

	cols, err := outputColumns(stmt, rows, rel)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols, Stats: rel.stats, Plan: rel.plan}
	for _, r := range rows {
		row := make([]any, len(cols))
		for ci, c := range cols {
			row[ci] = lookupColumn(r, c)
		}
		res.Rows = append(res.Rows, row)
	}
	if !rel.ordered {
		if err := orderAndLimit(res, stmt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// consumeSource executes a single-table query over a streaming scan: the
// iterator's batches flow through residual filtering straight into either
// the engine aggregator or the result rows, so the engine never holds the
// scan as a []record.Record. Unordered LIMIT queries stop pulling (and
// close the backend scan) as soon as the limit is met.
func (e *Engine) consumeSource(ctx context.Context, rel *relation, stmt *sqlparse.SelectStmt) (*Result, error) {
	it := rel.src
	defer it.Close()
	if stmt.HasAggregates() {
		return e.consumeAggregate(ctx, rel, stmt)
	}
	cols, err := outputColumns(stmt, nil, rel)
	if err != nil {
		rel.failScan(err)
		return nil, err
	}
	res := &Result{Columns: cols}
	// Unordered LIMIT: any stmt.Limit rows are a correct answer, so stop
	// pulling once collected — the backend scan is cancelled via Close.
	earlyStop := !rel.ordered && len(stmt.OrderBy) == 0 && stmt.Limit > 0
	var idx []int
scan:
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			rel.failScan(err)
			return nil, err
		}
		if idx == nil {
			idx = batchColumnIndexes(b.Columns, cols)
		}
		for r := 0; r < b.Len; r++ {
			if len(rel.residual) > 0 && !recordSatisfies(b.Record(r), rel.residual) {
				continue
			}
			row := make([]any, len(cols))
			for ci, bi := range idx {
				if bi >= 0 {
					row[ci] = b.Cols[bi][r]
				}
			}
			res.Rows = append(res.Rows, row)
			if earlyStop && len(res.Rows) >= stmt.Limit {
				break scan
			}
		}
	}
	rel.completeScan()
	res.Stats = rel.stats
	res.Plan = rel.plan
	if !rel.ordered {
		if err := orderAndLimit(res, stmt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// consumeAggregate folds a streaming scan into the engine's hash
// aggregator batch-at-a-time — the peak engine footprint is one batch plus
// the group table, not the scanned rows (the E24 measurement).
func (e *Engine) consumeAggregate(ctx context.Context, rel *relation, stmt *sqlparse.SelectStmt) (*Result, error) {
	it := rel.src
	// Output columns derive from the aggregate rows, not the scan.
	rel.cols = nil
	agg := newEngineAggregator(stmt)
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			rel.failScan(err)
			return nil, err
		}
		for r := 0; r < b.Len; r++ {
			rec := b.Record(r)
			if len(rel.residual) > 0 && !recordSatisfies(rec, rel.residual) {
				continue
			}
			if err := agg.add(rec); err != nil {
				rel.failScan(err)
				return nil, err
			}
		}
	}
	rel.completeScan()
	rows := agg.result()
	cols, err := outputColumns(stmt, rows, rel)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols, Stats: rel.stats, Plan: rel.plan}
	for _, r := range rows {
		row := make([]any, len(cols))
		for ci, c := range cols {
			row[ci] = lookupColumn(r, c)
		}
		res.Rows = append(res.Rows, row)
	}
	if !rel.ordered {
		if err := orderAndLimit(res, stmt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// recordSatisfies applies every residual predicate to one record.
func recordSatisfies(r record.Record, preds []sqlparse.Predicate) bool {
	for _, p := range preds {
		if !rowSatisfies(r, p) {
			return false
		}
	}
	return true
}

// batchColumnIndexes maps each output column to its batch column (-1 when
// absent → NULL), with lookupColumn's qualified-name fallback semantics.
func batchColumnIndexes(bcols, out []string) []int {
	idx := make([]int, len(out))
	for oi, col := range out {
		idx[oi] = -1
		for bi, bc := range bcols {
			if bc == col {
				idx[oi] = bi
				break
			}
		}
		if idx[oi] >= 0 {
			continue
		}
		if _, c := sqlSplit(col); c != col {
			for bi, bc := range bcols {
				if bc == c {
					idx[oi] = bi
					break
				}
			}
		}
	}
	return idx
}

// resolveFrom evaluates the FROM clause (table / subquery / join) and
// returns rows plus any predicates the backend did not absorb.
func (e *Engine) resolveFrom(ctx context.Context, stmt *sqlparse.SelectStmt) (*relation, error) {
	return e.resolveRef(ctx, stmt.From, stmt)
}

func (e *Engine) resolveRef(ctx context.Context, ref *sqlparse.TableRef, stmt *sqlparse.SelectStmt) (*relation, error) {
	switch {
	case ref.Join != nil:
		return e.resolveJoin(ctx, ref.Join, stmt)
	case ref.Sub != nil:
		sub, err := e.execute(ctx, ref.Sub)
		if err != nil {
			return nil, err
		}
		rel := &relation{rows: sub.Records(), cols: sub.Columns, stats: sub.Stats, plan: sub.Plan}
		// Outer predicates apply in the engine.
		rel.residual = predicatesFor(stmt.Where, ref.RefName(), true)
		return rel, nil
	default:
		return e.scanTable(ctx, ref, stmt)
	}
}

// scanTable plans pushdown for a single-table query: aggregate queries go
// through AggregateScan when the connector declares the needed fragments,
// falling back to row scan + engine-side aggregation otherwise (counted in
// QueryStats.PushdownFallbacks); plain selections go through OpenScan with
// filter/projection/order/limit pushdown per capability.
func (e *Engine) scanTable(ctx context.Context, ref *sqlparse.TableRef, stmt *sqlparse.SelectStmt) (*relation, error) {
	catalog := ref.Qualifier
	if catalog == "" {
		catalog = e.defaultCat
	}
	conn, ok := e.connectors[catalog]
	if !ok {
		return nil, fmt.Errorf("fedsql: unknown catalog %q", catalog)
	}
	caps := conn.Capabilities()
	var pushFilters []sqlparse.Predicate
	var residual []sqlparse.Predicate

	mine := predicatesFor(stmt.Where, ref.RefName(), true)
	if caps.Filters {
		for _, p := range mine {
			cp := p
			cp.Table = ""
			pushFilters = append(pushFilters, cp)
		}
	} else {
		residual = mine
	}

	isJoinless := stmt.From == ref
	if isJoinless && stmt.HasAggregates() && stmt.Window == nil {
		// Aggregate pushdown: the whole aggregate query executes inside the
		// backend when the connector declares the needed fragments and
		// every filter was absorbed — only per-group aggregate rows cross
		// the connector boundary then, never raw rows.
		if caps.Aggregations && len(residual) == 0 && (len(stmt.GroupBy) == 0 || caps.GroupBy) {
			aq := AggregateQuery{Filters: pushFilters, GroupBy: stripQualifiers(stmt.GroupBy)}
			for _, it := range stmt.Items {
				if it.Func == sqlparse.FuncNone {
					continue // plain group-by columns come back via GroupBy
				}
				item := it
				item.Table = ""
				aq.Aggs = append(aq.Aggs, item)
			}
			if caps.OrderBy {
				aq.OrderBy = append(aq.OrderBy, stmt.OrderBy...)
			}
			if caps.Limit && (len(stmt.OrderBy) == 0 || len(aq.OrderBy) > 0) {
				aq.Limit = stmt.Limit
			}
			sp, sctx := scanSpan(ctx, catalog, ref.Name, "aggregate-scan")
			scanStart := time.Now()
			rows, stats, err := conn.AggregateScan(sctx, ref.Name, aq)
			elapsed := time.Since(scanStart)
			endScanSpan(sp, rows, err)
			if err == nil {
				return &relation{
					rows:       rows,
					stats:      stats,
					plan:       []string{planLine(catalog, ref.Name, "aggregate-scan", stats, 0, elapsed)},
					aggregated: true,
					ordered:    aq.Limit > 0 || len(aq.OrderBy) > 0,
				}, nil
			}
			if !errors.Is(err, ErrPushdownUnsupported) {
				return nil, err
			}
			// A capable-looking connector refused: fall through to the
			// row-scan fallback below.
		}
		// Fallback: stream rows (with whatever filter pushdown the backend
		// offers) and aggregate in the engine, batch-at-a-time.
		e.event(obs.LevelWarn, "pushdown fallback",
			fmt.Sprintf("fedsql: aggregate pushdown fallback for %s.%s (connector capabilities %+v)", catalog, ref.Name, caps),
			obs.F("catalog", catalog), obs.F("table", ref.Name),
			obs.F("fragment", "aggregate"), obs.F("capabilities", fmt.Sprintf("%+v", caps)))
		return e.openScanRelation(ctx, conn, catalog, ref.Name, "row-scan+engine-agg",
			Pushdown{Filters: pushFilters}, residual, false, true)
	}

	// Projection pushdown for plain selections.
	pd := Pushdown{Filters: pushFilters}
	if !stmt.HasAggregates() && isJoinless {
		pd.Columns = selectionColumns(stmt, ref.RefName(), residual)
		if len(residual) == 0 {
			if caps.OrderBy {
				pd.OrderBy = append(pd.OrderBy, stmt.OrderBy...)
			}
			if caps.Limit && (len(stmt.OrderBy) == 0 || len(pd.OrderBy) > 0) {
				pd.Limit = stmt.Limit
			}
		}
	}
	// ordered marks ORDER BY and LIMIT as fully applied in the backend, so
	// the engine's own orderAndLimit pass can be skipped.
	ordered := (len(stmt.OrderBy) == 0 || len(pd.OrderBy) > 0) &&
		(stmt.Limit == 0 || pd.Limit > 0) &&
		(len(pd.OrderBy) > 0 || pd.Limit > 0)
	return e.openScanRelation(ctx, conn, catalog, ref.Name, "row-scan", pd, residual, ordered, false)
}

// openScanRelation opens a row-scan iterator and wraps it as an
// unconsumed streaming relation. The plan line and span close when the
// consumer drains the iterator (completeScan) — stats exist only then.
func (e *Engine) openScanRelation(ctx context.Context, conn Connector, catalog, table, kind string, pd Pushdown, residual []sqlparse.Predicate, ordered, fallback bool) (*relation, error) {
	sp, sctx := scanSpan(ctx, catalog, table, kind)
	start := time.Now()
	it, err := conn.OpenScan(sctx, table, pd)
	if err != nil {
		endScanSpan(sp, nil, err)
		return nil, err
	}
	rel := &relation{
		src:      it,
		residual: residual,
		ordered:  ordered,
		meta: &scanMeta{
			catalog: catalog, table: table, kind: kind,
			residual: len(residual), span: sp, start: start, fallback: fallback,
		},
	}
	// Star projections need a column order before rows exist: the sorted
	// iterator columns.
	cols := append([]string(nil), it.Columns()...)
	sort.Strings(cols)
	rel.cols = cols
	return rel, nil
}

// scanSpan opens the scan child span for one connector call (no-op without
// a trace in ctx).
func scanSpan(ctx context.Context, catalog, table, kind string) (obs.Span, context.Context) {
	sp, sctx := obs.StartSpan(ctx, "scan")
	if sp.Active() {
		sp.SetAttr("catalog", catalog)
		sp.SetAttr("table", table)
		sp.SetAttr("kind", kind)
	}
	return sp, sctx
}

func endScanSpan(sp obs.Span, rows []record.Record, err error) {
	if !sp.Active() {
		return
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetRows(int64(len(rows)))
	}
	sp.End()
}

// planLine renders one EXPLAIN line describing a table scan's pushdown and
// routing decisions, plus the scan's elapsed wall time.
func planLine(catalog, table, kind string, st QueryStats, residual int, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s.%s [%s]", catalog, table, kind)
	var pushed []string
	if st.PushedFilters {
		pushed = append(pushed, "filters")
	}
	if st.PushedAggs {
		pushed = append(pushed, "aggs")
	}
	if st.PushedLimit {
		pushed = append(pushed, "limit")
	}
	if len(pushed) > 0 {
		fmt.Fprintf(&b, " pushdown=%s", strings.Join(pushed, "+"))
	} else {
		b.WriteString(" pushdown=none")
	}
	// Execution transport across the connector boundary: a pull-based batch
	// stream (OpenScan) or one materialized slice (AggregateScan).
	if st.Streamed {
		fmt.Fprintf(&b, " exec=streaming batch=%d", BatchRows)
	} else {
		b.WriteString(" exec=materialized")
	}
	if residual > 0 {
		fmt.Fprintf(&b, " residual_filters=%d", residual)
	}
	if st.PushdownFallbacks > 0 {
		fmt.Fprintf(&b, " fallbacks=%d", st.PushdownFallbacks)
	}
	if st.Router != "" {
		fmt.Fprintf(&b, " route=%s servers_contacted=%d", st.Router, st.Exec.ServersContacted)
		if st.Exec.PartitionsPruned > 0 {
			fmt.Fprintf(&b, " partitions_pruned=%d", st.Exec.PartitionsPruned)
		}
		if st.Exec.SegmentsPruned > 0 {
			fmt.Fprintf(&b, " segments_time_pruned=%d", st.Exec.SegmentsPruned)
		}
	}
	// Materialized-view decision comes first: a view hit answered ahead of
	// the result cache (no routing, no scan), optionally with the staleness
	// bound of a snapshot served mid-re-materialization.
	if st.Exec.ViewHit > 0 {
		b.WriteString(" view=hit")
		if st.Exec.ViewStalenessMs > 0 {
			fmt.Fprintf(&b, " view_staleness_ms=%d", st.Exec.ViewStalenessMs)
		}
	}
	// Result-cache decision: shown whenever the backend has a cache (its
	// resident bytes are reported even on a miss) — except on a view hit,
	// which answered before the cache was ever consulted.
	switch {
	case st.Exec.ViewHit > 0:
	case st.Exec.CacheHit > 0:
		b.WriteString(" cache=hit")
	case st.Exec.Coalesced > 0:
		b.WriteString(" cache=coalesced")
	case st.Exec.CacheMemBytes > 0:
		b.WriteString(" cache=miss")
	}
	if st.TrimK > 0 {
		fmt.Fprintf(&b, " trim=server k=%d", st.TrimK)
		if st.Exec.GroupsTrimmed > 0 {
			fmt.Fprintf(&b, " groups_trimmed=%d", st.Exec.GroupsTrimmed)
		}
	}
	fmt.Fprintf(&b, " rows_moved=%d", st.RowsReturned)
	if elapsed > 0 {
		fmt.Fprintf(&b, " time=%s", elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// resolveJoin hash-joins the two sides: the right side is the build side
// (materialized into the hash table, concurrently with opening the left
// side so both backends' scatter-gathers overlap), and the left side is
// the probe side, consumed batch-at-a-time when its scan streams — probe
// rows flow through the join as they arrive and are never held as a
// materialized input slice.
func (e *Engine) resolveJoin(ctx context.Context, j *sqlparse.JoinSpec, stmt *sqlparse.SelectStmt) (*relation, error) {
	leftStmt := &sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  j.Left,
		Where: predicatesFor(stmt.Where, j.Left.RefName(), false),
	}
	rightStmt := &sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  j.Right,
		Where: predicatesFor(stmt.Where, j.Right.RefName(), false),
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		buildRes *Result
		buildErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buildRes, buildErr = e.execute(ctx, rightStmt)
		if buildErr != nil {
			cancel() // abort the probe side
		}
	}()
	// Opening the probe side starts its backend scan immediately; batches
	// buffer in the stream while the build side materializes.
	probeRel, probeErr := e.resolveRef(ctx, j.Left, leftStmt)
	if probeErr != nil {
		cancel()
	}
	wg.Wait()
	if probeErr == nil && probeRel.src != nil {
		defer probeRel.src.Close()
	}
	// Prefer the side that actually failed: the other side usually reports
	// context.Canceled only because our cancel() aborted it.
	if buildErr != nil && !errors.Is(buildErr, context.Canceled) {
		if probeErr == nil {
			probeRel.failScan(buildErr)
		}
		return nil, buildErr
	}
	if probeErr != nil && !errors.Is(probeErr, context.Canceled) {
		return nil, probeErr
	}
	if buildErr != nil {
		return nil, buildErr
	}
	if probeErr != nil {
		return nil, probeErr
	}
	_, probeKey := sqlSplit(j.LeftCol)
	_, buildKey := sqlSplit(j.RightCol)
	probeName, buildName := j.Left.RefName(), j.Right.RefName()
	build := buildRes.Records()
	ht := make(map[string][]record.Record, len(build))
	for _, r := range build {
		k := fmt.Sprintf("%v", r[buildKey])
		ht[k] = append(ht[k], r)
	}
	var joined []record.Record
	probeRow := func(pr record.Record) {
		k := fmt.Sprintf("%v", pr[probeKey])
		for _, br := range ht[k] {
			out := make(record.Record, len(pr)+len(br))
			for c, v := range pr {
				out[c] = v
				out[probeName+"."+c] = v
			}
			for c, v := range br {
				if _, clash := out[c]; !clash {
					out[c] = v
				}
				out[buildName+"."+c] = v
			}
			joined = append(joined, out)
		}
	}
	if probeRel.src != nil {
		for {
			b, err := probeRel.src.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				probeRel.failScan(err)
				return nil, err
			}
			for r := 0; r < b.Len; r++ {
				rec := b.Record(r)
				if len(probeRel.residual) > 0 && !recordSatisfies(rec, probeRel.residual) {
					continue
				}
				probeRow(rec)
			}
		}
		probeRel.completeScan()
	} else {
		rows := probeRel.rows
		if len(probeRel.residual) > 0 {
			rows = filterRows(rows, probeRel.residual)
		}
		for _, pr := range rows {
			probeRow(pr)
		}
	}
	stats := probeRel.stats
	stats.Merge(buildRes.Stats)
	plan := append(append([]string(nil), probeRel.plan...), buildRes.Plan...)
	// Residual: predicates with no side qualifier (must run post-join).
	var residual []sqlparse.Predicate
	for _, p := range stmt.Where {
		if p.Table == "" {
			residual = append(residual, p)
		}
	}
	return &relation{rows: joined, stats: stats, plan: plan, residual: residual}, nil
}

// predicatesFor selects WHERE conjuncts for a table ref. includeUnqualified
// adds predicates with no qualifier (single-table queries).
func predicatesFor(where []sqlparse.Predicate, refName string, includeUnqualified bool) []sqlparse.Predicate {
	var out []sqlparse.Predicate
	for _, p := range where {
		if p.Table == refName || (includeUnqualified && p.Table == "") {
			out = append(out, p)
		}
	}
	return out
}

func stripQualifiers(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		_, out[i] = sqlSplit(c)
	}
	return out
}

func sqlSplit(col string) (table, column string) {
	if i := strings.IndexByte(col, '.'); i >= 0 {
		return col[:i], col[i+1:]
	}
	return "", col
}

// selectionColumns lists projected column names for pushdown (nil for *).
func selectionColumns(stmt *sqlparse.SelectStmt, refName string, residual []sqlparse.Predicate) []string {
	var cols []string
	for _, it := range stmt.Items {
		if it.Star {
			return nil
		}
		if it.Table == "" || it.Table == refName {
			cols = append(cols, it.Column)
		}
	}
	// WHERE/ORDER BY columns must survive the projection for residual work;
	// simplest correct choice: fetch all columns when any extra is needed.
	need := map[string]bool{}
	for _, c := range cols {
		need[c] = true
	}
	for _, o := range stmt.OrderBy {
		_, c := sqlSplit(o.Column)
		if !need[c] {
			return nil
		}
	}
	for _, p := range residual {
		if !need[p.Column] {
			return nil
		}
	}
	return cols
}

// filterRows applies residual predicates in the engine.
func filterRows(rows []record.Record, preds []sqlparse.Predicate) []record.Record {
	var out []record.Record
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			if !rowSatisfies(r, p) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func rowSatisfies(r record.Record, p sqlparse.Predicate) bool {
	key := p.Column
	if p.Table != "" {
		if v, ok := r[p.Table+"."+p.Column]; ok {
			return literalCompare(v, p)
		}
	}
	v, ok := r[key]
	if !ok || v == nil {
		return false
	}
	return literalCompare(v, p)
}

// literalCompare evaluates one predicate against a row value using the
// shared record.Compare ordering (numeric coercion included), so engine-side
// residual filtering agrees exactly with pushed-down filtering.
func literalCompare(v any, p sqlparse.Predicate) bool {
	cmp := record.Compare(v, p.Value)
	switch p.Op {
	case sqlparse.CmpEq:
		return cmp == 0
	case sqlparse.CmpNe:
		return cmp != 0
	case sqlparse.CmpLt:
		return cmp < 0
	case sqlparse.CmpLe:
		return cmp <= 0
	case sqlparse.CmpGt:
		return cmp > 0
	case sqlparse.CmpGe:
		return cmp >= 0
	case sqlparse.CmpBetween:
		return cmp >= 0 && record.Compare(v, p.Value2) <= 0
	case sqlparse.CmpIn:
		for _, want := range p.Values {
			if record.Compare(v, want) == 0 {
				return true
			}
		}
		return false
	}
	return false
}

// engineAggregator is the engine-side hash aggregation, fed one record at
// a time so streaming scans fold into it batch-by-batch without ever
// materializing their input. aggregateRows wraps it for materialized
// inputs — one implementation, so both paths are identical by
// construction.
type engineAggregator struct {
	stmt    *sqlparse.SelectStmt
	groupBy []string
	groups  map[string]*engineAggGroup
	order   []string
}

type engineAggState struct {
	count int64
	sum   float64
	min   float64
	max   float64
	seen  bool
}

type engineAggGroup struct {
	values map[string]any
	aggs   []engineAggState
}

func newEngineAggregator(stmt *sqlparse.SelectStmt) *engineAggregator {
	return &engineAggregator{
		stmt:    stmt,
		groupBy: stripQualifiers(stmt.GroupBy),
		groups:  make(map[string]*engineAggGroup),
	}
}

// add folds one input record into its group's accumulators.
func (a *engineAggregator) add(r record.Record) error {
	var kb strings.Builder
	for _, g := range a.stmt.GroupBy {
		fmt.Fprintf(&kb, "%v|", lookupColumn(r, g))
	}
	k := kb.String()
	g, ok := a.groups[k]
	if !ok {
		g = &engineAggGroup{values: map[string]any{}, aggs: make([]engineAggState, len(a.stmt.Items))}
		for i, gc := range a.stmt.GroupBy {
			g.values[a.groupBy[i]] = lookupColumn(r, gc)
		}
		a.groups[k] = g
		a.order = append(a.order, k)
	}
	for i, it := range a.stmt.Items {
		if it.Func == sqlparse.FuncNone {
			continue
		}
		st := &g.aggs[i]
		if it.Func == sqlparse.FuncCount && it.Column == "" {
			st.count++
			continue
		}
		v := lookupColumn(r, qualName(it.Table, it.Column))
		if v == nil {
			continue
		}
		if it.Func == sqlparse.FuncCount {
			st.count++
			continue
		}
		f, ok := record.ToFloat64(v)
		if !ok {
			// Match the OLAP layer's validation: SUM/AVG/MIN/MAX over
			// non-numeric values are rejected, never coerced to 0, so
			// the engine-side fallback stays equivalent to pushdown.
			return fmt.Errorf("fedsql: %s over non-numeric value %T is not supported; use COUNT", it.OutputName(), v)
		}
		st.count++
		st.sum += f
		if !st.seen || f < st.min {
			st.min = f
		}
		if !st.seen || f > st.max {
			st.max = f
		}
		st.seen = true
	}
	return nil
}

// result finalizes the groups into output records, key-sorted.
func (a *engineAggregator) result() []record.Record {
	if len(a.groups) == 0 && len(a.stmt.GroupBy) == 0 {
		a.groups[""] = &engineAggGroup{values: map[string]any{}, aggs: make([]engineAggState, len(a.stmt.Items))}
		a.order = append(a.order, "")
	}
	sort.Strings(a.order)
	var out []record.Record
	for _, k := range a.order {
		g := a.groups[k]
		rec := make(record.Record, len(a.stmt.Items))
		for c, v := range g.values {
			rec[c] = v
		}
		for i, it := range a.stmt.Items {
			if it.Func == sqlparse.FuncNone {
				continue
			}
			st := g.aggs[i]
			// SQL NULL semantics, matching the OLAP layer's aggValue:
			// MIN/MAX/AVG over zero non-null values are NULL, so the
			// engine-side fallback stays equivalent to pushdown.
			switch it.Func {
			case sqlparse.FuncCount:
				rec[it.OutputName()] = st.count
			case sqlparse.FuncSum:
				rec[it.OutputName()] = st.sum
			case sqlparse.FuncMin:
				if st.seen {
					rec[it.OutputName()] = st.min
				}
			case sqlparse.FuncMax:
				if st.seen {
					rec[it.OutputName()] = st.max
				}
			case sqlparse.FuncAvg:
				if st.count > 0 {
					rec[it.OutputName()] = st.sum / float64(st.count)
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// aggregateRows runs engine-side hash aggregation over a materialized
// input (joins, subqueries).
func aggregateRows(rows []record.Record, stmt *sqlparse.SelectStmt) ([]record.Record, error) {
	a := newEngineAggregator(stmt)
	for _, r := range rows {
		if err := a.add(r); err != nil {
			return nil, err
		}
	}
	return a.result(), nil
}

func qualName(table, column string) string {
	if table != "" {
		return table + "." + column
	}
	return column
}

// lookupColumn resolves a possibly-qualified column in a row.
func lookupColumn(r record.Record, col string) any {
	if v, ok := r[col]; ok {
		return v
	}
	// Qualified name requested but row has unqualified (or vice versa).
	if t, c := sqlSplit(col); t != "" {
		if v, ok := r[c]; ok {
			return v
		}
	}
	return nil
}

// outputColumns derives the result column list.
func outputColumns(stmt *sqlparse.SelectStmt, rows []record.Record, rel *relation) ([]string, error) {
	var cols []string
	for _, it := range stmt.Items {
		if it.Star {
			if len(rel.cols) > 0 {
				cols = append(cols, rel.cols...)
				continue
			}
			// Derive from row keys (sorted, unqualified only).
			seen := map[string]bool{}
			for _, r := range rows {
				for k := range r {
					if !strings.Contains(k, ".") && !seen[k] {
						seen[k] = true
					}
				}
			}
			var names []string
			for k := range seen {
				names = append(names, k)
			}
			sort.Strings(names)
			cols = append(cols, names...)
			continue
		}
		if it.Func != sqlparse.FuncNone || it.Table == "" {
			cols = append(cols, it.OutputName())
		} else {
			// Qualified plain column: output name is column (or alias).
			if it.Alias != "" {
				cols = append(cols, it.Alias)
			} else {
				cols = append(cols, it.Table+"."+it.Column)
			}
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("fedsql: empty projection")
	}
	return cols, nil
}

// orderAndLimit applies ORDER BY / LIMIT on the final result.
func orderAndLimit(res *Result, stmt *sqlparse.SelectStmt) error {
	if len(stmt.OrderBy) > 0 {
		idx := make([]int, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			_, want := sqlSplit(o.Column)
			idx[i] = -1
			for ci, c := range res.Columns {
				_, cc := sqlSplit(c)
				if c == o.Column || cc == want {
					idx[i] = ci
					break
				}
			}
			if idx[i] < 0 {
				return fmt.Errorf("fedsql: ORDER BY column %q not in projection", o.Column)
			}
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, o := range stmt.OrderBy {
				cmp := record.Compare(res.Rows[a][idx[i]], res.Rows[b][idx[i]])
				if cmp == 0 {
					continue
				}
				if o.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if stmt.Limit > 0 && len(res.Rows) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
	}
	return nil
}
