package olap

import (
	"container/heap"
	"sort"

	"repro/internal/record"
)

// This file implements the bounded top-K execution path for ORDER BY/LIMIT
// queries — Pinot's answer to the dashboard query shape
// (GROUP BY d ORDER BY agg DESC LIMIT 10). Instead of materializing every
// matching row and shipping every candidate group to the broker, segments
// keep a bounded heap of the best Limit+Offset selection rows, grouped
// aggregations trim to the top max(Limit*5, TrimSize) groups by the leading
// ORDER BY term (Pinot's minSegmentGroupTrimSize rule), and servers apply
// the same bound to the merged partial before it crosses the wire. Broker
// memory for the gather phase is then O(K · servers), not O(groups).
//
// Group trimming is deliberately inexact under pathological skew — a group
// trimmed on one server may survive on another, leaving its aggregate
// partial — exactly like Pinot's server-side trim. Selection-row heaps are
// always exact up to tie order (per-segment top-K rows are independent, so
// their union contains the global top K). QueryRequest.TrimExact disables
// all trimming for byte-identical full-sort results.

// DefaultGroupTrimSize is the minimum number of groups a trimmed grouped
// aggregation keeps per segment and per server — the stand-in for Pinot's
// minSegmentGroupTrimSize. Queries keep max(5·(Limit+Offset), trim size)
// groups so low limits retain a healthy accuracy margin.
const DefaultGroupTrimSize = 1000

// GroupTrimK returns the group budget a trimmed top-K aggregation keeps at
// each segment and server: max(limit*5, trimSize), with trimSize <= 0
// meaning DefaultGroupTrimSize.
func GroupTrimK(limit, trimSize int) int {
	if trimSize <= 0 {
		trimSize = DefaultGroupTrimSize
	}
	if k := limit * 5; k > trimSize {
		return k
	}
	return trimSize
}

// topKPlan is the execution-time shape of a bounded ORDER BY/LIMIT query,
// derived once by planTopK and threaded from the broker through
// Server.ExecuteOn down to segment scans. nil means exact (untrimmed)
// execution.
type topKPlan struct {
	// rowK bounds selection-row heaps: the best Limit+Offset rows.
	rowK int
	// groupK bounds grouped aggregations: max(Limit*5, trim size) groups.
	groupK int
	// The leading ORDER BY term resolves to either a group-by value index
	// (valIdx >= 0) or an aggregation index (aggIdx >= 0); trimming ranks
	// groups by that term only, like Pinot's segment trim.
	valIdx  int
	aggIdx  int
	aggKind AggKind
	desc    bool
}

// planTopK derives the trim plan for a query, or nil when the query has no
// ORDER BY + LIMIT or its leading ORDER BY term does not resolve to an
// output column (Finalize will reject such queries anyway).
func planTopK(q *Query, trimSize int) *topKPlan {
	if q.Limit <= 0 || len(q.OrderBy) == 0 {
		return nil
	}
	tp := &topKPlan{rowK: q.Limit + q.Offset, valIdx: -1, aggIdx: -1, desc: q.OrderBy[0].Desc}
	if len(q.Aggs) == 0 {
		return tp
	}
	tp.groupK = GroupTrimK(q.Limit+q.Offset, trimSize)
	lead := q.OrderBy[0].Column
	for gi, g := range q.GroupBy {
		if g == lead {
			tp.valIdx = gi
		}
	}
	// Aggregation names override group columns on collision, matching the
	// last-match-wins column lookup in sortAndLimit.
	for ai, a := range q.Aggs {
		if a.outName() == lead {
			tp.valIdx, tp.aggIdx, tp.aggKind = -1, ai, a.Kind
		}
	}
	if tp.valIdx < 0 && tp.aggIdx < 0 {
		return nil
	}
	return tp
}

// orderComparator builds the full ORDER BY comparator over result rows with
// the given columns. Reports false when an ORDER BY column is absent from
// the row shape (callers then fall back to untrimmed execution). Rows tied
// on every ORDER BY term are ordered by their remaining columns, ascending:
// the order is total, so segment heaps, server trims and the final sort
// pick the same rows whatever order they arrive in.
func orderComparator(q *Query, cols []string) (func(a, b []any) int, bool) {
	idx := make([]int, len(q.OrderBy))
	ordered := make([]bool, len(cols))
	for i, o := range q.OrderBy {
		idx[i] = -1
		for ci, c := range cols {
			if c == o.Column {
				idx[i] = ci
			}
		}
		if idx[i] < 0 {
			return nil, false
		}
		ordered[idx[i]] = true
	}
	var rest []int
	for ci := range cols {
		if !ordered[ci] {
			rest = append(rest, ci)
		}
	}
	return func(a, b []any) int {
		for i, o := range q.OrderBy {
			cmp := record.Compare(a[idx[i]], b[idx[i]])
			if cmp == 0 {
				continue
			}
			if o.Desc {
				return -cmp
			}
			return cmp
		}
		for _, ci := range rest {
			if cmp := record.Compare(a[ci], b[ci]); cmp != 0 {
				return cmp
			}
		}
		return 0
	}, true
}

// rowHeap is the container/heap backing of topKRows: the root is the WORST
// row currently kept, so a better candidate replaces it in O(log k).
type rowHeap struct {
	rows [][]any
	cmp  func(a, b []any) int // < 0 means a ranks before (better than) b
}

func (h *rowHeap) Len() int           { return len(h.rows) }
func (h *rowHeap) Less(i, j int) bool { return h.cmp(h.rows[i], h.rows[j]) > 0 }
func (h *rowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x any)         { h.rows = append(h.rows, x.([]any)) }
func (h *rowHeap) Pop() any {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}

// topKRows keeps the best k rows seen under an ORDER BY comparator in O(k)
// memory. Earlier rows win ties (a tie never evicts), matching the stable
// full sort's preference for earlier doc IDs at the cut line.
type topKRows struct {
	k int
	h rowHeap
}

func newTopKRows(k int, cmp func(a, b []any) int) *topKRows {
	return &topKRows{k: k, h: rowHeap{cmp: cmp}}
}

func (t *topKRows) push(row []any) {
	if t.h.Len() < t.k {
		heap.Push(&t.h, row)
		return
	}
	if t.h.cmp(row, t.h.rows[0]) < 0 {
		t.h.rows[0] = row
		heap.Fix(&t.h, 0)
	}
}

// take returns the kept rows in heap order (arbitrary); Finalize's full
// sort over the O(K · fan-out) survivors restores the user-facing order.
func (t *topKRows) take() [][]any { return t.h.rows }

// trimGroups keeps the groupK best groups by the plan's leading ORDER BY
// term, returning the kept map and how many groups were dropped. Ties break
// on the map key so trimming is deterministic regardless of map iteration
// or merge arrival order. The input map is returned untouched when no
// trimming applies.
func trimGroups(groups map[string]*groupAgg, tp *topKPlan) (map[string]*groupAgg, int64) {
	if tp == nil || tp.groupK <= 0 || len(groups) <= tp.groupK {
		return groups, 0
	}
	type keyed struct {
		key string
		g   *groupAgg
		v   any
	}
	all := make([]keyed, 0, len(groups))
	for k, g := range groups {
		var v any
		if tp.valIdx >= 0 {
			v = g.values[tp.valIdx]
		} else {
			v = aggValue(g.aggs[tp.aggIdx], tp.aggKind)
		}
		all = append(all, keyed{k, g, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if cmp := record.Compare(all[i].v, all[j].v); cmp != 0 {
			if tp.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return all[i].key < all[j].key
	})
	kept := make(map[string]*groupAgg, tp.groupK)
	for _, e := range all[:tp.groupK] {
		kept[e.key] = e.g
	}
	return kept, int64(len(all) - tp.groupK)
}

// trimTopK bounds a merged partial before it leaves the server: grouped
// aggregations keep groupK groups, selections keep rowK rows. Counts
// dropped groups into stats.GroupsTrimmed.
func (p *Partial) trimTopK(q *Query, tp *topKPlan) {
	if tp == nil {
		return
	}
	if p.agg {
		groups, trimmed := trimGroups(p.groups, tp)
		p.groups = groups
		p.stats.GroupsTrimmed += trimmed
		return
	}
	if tp.rowK <= 0 || len(p.rows) <= tp.rowK {
		return
	}
	if cmp, ok := orderComparator(q, p.cols); ok {
		tk := newTopKRows(tp.rowK, cmp)
		for _, r := range p.rows {
			tk.push(r)
		}
		p.rows = tk.take()
	}
}
