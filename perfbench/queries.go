package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/olap"
	"repro/internal/record"
)

// The seven query kinds, in report order.
var kinds = []string{"agg", "multigroup", "distinct", "topk", "sql_agg", "sql_select", "sql_join"}

// kindWeights fixes the mix: out of every 15 client queries, this many are of
// each kind.
var kindWeights = map[string]int{
	"agg": 4, "multigroup": 2, "distinct": 2, "topk": 2,
	"sql_agg": 2, "sql_select": 2, "sql_join": 1,
}

const (
	windowFrac  = 0.5  // share of the backlog's event-time range one query covers
	poolPerKind = 24   // seeded query instances per kind; a multiple of 12 cities and 4 statuses
	topK        = 10   // LIMIT of the topk kind
	selectLimit = 1000 // LIMIT of the sql_select kind
)

func isSQL(kind string) bool { return strings.HasPrefix(kind, "sql_") }

// spec is one query instance: its kind, seeded literals and event-time
// window. It builds both the program's query and the reference answer.
type spec struct {
	kind      string
	city      string
	cities    []string
	status    string
	minAmount float64
	lo, hi    int64 // inclusive event-time window
}

// query is a ready-to-run instance with its expected answer.
type query struct {
	spec
	req  *olap.QueryRequest // broker kinds
	sql  string             // SQL kinds
	want answer
}

// makeQueries builds poolPerKind instances of every kind. Each instance
// covers a seeded windowFrac slice of the backlog's event-time range, so live
// rows never match and answers are fixed.
// Literals are stratified, not drawn independently: every pool holds each
// city, status, threshold and window start equally often, in a seeded order,
// so the pools of two seeds cost the same to run.
func makeQueries(seed int64, ds *dataset) map[string][]*query {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	span := int64(len(ds.static)) * staticStepMs
	width := int64(float64(span) * windowFrac)
	out := make(map[string][]*query, len(kinds))
	for _, kind := range kinds {
		city := stratified(r, cities)
		status := stratified(r, statuses)
		starts := r.Perm(poolPerKind)
		thresholds := r.Perm(poolPerKind)
		// An IN list takes one city from each third of the weight-sorted
		// list, pairing the i-th largest with the i-th smallest, so every
		// list selects the same share of the rows.
		var triples [][]string
		for len(triples) < poolPerKind {
			a, b := r.Perm(4), r.Perm(4)
			for j := 0; j < 4; j++ {
				triples = append(triples, []string{cities[a[j]], cities[4+b[j]], cities[11-a[j]]})
			}
		}
		for i := 0; i < poolPerKind; i++ {
			lo := staticT0 + int64(starts[i])*(span-width)/(poolPerKind-1)
			s := spec{kind: kind, lo: lo, hi: lo + width - 1,
				city: city[i], status: status[i], cities: triples[i],
				minAmount: float64(50 + thresholds[i])}
			q := &query{spec: s}
			if isSQL(kind) {
				q.sql = s.sqlText()
			} else {
				q.req = s.request()
			}
			q.want = reference(&s, ds)
			out[kind] = append(out[kind], q)
		}
	}
	return out
}

// stratified repeats vals to poolPerKind entries, each equally often, in a
// seeded order.
func stratified(r *rand.Rand, vals []string) []string {
	out := make([]string, 0, poolPerKind)
	for len(out) < poolPerKind {
		out = append(out, vals...)
	}
	out = out[:poolPerKind]
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// request builds the broker request of a broker kind.
func (s *spec) request() *olap.QueryRequest {
	q := &olap.Query{Table: "orders"}
	sum := olap.AggSpec{Kind: olap.AggSum, Column: "amount", As: "revenue"}
	count := olap.AggSpec{Kind: olap.AggCount, As: "n"}
	switch s.kind {
	case "agg":
		q.Filters = []olap.Filter{{Column: "status", Op: olap.OpEq, Value: s.status}}
		q.GroupBy = []string{"city"}
		q.Aggs = []olap.AggSpec{sum, count, {Kind: olap.AggAvg, Column: "amount", As: "avg_amount"}}
	case "multigroup":
		q.Filters = []olap.Filter{{Column: "amount", Op: olap.OpGe, Value: s.minAmount}}
		q.GroupBy = []string{"city", "status"}
		q.Aggs = []olap.AggSpec{count, sum}
	case "distinct":
		vals := make([]any, len(s.cities))
		for i, c := range s.cities {
			vals[i] = c
		}
		q.Filters = []olap.Filter{{Column: "city", Op: olap.OpIn, Values: vals}}
		q.GroupBy = []string{"city"}
		q.Aggs = []olap.AggSpec{{Kind: olap.AggDistinctCount, Column: "restaurant", As: "restaurants"}}
	case "topk":
		q.Filters = []olap.Filter{{Column: "status", Op: olap.OpEq, Value: s.status}}
		q.GroupBy = []string{"restaurant"}
		q.Aggs = []olap.AggSpec{sum}
		q.OrderBy = []olap.OrderSpec{{Column: "revenue", Desc: true}}
		q.Limit = topK
	}
	return &olap.QueryRequest{Query: q, Time: &olap.TimeRange{From: s.lo, To: s.hi}}
}

// sqlText builds the statement of a SQL kind.
func (s *spec) sqlText() string {
	switch s.kind {
	case "sql_agg":
		return fmt.Sprintf("SELECT status, COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders "+
			"WHERE city = '%s' AND ts BETWEEN %d AND %d GROUP BY status ORDER BY total DESC", s.city, s.lo, s.hi)
	case "sql_select":
		return fmt.Sprintf("SELECT order_id, amount FROM pinot.orders "+
			"WHERE city = '%s' AND status = '%s' AND ts BETWEEN %d AND %d LIMIT %d", s.city, s.status, s.lo, s.hi, selectLimit)
	default: // sql_join
		return fmt.Sprintf("SELECT r.cuisine, COUNT(*) AS n, SUM(o.amount) AS revenue "+
			"FROM pinot.orders o JOIN hive.restaurants r ON o.restaurant = r.restaurant "+
			"WHERE o.city = '%s' AND o.ts BETWEEN %d AND %d GROUP BY r.cuisine ORDER BY r.cuisine", s.city, s.lo, s.hi)
	}
}

// answer is a reference result computed from the generated rows alone.
type answer struct {
	// rows are canonical row strings; in order when ordered is set,
	// otherwise sorted.
	rows    []string
	ordered bool
	// topk: every group's revenue, and the revenue ranked K+1 (0 if none).
	groupSum map[string]float64
	cutoff   float64
	// sql_select: the amount of every matching order.
	matches map[int64]float64
}

// reference evaluates a spec over the backlog without the program.
func reference(s *spec, ds *dataset) answer {
	type acc struct {
		n   int64
		sum float64
		set map[string]bool
	}
	groups := map[string]*acc{}
	get := func(k string) *acc {
		a := groups[k]
		if a == nil {
			a = &acc{set: map[string]bool{}}
			groups[k] = a
		}
		return a
	}
	inCities := func(c string) bool {
		for _, x := range s.cities {
			if x == c {
				return true
			}
		}
		return false
	}
	var ans answer
	if s.kind == "sql_select" {
		ans.matches = map[int64]float64{}
	}
	for i := range ds.static {
		e := &ds.static[i]
		if e.ts < s.lo || e.ts > s.hi {
			continue
		}
		switch s.kind {
		case "agg":
			if e.status == s.status {
				a := get(e.city)
				a.n++
				a.sum += e.amount
			}
		case "multigroup":
			if e.amount >= s.minAmount {
				a := get(e.city + "|" + e.status)
				a.n++
				a.sum += e.amount
			}
		case "distinct":
			if inCities(e.city) {
				get(e.city).set[e.restaurant] = true
			}
		case "topk":
			if e.status == s.status {
				get(e.restaurant).sum += e.amount
			}
		case "sql_agg":
			if e.city == s.city {
				a := get(e.status)
				a.n++
				a.sum += e.amount
			}
		case "sql_select":
			if e.city == s.city && e.status == s.status {
				ans.matches[e.orderID] = e.amount
			}
		case "sql_join":
			if e.city == s.city {
				a := get(ds.cuisine[e.restaurant])
				a.n++
				a.sum += e.amount
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	switch s.kind {
	case "agg":
		for _, k := range keys {
			a := groups[k]
			ans.rows = append(ans.rows, canon(k, a.sum, a.n, a.sum/float64(a.n)))
		}
	case "multigroup":
		for _, k := range keys {
			a := groups[k]
			city, status, _ := strings.Cut(k, "|")
			ans.rows = append(ans.rows, canon(city, status, a.n, a.sum))
		}
	case "distinct":
		for _, k := range keys {
			ans.rows = append(ans.rows, canon(k, len(groups[k].set)))
		}
	case "topk":
		ans.groupSum = map[string]float64{}
		sums := make([]float64, 0, len(keys))
		for _, k := range keys {
			ans.groupSum[k] = groups[k].sum
			sums = append(sums, groups[k].sum)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(sums)))
		if len(sums) > topK {
			ans.cutoff = sums[topK]
		}
	case "sql_agg":
		sort.SliceStable(keys, func(i, j int) bool { return groups[keys[i]].sum > groups[keys[j]].sum })
		for _, k := range keys {
			ans.rows = append(ans.rows, canon(k, groups[k].n, groups[k].sum))
		}
		ans.ordered = true
	case "sql_join":
		for _, k := range keys {
			ans.rows = append(ans.rows, canon(k, groups[k].n, groups[k].sum))
		}
		ans.ordered = true
	}
	return ans
}

// canon renders one row with numbers in a type-independent form, so an
// int64 count and a float64 count of the same value compare equal.
func canon(vals ...any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if _, isStr := v.(string); !isStr {
			if f, ok := record.ToFloat64(v); ok {
				parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
				continue
			}
		}
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "|")
}

// check compares a program answer against the reference.
func (q *query) check(rows [][]any) error {
	switch q.kind {
	case "topk":
		return checkTopK(q.want, rows)
	case "sql_select":
		return checkSelect(q.want, rows)
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = canon(r...)
	}
	if !q.want.ordered {
		sort.Strings(got)
	}
	if len(got) != len(q.want.rows) {
		return fmt.Errorf("%s: %d rows, want %d", q.kind, len(got), len(q.want.rows))
	}
	for i := range got {
		if got[i] != q.want.rows[i] {
			return fmt.Errorf("%s: row %d = %s, want %s", q.kind, i, got[i], q.want.rows[i])
		}
	}
	return nil
}

// checkTopK accepts any correct top-K: every returned group carries its exact
// revenue, revenues do not increase, and nothing outside the result beats
// its last row. Ties at the boundary may resolve either way.
func checkTopK(want answer, rows [][]any) error {
	n := min(topK, len(want.groupSum))
	if len(rows) != n {
		return fmt.Errorf("topk: %d rows, want %d", len(rows), n)
	}
	prev := 0.0
	seen := map[string]bool{}
	for i, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("topk: row %d has %d columns", i, len(r))
		}
		name := fmt.Sprint(r[0])
		sum, ok := record.ToFloat64(r[1])
		exp, known := want.groupSum[name]
		if !ok || !known || sum != exp || seen[name] {
			return fmt.Errorf("topk: row %d = %v, want revenue %v", i, r, exp)
		}
		if i > 0 && sum > prev {
			return fmt.Errorf("topk: row %d out of order", i)
		}
		seen[name] = true
		prev = sum
	}
	if n > 0 && prev < want.cutoff {
		return fmt.Errorf("topk: last revenue %v below rank-%d revenue %v", prev, topK+1, want.cutoff)
	}
	return nil
}

// checkSelect accepts any min(LIMIT, matches) distinct matching rows.
func checkSelect(want answer, rows [][]any) error {
	n := min(selectLimit, len(want.matches))
	if len(rows) != n {
		return fmt.Errorf("sql_select: %d rows, want %d", len(rows), n)
	}
	seen := map[int64]bool{}
	for i, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("sql_select: row %d has %d columns", i, len(r))
		}
		idf, ok1 := record.ToFloat64(r[0])
		amt, ok2 := record.ToFloat64(r[1])
		id := int64(idf)
		exp, known := want.matches[id]
		if !ok1 || !ok2 || !known || exp != amt || seen[id] {
			return fmt.Errorf("sql_select: row %d = %v does not match the filter", i, r)
		}
		seen[id] = true
	}
	return nil
}

// mixCycle returns one seeded cycle of client query kinds with the fixed
// weights.
func mixCycle(seed int64) []string {
	var cycle []string
	for _, k := range kinds {
		for i := 0; i < kindWeights[k]; i++ {
			cycle = append(cycle, k)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x6d6978))
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}
