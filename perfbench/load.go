package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/olap"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

const (
	probeDeadline = 5 * time.Second // a probe not seen by then has failed
	// pollEvery spaces probe polls. A poll scans the consuming segments row
	// by row and takes about a millisecond, so polling back to back, or
	// every millisecond, made the poll loop itself a busy query client
	// whose CPU use grew whenever freshness did.
	pollEvery  = 5 * time.Millisecond
	traceBlock = 500 * time.Millisecond // traced runs alternate traced and untraced blocks
)

// tally counts attempted and failed operations and keeps the first errors.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// opSample is one timed operation of the measured phase.
type opSample struct {
	kind   string // query kind, "produce" or "poll"
	traced bool
	ms     float64
}

// slice is what the ingest-only slice measured.
type slice struct {
	rows int
	sum  float64       // amounts of the rows produced
	cpu  time.Duration // process CPU from the first produce until the table held every row
	wall time.Duration
}

// ingestOnly produces msgs open loop at sliceRowsPerSec in sliceBatchRows-row
// batches, with no query client and no probes, and waits until the table
// holds every row produced.
func ingestOnly(s *stack, msgs []stream.Message, live []event) (slice, error) {
	var sl slice
	ingested0, _, _ := s.d.Stats()
	sched := schedule{start: time.Now(), every: time.Second * sliceBatchRows / sliceRowsPerSec}
	cpu0 := cpuTime()
	for k := 0; (k+1)*sliceBatchRows <= len(msgs); k++ {
		time.Sleep(time.Until(sched.due(k)))
		lo, hi := k*sliceBatchRows, (k+1)*sliceBatchRows
		if err := s.producer.ProduceBatch("orders_raw", msgs[lo:hi]); err != nil {
			return sl, fmt.Errorf("ingest-only slice: %w", err)
		}
		sl.rows += hi - lo
		for i := lo; i < hi; i++ {
			sl.sum += live[i].amount
		}
	}
	err := waitFor(30*time.Second, func() (bool, error) {
		ingested, _, _ := s.d.Stats()
		return ingested >= ingested0+int64(sl.rows), nil
	})
	sl.cpu, sl.wall = cpuTime()-cpu0, time.Since(sched.start)
	if err != nil {
		return sl, fmt.Errorf("ingest-only slice: drain: %w", err)
	}
	return sl, nil
}

// phase drives the measured phase: an open-loop generator of live rows with
// probes, and one query client, each on its own goroutine.
type phase struct {
	w       workload
	s       *stack
	ds      *dataset
	queries map[string][]*query
	cycle   []string
	rec     *recorder // nil in untraced runs
	tally   *tally

	start, end time.Time
	interval   time.Duration // time between produce batches
	nextPoll   time.Time     // earliest start of the next probe poll

	clientStart, clientEnd time.Time // first query start, last query end

	// Traced runs: brokers with their own tracers, one per goroutine, so the
	// one-slot recent ring holds exactly the call just made.
	clientBroker, probeBroker *olap.Broker
	clientTracer, probeTracer *obs.Tracer
	sqlTracer                 *obs.Tracer

	mu        sync.Mutex
	ops       []opSample
	freshness []float64
	lateness  []float64
	liveRows  int     // rows acknowledged by the stream
	liveSum   float64 // their amounts
}

func (ph *phase) traced(t time.Time) bool {
	return ph.rec != nil && int(t.Sub(ph.start)/traceBlock)%2 == 0
}

func (ph *phase) recordOp(kind string, traced bool, d time.Duration) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, opSample{kind: kind, traced: traced, ms: ms(d)})
	ph.mu.Unlock()
}

func (ph *phase) recFor(traced bool) *recorder {
	if traced {
		return ph.rec
	}
	return nil
}

// probe is a live row whose arrival in the table is watched.
type probe struct {
	due time.Time
	ts  int64
}

// generate produces the live rows batch by batch on the open-loop schedule.
// The last row of every batch is a probe; between batches it polls the table
// for outstanding probes.
func (ph *phase) generate(msgs []stream.Message) {
	sched := schedule{start: ph.start, every: ph.interval}
	outstanding := map[int64]probe{}
	batch := ph.w.batchRows
	for k := 0; ; k++ {
		due := sched.due(k)
		lo, hi := k*batch, (k+1)*batch
		if !due.Before(ph.end) || hi > len(msgs) {
			break
		}
		ph.pollUntil(outstanding, due)
		now := time.Now()
		late := sched.late(k, now)
		traced := ph.traced(now)
		rec := ph.recFor(traced)
		op := rec.newOp()
		sp := rec.start(op, -1, "stream.Producer.ProduceBatch")
		callStart := time.Now()
		err := ph.s.producer.ProduceBatch("orders_raw", msgs[lo:hi])
		ph.recordOp("produce", traced, time.Since(callStart))
		rec.end(sp, int64(hi-lo))
		ph.tally.add(err)
		ph.mu.Lock()
		ph.lateness = append(ph.lateness, ms(late))
		if err == nil {
			ph.liveRows += hi - lo
			for i := lo; i < hi; i++ {
				ph.liveSum += ph.ds.live[i].amount
			}
		}
		ph.mu.Unlock()
		if err == nil {
			p := &ph.ds.live[hi-1]
			outstanding[p.orderID] = probe{due: due, ts: p.ts}
		}
	}
	ph.pollUntil(outstanding, time.Time{})
}

// pollUntil polls for outstanding probes, starting a poll at most every
// pollEvery, until the given time; for the zero time, until no probe is
// outstanding.
func (ph *phase) pollUntil(outstanding map[int64]probe, until time.Time) {
	for {
		now := time.Now()
		switch {
		case !until.IsZero() && !now.Before(until):
			return
		case len(outstanding) == 0:
			if until.IsZero() {
				return
			}
			time.Sleep(until.Sub(now))
		case now.Before(ph.nextPoll):
			wait := ph.nextPoll.Sub(now)
			if !until.IsZero() {
				wait = min(wait, until.Sub(now))
			}
			time.Sleep(wait)
		default:
			ph.nextPoll = now.Add(pollEvery)
			ph.poll(outstanding)
		}
	}
}

// poll runs one time-windowed query covering every outstanding probe and
// settles the probes it finds or that passed their deadline.
func (ph *phase) poll(outstanding map[int64]probe) {
	ids := make([]any, 0, len(outstanding))
	lo, hi := int64(1<<62), int64(0)
	for id, p := range outstanding {
		ids = append(ids, id)
		lo, hi = min(lo, p.ts), max(hi, p.ts)
	}
	req := &olap.QueryRequest{
		Query: &olap.Query{Table: "orders", Select: []string{"order_id"},
			Filters: []olap.Filter{{Column: "order_id", Op: olap.OpIn, Values: ids}}},
		Time: &olap.TimeRange{From: lo, To: hi},
	}
	traced := ph.traced(time.Now())
	rec := ph.recFor(traced)
	broker := ph.s.broker
	if traced {
		broker = ph.probeBroker
	}
	op := rec.newOp()
	root := rec.start(op, -1, "bench.poll")
	sp := rec.start(op, root, "olap.Broker.Execute")
	start := time.Now()
	resp, err := broker.Execute(context.Background(), req)
	now := time.Now()
	rec.end(sp, rows(resp))
	if traced {
		rec.attach(op, sp, last(ph.probeTracer))
	}
	rec.end(root, rows(resp))
	ph.recordOp("poll", traced, now.Sub(start))
	if err != nil {
		ph.tally.add(fmt.Errorf("probe poll: %w", err))
		return
	}
	for _, r := range resp.Rows {
		id, ok := r[0].(int64)
		p, out := outstanding[id]
		if !ok || !out {
			continue
		}
		delete(outstanding, id)
		ph.tally.add(nil)
		ph.mu.Lock()
		ph.freshness = append(ph.freshness, ms(now.Sub(p.due)))
		ph.mu.Unlock()
	}
	for id, p := range outstanding {
		if now.Sub(p.due) > probeDeadline {
			delete(outstanding, id)
			ph.tally.add(fmt.Errorf("probe %d not visible %s after its send time", id, probeDeadline))
		}
	}
}

func rows(resp *olap.QueryResponse) int64 {
	if resp == nil {
		return 0
	}
	return int64(len(resp.Rows))
}

// last returns the trace a one-slot tracer holds.
func last(tr *obs.Tracer) *obs.TraceSummary {
	if r := tr.Recent(); len(r) > 0 {
		return r[len(r)-1]
	}
	return nil
}

// client runs the query mix in a closed loop until the phase ends.
func (ph *phase) client() {
	next := map[string]int{}
	ph.clientStart = time.Now()
	for i := 0; time.Now().Before(ph.end); i++ {
		kind := ph.cycle[i%len(ph.cycle)]
		q := ph.queries[kind][next[kind]%poolPerKind]
		next[kind]++
		traced := ph.traced(time.Now())
		start, end, err := ph.runQuery(q, traced)
		ph.recordOp(kind, traced, end.Sub(start))
		ph.tally.add(err)
		ph.clientEnd = end
	}
}

// runQuery executes one query instance through its entry point, checks the
// answer against the reference, and returns when the program call started
// and ended.
// A traced SQL query is parsed once more on its own first, to time the
// parser; that parse is not part of the query's latency.
func (ph *phase) runQuery(q *query, traced bool) (start, end time.Time, err error) {
	rec := ph.recFor(traced)
	op := rec.newOp()
	root := rec.start(op, -1, "bench.query")
	defer rec.setKind(op, root, q.kind)
	var got [][]any
	if isSQL(q.kind) {
		ph.s.p.SQL.Tracer = nil
		if traced {
			ps := rec.start(op, root, "sqlparse.Parse")
			_, err := sqlparse.Parse(q.sql)
			rec.end(ps, 0)
			if err != nil {
				return start, time.Now(), fmt.Errorf("%s: parse: %w", q.kind, err)
			}
			ph.s.p.SQL.Tracer = ph.sqlTracer
		}
		sp := rec.start(op, root, "core.Platform.Query")
		start = time.Now()
		res, err := ph.s.p.Query(useCase, q.sql)
		end = time.Now()
		if err != nil {
			rec.end(sp, 0)
			rec.end(root, 0)
			return start, end, fmt.Errorf("%s: %w", q.kind, err)
		}
		rec.end(sp, int64(len(res.Rows)))
		rec.attach(op, sp, res.Trace)
		got = res.Rows
	} else {
		broker := ph.s.broker
		if traced {
			broker = ph.clientBroker
		}
		sp := rec.start(op, root, "olap.Broker.Execute")
		start = time.Now()
		resp, err := broker.Execute(context.Background(), q.req)
		end = time.Now()
		rec.end(sp, rows(resp))
		if traced {
			rec.attach(op, sp, last(ph.clientTracer))
		}
		if err != nil {
			rec.end(root, 0)
			return start, end, fmt.Errorf("%s: %w", q.kind, err)
		}
		got = resp.Rows
	}
	rec.end(root, int64(len(got)))
	return start, end, q.check(got)
}

// run drives the phase until its end and waits for both goroutines.
func (ph *phase) run(msgs []stream.Message) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ph.generate(msgs)
	}()
	go func() {
		defer wg.Done()
		ph.client()
	}()
	wg.Wait()
}
