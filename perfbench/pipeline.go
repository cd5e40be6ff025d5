package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/stream"
)

const (
	enrichJob  = "enrich"
	archiveJob = "archiver-orders_raw"
	useCase    = "perfbench"
	// enrichSQL is stateless: a WHERE and a projection, no window, so
	// freshness includes no window wait.
	enrichSQL = "SELECT order_id, city, status, restaurant, amount, ts FROM orders_raw WHERE amount > 0"
)

// stack is one assembled pipeline.
type stack struct {
	cluster  *stream.Cluster
	p        *core.Platform
	store    *objstore.MemStore
	d        *olap.Deployment
	broker   *olap.Broker // app broker, default options
	producer *stream.Producer
}

func (s *stack) close() {
	if s.p != nil {
		s.p.Close()
	}
	if s.d != nil {
		s.d.WaitUploads()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// setupTimes splits one setup into its parts. total is the time spent in
// calls into the program; the other fields are points inside the catch-up.
type setupTimes struct {
	total         time.Duration
	catchup       time.Duration // deploy → table answers the backlog count
	enrichCatchup time.Duration // deploy → enrich emitted the backlog
	archiveCatch  time.Duration // deploy → archiver wrote the backlog
}

// timer accumulates the time spent in calls into the program.
type timer struct{ total time.Duration }

func (t *timer) do(rec *recorder, name string, fn func() error) error {
	op := rec.newOp()
	sp := rec.start(op, -1, "setup."+name)
	start := time.Now()
	err := fn()
	t.total += time.Since(start)
	rec.end(sp, 0)
	if err != nil {
		return fmt.Errorf("setup %s: %w", name, err)
	}
	return nil
}

// buildStack assembles the pipeline over the generated inputs: platform,
// streams, the archived restaurants dimension and the backlog, then deploys
// the enrich job, the OLAP table and archival, waits for the table to answer
// the backlog's row count, and seals every consuming segment.
func buildStack(ds *dataset, rec *recorder) (*stack, setupTimes, error) {
	s := &stack{}
	var t timer
	var st setupTimes
	fail := func(err error) (*stack, setupTimes, error) {
		s.close()
		return nil, st, err
	}
	err := t.do(rec, "platform", func() error {
		var err error
		if s.cluster, err = stream.NewCluster(stream.ClusterConfig{Name: "main", Nodes: 3}); err != nil {
			return err
		}
		s.store = objstore.NewMemStore()
		if s.p, err = core.NewPlatform(core.Config{Clusters: []*stream.Cluster{s.cluster}, Storage: s.store, OLAPServers: 2}); err != nil {
			return err
		}
		if _, err = s.p.CreateStream(useCase, rawSchema(), stream.TopicConfig{Partitions: 4}); err != nil {
			return err
		}
		if _, err = s.p.CreateStream(useCase, ordersSchema(), stream.TopicConfig{Partitions: 4}); err != nil {
			return err
		}
		_, err = s.p.CreateStream(useCase, restaurantsSchema(), stream.TopicConfig{Partitions: 1})
		return err
	})
	if err != nil {
		return fail(err)
	}
	s.producer = s.p.Producer(useCase, "orders-service")
	dimProducer := s.p.Producer(useCase, "restaurant-service")
	err = t.do(rec, "restaurants", func() error {
		if err := s.p.EnableArchival(useCase, "restaurants"); err != nil {
			return err
		}
		if err := dimProducer.ProduceBatch("restaurants", messages(ds.dimPayloads, 0, len(ds.dimPayloads))); err != nil {
			return err
		}
		if err := waitFor(30*time.Second, func() (bool, error) {
			st, err := s.p.Jobs.Status("archiver-restaurants")
			return st.Metrics.EventsOut >= int64(len(ds.dimPayloads)), err
		}); err != nil {
			return err
		}
		n, err := s.p.Compact("restaurants")
		if err == nil && n != len(ds.dimPayloads) {
			err = fmt.Errorf("compacted %d restaurants, want %d", n, len(ds.dimPayloads))
		}
		return err
	})
	if err != nil {
		return fail(err)
	}
	msgs := messages(ds.staticPayloads, 0, len(ds.staticPayloads))
	err = t.do(rec, "backlog", func() error {
		for lo := 0; lo < len(msgs); lo += 1000 {
			if err := s.producer.ProduceBatch("orders_raw", msgs[lo:min(lo+1000, len(msgs))]); err != nil {
				return err
			}
		}
		return nil
	})
	msgs = nil
	if err != nil {
		return fail(err)
	}

	backlog := int64(len(ds.staticPayloads))
	runtime.GC() // every round's catch-up starts from the same collector state
	err = t.do(rec, "catchup", func() error {
		start := time.Now()
		var err error
		s.d, err = s.p.CreateOLAPTable(useCase, olap.TableConfig{
			Name:        "orders",
			SegmentRows: segmentRows,
			Indexes:     olap.IndexConfig{InvertedColumns: []string{"city", "status"}},
		}, "orders", olap.BackupP2P)
		if err != nil {
			return err
		}
		codec, err := s.p.Codec("orders")
		if err != nil {
			return err
		}
		if err := s.p.DeployStreamingSQL(useCase, enrichJob, enrichSQL, flow.NewTopicSink(s.p.Streams, "orders", codec)); err != nil {
			return err
		}
		if err := s.p.EnableArchival(useCase, "orders_raw"); err != nil {
			return err
		}
		s.broker = olap.NewBroker(s.d)
		count := &olap.QueryRequest{Query: &olap.Query{Table: "orders", Aggs: []olap.AggSpec{{Kind: olap.AggCount}}}}
		return waitFor(120*time.Second, func() (bool, error) {
			now := time.Since(start)
			if st.enrichCatchup == 0 {
				js, err := s.p.Jobs.Status(enrichJob)
				if err != nil {
					return false, err
				}
				if js.Metrics.EventsOut >= backlog {
					st.enrichCatchup = now
				}
			}
			if st.archiveCatch == 0 {
				js, err := s.p.Jobs.Status(archiveJob)
				if err != nil {
					return false, err
				}
				if js.Metrics.EventsOut >= backlog {
					st.archiveCatch = now
				}
			}
			if st.catchup == 0 {
				if ingested, _, _ := s.d.Stats(); ingested >= backlog {
					n, err := countRows(s.broker, count)
					if err != nil {
						return false, err
					}
					if n == backlog {
						st.catchup = time.Since(start)
					}
				}
			}
			return st.catchup > 0 && st.enrichCatchup > 0 && st.archiveCatch > 0, nil
		})
	})
	if err != nil {
		return fail(err)
	}
	err = t.do(rec, "seal", func() error {
		for p := 0; p < 4; p++ {
			if err := s.d.Seal(p); err != nil {
				return err
			}
		}
		s.d.WaitUploads()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	st.total = t.total
	return s, st, nil
}

// messages wraps pre-encoded payloads[lo:hi] as stream messages.
func messages(payloads [][]byte, lo, hi int) []stream.Message {
	out := make([]stream.Message, hi-lo)
	for i := range out {
		out[i].Value = payloads[lo+i]
	}
	return out
}

// waitFor polls cond every 2ms until it holds, fails, or timeout passes.
func waitFor(timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// countRows runs a COUNT(*) request and returns the count.
func countRows(b *olap.Broker, req *olap.QueryRequest) (int64, error) {
	resp, err := b.Execute(context.Background(), req)
	if err != nil {
		return 0, err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) < 1 {
		return 0, fmt.Errorf("count: unexpected answer %v", resp.Rows)
	}
	n, ok := record.ToFloat64(resp.Rows[0][0])
	if !ok {
		return 0, fmt.Errorf("count: non-numeric answer %v", resp.Rows[0][0])
	}
	return int64(n), nil
}

// setupRounds builds the stack rounds times, tearing down all but the last,
// and returns the last stack with every round's timings.
func setupRounds(ds *dataset, rec *recorder, rounds int) (*stack, []setupTimes, error) {
	var all []setupTimes
	for {
		s, st, err := buildStack(ds, rec)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, st)
		if len(all) >= rounds {
			return s, all, nil
		}
		s.close()
		runtime.GC()
	}
}
