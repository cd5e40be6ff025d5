package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced run. Spans of one operation (a
// produce, a probe poll, a query) share op; parent indexes the spans slice
// (-1 for an operation's root). Times are nanoseconds since the run started.
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Kind   string `json:"kind,omitempty"` // query kind of the operation, when it has one
	// Access is a program scan span's "kind" attribute, the access path it
	// took (aggregate-scan, row-scan, ...).
	Access string `json:"access,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory. A nil recorder records
// nothing, which is how untraced operations run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(op int64, parent int32, name string) int32 {
	if r == nil {
		return -1
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int32, rows int64) {
	if r == nil || id < 0 {
		return
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Rows = rows
}

// setKind labels every span of op with a query kind.
func (r *recorder) setKind(op int64, first int32, kind string) {
	if r == nil || first < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := int(first); i < len(r.spans); i++ {
		if r.spans[i].Op == op {
			r.spans[i].Kind = kind
		}
	}
}

// attach copies a program trace tree beneath span parent. The trace's root
// becomes a child of parent and keeps its own name.
func (r *recorder) attach(op int64, parent int32, ts *obs.TraceSummary) {
	if r == nil || parent < 0 || ts == nil {
		return
	}
	base := r.ns(ts.Start)
	r.mu.Lock()
	defer r.mu.Unlock()
	first := int32(len(r.spans))
	for i, s := range ts.Spans {
		p := parent
		if s.Parent >= 0 {
			p = first + int32(s.Parent)
		}
		start := base + s.Offset.Nanoseconds()
		sp := span{
			Op: op, ID: first + int32(i), Parent: p, Name: s.Name,
			Start: start, End: start + s.Duration.Nanoseconds(), Rows: s.Rows,
		}
		if s.Name == "scan" {
			for _, a := range s.Attrs {
				if a.Key == "kind" {
					sp.Access = a.Value
				}
			}
		}
		r.spans = append(r.spans, sp)
	}
}

// write stores the spans as gzipped JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// selfTime returns a span's duration minus the part of its interval covered
// by its children (overlapping children count once).
func selfTime(spans []span, children [][]int32, i int32) int64 {
	return spans[i].dur() - covered(spans, children[i], spans[i].Start, spans[i].End)
}

// covered returns how much of [lo, hi] the union of the given spans covers.
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, c := range ids {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// childIndex lists each span's children.
func childIndex(spans []span) [][]int32 {
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	return children
}
