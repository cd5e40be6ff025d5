// Package rebalance plans and applies the minimum set of sealed-segment
// moves that restores replica placement after a cluster membership change
// (server join, decommission, or permanent loss). The planner runs the same
// sticky-assignment algebra the stream replicator uses (internal/sticky,
// uReplicator §4.1.4) over segment replica slots: on a scale-out from N to
// N+1 servers roughly 1/(N+1) of the replica slots move, where a naive
// re-hash relocates almost all of them.
//
// The package deliberately knows nothing about the olap Deployment: it plans
// over a plain ClusterState and executes through a Mover, so the planner is
// testable in isolation and the Deployment keeps all locking discipline on
// its side of the interface.
package rebalance

import (
	"sort"
	"strconv"

	"repro/internal/sticky"
)

// ServerState describes one server as a rebalance source/target.
type ServerState struct {
	// Index is the server's stable deployment index.
	Index int
	// Active servers accept new replica placements (live and not
	// decommissioned). Slots currently on an inactive server are orphaned
	// and re-homed by the plan.
	Active bool
}

// SegmentState describes one routable sealed segment to the planner.
type SegmentState struct {
	Name string
	// Replicas are the current replica server indexes; slot i is
	// Replicas[i].
	Replicas []int
	// Resident counts replicas currently holding the segment's data in
	// memory. 0 means fully offloaded: every move of this segment is
	// metadata-only (the deep store holds the bytes).
	Resident int
	// Pin anchors replica slot 0 to one server index (-1 for none): the
	// upsert partition-owner anchor of §4.3.1. A pin to an inactive server
	// holds the slot in place rather than re-homing it — only an explicit
	// owner reassignment relocates slot 0.
	Pin int
}

// ClusterState is the placement snapshot a plan is computed over.
type ClusterState struct {
	Servers  []ServerState
	Segments []SegmentState
}

// Move relocates one replica slot of one segment.
type Move struct {
	Segment string
	// Slot is the replica slot index being re-homed.
	Slot int
	// From and To are server indexes.
	From, To int
	// MetadataOnly predicts a zero-byte move: the segment is fully
	// offloaded, so the target installs routing metadata and the deep store
	// keeps serving the bytes. The executor reports what actually happened.
	MetadataOnly bool
}

// Plan is an ordered set of moves plus the accounting the E23 claims gate.
type Plan struct {
	Moves []Move
	// Slots is the total number of replica slots considered — the
	// denominator of the moved fraction.
	Slots int
}

// MovedFraction is len(Moves)/Slots (0 for an empty cluster).
func (p Plan) MovedFraction() float64 {
	if p.Slots == 0 {
		return 0
	}
	return float64(len(p.Moves)) / float64(p.Slots)
}

// slotKey identifies one replica slot as a sticky item.
type slotKey struct {
	Seg  string
	Slot int
}

func slotLess(a, b slotKey) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	return a.Slot < b.Slot
}

// PlanSticky computes the minimal move set: every replica slot stays on its
// current server when that server is active, slots on inactive servers (and
// the overload above the balanced share) re-home to the least-loaded active
// servers, and no two slots of one segment ever share a server. Pinned slots
// (upsert owners) move only when the pin itself moved.
func PlanSticky(state ClusterState) Plan {
	var workers []string
	active := make(map[int]bool, len(state.Servers))
	for _, s := range state.Servers {
		if s.Active {
			workers = append(workers, strconv.Itoa(s.Index))
			active[s.Index] = true
		}
	}

	// The sticky core's tie-breaks follow input order, so fix it: callers
	// build Segments from map iteration.
	segs := append([]SegmentState(nil), state.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Name < segs[j].Name })

	current := make(map[string][]slotKey)
	var items []slotKey
	prev := make(map[slotKey]int)
	segOf := make(map[string]SegmentState, len(segs))
	slots := 0
	for _, seg := range segs {
		segOf[seg.Name] = seg
		pinHeld := seg.Pin >= 0 && !active[seg.Pin] // anchor to a lost owner: hold slot 0 in place
		for i, r := range seg.Replicas {
			slots++
			k := slotKey{Seg: seg.Name, Slot: i}
			prev[k] = r
			if i == 0 && pinHeld {
				continue // excluded from the plan entirely: it stays put
			}
			if seg.Pin >= 0 && active[seg.Pin] && i != 0 && r == seg.Pin {
				// The pinned slot 0 is about to claim this server; orphan
				// this slot so the conflict rule re-homes it instead of
				// doubling up.
				items = append(items, k)
				continue
			}
			current[strconv.Itoa(r)] = append(current[strconv.Itoa(r)], k)
			items = append(items, k)
		}
	}

	next, _ := sticky.Rebalance(current, workers, items, sticky.Options[slotKey]{
		Less: slotLess,
		Conflict: func(item slotKey, assigned []slotKey) bool {
			for _, a := range assigned {
				if a.Seg == item.Seg {
					return true
				}
			}
			return false
		},
		Pin: func(item slotKey) string {
			if item.Slot != 0 {
				return ""
			}
			if seg, ok := segOf[item.Seg]; ok && seg.Pin >= 0 {
				return strconv.Itoa(seg.Pin)
			}
			return ""
		},
	})

	return diffPlan(prev, next, segOf, slots)
}

// PlanNaive is the re-hash baseline the sticky claim is measured against:
// segment i (sorted by name) places its replica slot j on active server
// (i+j) mod N with no regard for current placement — replica distinctness
// holds, stickiness does not.
func PlanNaive(state ClusterState) Plan {
	var act []int
	for _, s := range state.Servers {
		if s.Active {
			act = append(act, s.Index)
		}
	}
	sort.Ints(act)

	segs := append([]SegmentState(nil), state.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Name < segs[j].Name })

	prev := make(map[slotKey]int)
	next := make(map[string][]slotKey)
	segOf := make(map[string]SegmentState, len(segs))
	slots := 0
	for i, seg := range segs {
		segOf[seg.Name] = seg
		for j := range seg.Replicas {
			slots++
			k := slotKey{Seg: seg.Name, Slot: j}
			prev[k] = seg.Replicas[j]
			if len(act) == 0 {
				continue
			}
			w := strconv.Itoa(act[(i+j)%len(act)])
			next[w] = append(next[w], k)
		}
	}
	return diffPlan(prev, next, segOf, slots)
}

// diffPlan turns an assignment into the moves that differ from the previous
// ownership, ordered by segment then slot for deterministic execution.
func diffPlan(prev map[slotKey]int, next map[string][]slotKey, segOf map[string]SegmentState, slots int) Plan {
	var moves []Move
	for w, ks := range next {
		to, err := strconv.Atoi(w)
		if err != nil {
			continue
		}
		for _, k := range ks {
			from, had := prev[k]
			if !had || from == to {
				continue
			}
			moves = append(moves, Move{
				Segment:      k.Seg,
				Slot:         k.Slot,
				From:         from,
				To:           to,
				MetadataOnly: segOf[k.Seg].Resident == 0,
			})
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Segment != moves[j].Segment {
			return moves[i].Segment < moves[j].Segment
		}
		return moves[i].Slot < moves[j].Slot
	})
	return Plan{Moves: moves, Slots: slots}
}
