package rebalance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cluster builds a ClusterState with n servers (all active unless listed in
// down) and the given segments.
func cluster(n int, down []int, segs ...SegmentState) ClusterState {
	inactive := make(map[int]bool)
	for _, i := range down {
		inactive[i] = true
	}
	st := ClusterState{Segments: segs}
	for i := 0; i < n; i++ {
		st.Servers = append(st.Servers, ServerState{Index: i, Active: !inactive[i]})
	}
	return st
}

func seg(name string, resident int, replicas ...int) SegmentState {
	return SegmentState{Name: name, Replicas: replicas, Resident: resident, Pin: -1}
}

// checkAssignment applies a plan to the state and verifies every slot lands
// on an active server with no segment doubled up on one server.
func checkAssignment(t *testing.T, state ClusterState, plan Plan) {
	t.Helper()
	active := make(map[int]bool)
	for _, s := range state.Servers {
		if s.Active {
			active[s.Index] = true
		}
	}
	final := make(map[string][]int)
	for _, sg := range state.Segments {
		final[sg.Name] = append([]int(nil), sg.Replicas...)
	}
	for _, m := range plan.Moves {
		if final[m.Segment][m.Slot] != m.From {
			t.Fatalf("move %+v: slot currently on %d", m, final[m.Segment][m.Slot])
		}
		final[m.Segment][m.Slot] = m.To
	}
	for _, sg := range state.Segments {
		seen := make(map[int]bool)
		pinHeld := sg.Pin >= 0 && !active[sg.Pin]
		for i, r := range final[sg.Name] {
			if seen[r] {
				t.Fatalf("segment %s: server %d holds two replicas (%v)", sg.Name, r, final[sg.Name])
			}
			seen[r] = true
			if i == 0 && pinHeld {
				continue // held in place on the lost pin target by design
			}
			if !active[r] {
				t.Fatalf("segment %s slot %d left on inactive server %d", sg.Name, i, r)
			}
		}
	}
}

func TestScaleOutMovesMinimalFraction(t *testing.T) {
	// 12 segments, 2 replicas each, balanced on 4 servers. Adding a 5th
	// must move at most the shed overload: 24 slots, target per server
	// ceil(24/5)=5, so at most 24-5*4=4 slots move (a shed slot whose
	// sibling replica already landed on the new server conflicts and stays
	// home) — well under the 1.5/(N+1) acceptance bound.
	var segs []SegmentState
	for i := 0; i < 12; i++ {
		segs = append(segs, seg(fmt.Sprintf("seg-%02d", i), 2, i%4, (i+1)%4))
	}
	state := cluster(5, nil, segs...)
	plan := PlanSticky(state)
	checkAssignment(t, state, plan)
	if plan.Slots != 24 {
		t.Fatalf("slots = %d, want 24", plan.Slots)
	}
	if got := len(plan.Moves); got == 0 || got > 4 {
		t.Fatalf("scale-out moved %d slots, want 1..4", got)
	}
	bound := 1.5 / 5.0
	if f := plan.MovedFraction(); f > bound {
		t.Fatalf("moved fraction %.3f exceeds %.3f", f, bound)
	}
	for _, m := range plan.Moves {
		if m.To != 4 {
			t.Fatalf("scale-out move %+v targets old server, want the new one", m)
		}
	}
}

func TestStableClusterPlansNothing(t *testing.T) {
	var segs []SegmentState
	for i := 0; i < 9; i++ {
		segs = append(segs, seg(fmt.Sprintf("s%d", i), 2, i%3, (i+1)%3))
	}
	plan := PlanSticky(cluster(3, nil, segs...))
	if len(plan.Moves) != 0 {
		t.Fatalf("balanced cluster planned %d moves: %+v", len(plan.Moves), plan.Moves)
	}
}

// TestPlanIndependentOfSegmentOrder: callers build ClusterState.Segments
// from map iteration, so the same cluster in any segment order must yield
// the same plan.
func TestPlanIndependentOfSegmentOrder(t *testing.T) {
	var segs []SegmentState
	for i := 0; i < 24; i++ {
		segs = append(segs, seg(fmt.Sprintf("s%02d", i), 2, i%3, (i+1)%3))
	}
	// Scale out from 3 to 5 servers while server 1 leaves: both orphans
	// and overload re-home, so tie-breaks between equal candidates matter.
	want := PlanSticky(cluster(5, []int{1}, segs...))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]SegmentState(nil), segs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := PlanSticky(cluster(5, []int{1}, shuffled...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: plan depends on segment order\ngot  %+v\nwant %+v", trial, got.Moves, want.Moves)
		}
	}
}

func TestDecommissionReHomesOnlyItsSlots(t *testing.T) {
	var segs []SegmentState
	for i := 0; i < 12; i++ {
		segs = append(segs, seg(fmt.Sprintf("s%02d", i), 2, i%4, (i+1)%4))
	}
	state := cluster(4, []int{3}, segs...)
	plan := PlanSticky(state)
	checkAssignment(t, state, plan)
	for _, m := range plan.Moves {
		if m.From != 3 {
			t.Fatalf("move %+v relocates a slot not on the decommissioned server", m)
		}
	}
	// Server 3 held 6 of the 24 slots; all of them must re-home.
	if len(plan.Moves) != 6 {
		t.Fatalf("planned %d moves off the decommissioned server, want 6", len(plan.Moves))
	}
}

func TestPinAnchorsSlotZero(t *testing.T) {
	// Owner reassignment: slot 0 pinned to server 2, currently on 0.
	s := seg("u0", 1, 0, 1)
	s.Pin = 2
	state := cluster(3, nil, s)
	plan := PlanSticky(state)
	checkAssignment(t, state, plan)
	var moved0 *Move
	for i := range plan.Moves {
		if plan.Moves[i].Slot == 0 {
			moved0 = &plan.Moves[i]
		}
	}
	if moved0 == nil || moved0.To != 2 {
		t.Fatalf("pinned slot 0 did not move to the pin target: %+v", plan.Moves)
	}
}

func TestPinEvictsCollidingReplica(t *testing.T) {
	// Slot 0 pinned to server 1, which currently holds slot 1: slot 1 must
	// re-home so the segment's replicas stay distinct.
	s := seg("u0", 2, 0, 1)
	s.Pin = 1
	state := cluster(3, nil, s)
	plan := PlanSticky(state)
	checkAssignment(t, state, plan)
}

func TestPinToInactiveHoldsSlotInPlace(t *testing.T) {
	// The upsert anchor semantics: a pin to a lost server does NOT re-home
	// slot 0 — it stays put until the owner is explicitly reassigned.
	s := seg("u0", 2, 2, 0)
	s.Pin = 2
	state := cluster(3, []int{2}, s)
	plan := PlanSticky(state)
	for _, m := range plan.Moves {
		if m.Segment == "u0" && m.Slot == 0 {
			t.Fatalf("pin-held slot 0 was planned to move: %+v", m)
		}
	}
	checkAssignment(t, state, plan)
}

func TestMetadataOnlyMarking(t *testing.T) {
	cold := seg("cold", 0, 2)
	hot := seg("hot", 1, 2)
	state := cluster(3, []int{2}, cold, hot)
	plan := PlanSticky(state)
	checkAssignment(t, state, plan)
	if len(plan.Moves) != 2 {
		t.Fatalf("want both segments to move off server 2, got %+v", plan.Moves)
	}
	for _, m := range plan.Moves {
		wantMeta := m.Segment == "cold"
		if m.MetadataOnly != wantMeta {
			t.Fatalf("move %+v: MetadataOnly = %v, want %v", m, m.MetadataOnly, wantMeta)
		}
	}
}

func TestNaiveMovesNearlyEverything(t *testing.T) {
	// The claim E23 gates: on N→N+1 sticky moves ~1/(N+1) of slots, naive
	// re-hash moves most of them.
	var segs []SegmentState
	for i := 0; i < 40; i++ {
		segs = append(segs, seg(fmt.Sprintf("s%02d", i), 2, i%4, (i+1)%4))
	}
	state := cluster(5, nil, segs...)
	stickyPlan := PlanSticky(state)
	naivePlan := PlanNaive(state)
	checkAssignment(t, state, stickyPlan)
	if sf, nf := stickyPlan.MovedFraction(), naivePlan.MovedFraction(); sf >= nf/2 {
		t.Fatalf("sticky fraction %.3f not clearly below naive %.3f", sf, nf)
	}
	if stickyPlan.MovedFraction() > 1.5/5.0 {
		t.Fatalf("sticky moved fraction %.3f above bound", stickyPlan.MovedFraction())
	}
}

func TestMovedFractionEmpty(t *testing.T) {
	if f := (Plan{}).MovedFraction(); f != 0 {
		t.Fatalf("empty plan fraction = %v", f)
	}
}

// scriptedMover fails moves by segment name: retryable for segments in
// busy, hard error for segments in broken.
type scriptedMover struct {
	busy, broken map[string]bool
	applied      []Move
}

var errBusyTest = errors.New("busy")

func (m *scriptedMover) Move(_ context.Context, mv Move) (MoveResult, error) {
	switch {
	case m.busy[mv.Segment]:
		return MoveResult{}, fmt.Errorf("claimed: %w", errBusyTest)
	case m.broken[mv.Segment]:
		return MoveResult{}, errors.New("unreachable")
	}
	m.applied = append(m.applied, mv)
	return MoveResult{BytesCopied: 10, MetadataOnly: mv.MetadataOnly}, nil
}

func TestExecuteSkipsRetryableAndContinuesPastHardErrors(t *testing.T) {
	plan := Plan{Moves: []Move{
		{Segment: "a", From: 0, To: 1},
		{Segment: "b", From: 0, To: 1},
		{Segment: "c", From: 0, To: 1, MetadataOnly: true},
	}, Slots: 3}
	mv := &scriptedMover{busy: map[string]bool{"a": true}, broken: map[string]bool{"b": true}}
	rep, err := Execute(context.Background(), mv, plan, func(err error) bool {
		return errors.Is(err, errBusyTest)
	})
	if err == nil {
		t.Fatal("hard error was not returned")
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0].Segment != "a" {
		t.Fatalf("skipped = %+v, want segment a", rep.Skipped)
	}
	if rep.Applied != 1 || rep.MetadataMoves != 1 || rep.BytesCopied != 10 {
		t.Fatalf("report = %+v: segment c should still apply after b's hard error", rep)
	}
}

func TestExecuteStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := Plan{Moves: []Move{{Segment: "a", From: 0, To: 1}}, Slots: 1}
	mv := &scriptedMover{}
	_, err := Execute(ctx, mv, plan, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(mv.applied) != 0 {
		t.Fatal("move ran after cancellation")
	}
}
