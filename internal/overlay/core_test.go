package overlay_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// toy is the smallest overlay a Core serves: each slot references one
// other slot (its successor) and its handle is its slot number.
type toy struct {
	overlay.Core[uint32]
	ref      []uint32
	released []uint32
}

var (
	errExists   = errors.New("toy: exists")
	errNotFound = errors.New("toy: not found")
)

func newToy(tr simnet.Transport) *toy {
	n := &toy{}
	n.Init(tr, overlay.Spec[uint32]{
		Name:        "toy",
		ErrExists:   errExists,
		ErrNotFound: errNotFound,
		Handle:      func(s uint32) uint32 { return s },
		Grow:        func(capacity int) { n.ref = overlay.GrowCopy(n.ref, capacity) },
		Reset:       func(s uint32) { n.ref[s] = s },
		Mark:        func(s uint32, marks overlay.Bits) { marks.Set(n.ref[s]) },
		Release:     func(s uint32) { n.released = append(n.released, s) },
		// One RPC: a node answers with its successor's id.
		Serve: func(s uint32, _ simnet.NodeID, _ simnet.Message) (simnet.Message, error) {
			return n.IDOf(n.ref[s]), nil
		},
		Router: overlay.Router{
			Resolve: func(_, x ring.Point) (ring.Point, error) {
				members := n.Members()
				i, _ := slices.BinarySearch(members, x)
				return members[i%len(members)], nil
			},
			Successor: func(from, of ring.Point) (ring.Point, error) {
				resp, err := n.Call(from, of, "next")
				if err != nil {
					return 0, err
				}
				return resp.(ring.Point), nil
			},
			Neighbors: func(id ring.Point) ([]ring.Point, error) {
				s, ok := n.LiveSlot(id)
				if !ok {
					return nil, errNotFound
				}
				return []ring.Point{n.IDOf(n.ref[s])}, nil
			},
		},
	})
	return n
}

// ringed installs pts statically and points each slot at its ring
// successor.
func ringed(t *testing.T, tr simnet.Transport, pts []ring.Point) *toy {
	t.Helper()
	n := newToy(tr)
	if _, err := n.InstallStatic(pts, nil); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		n.ref[i] = uint32((i + 1) % len(pts))
	}
	return n
}

// TestScavengeRecyclesLIFO pins the recycling contract the overlays'
// determinism rests on: a crashed slot is freed only once no live
// slot's routing references it, its side state is released, and joins
// reuse freed slots last-freed first before the arena grows.
func TestScavengeRecyclesLIFO(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := newToy(tr)
	pts := []ring.Point{100, 200, 300, 400, 500, 600, 700, 800}
	owned, err := n.InstallStatic(pts, nil)
	if err != nil || len(owned) != 8 {
		t.Fatalf("InstallStatic = %v, %v", owned, err)
	}
	for i := range pts {
		n.ref[i] = uint32((i + 1) % len(pts))
	}
	for _, i := range []int{2, 5} {
		if err := n.Crash(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if freed := n.Scavenge(); freed != 0 {
		t.Fatalf("scavenge freed %d slots still referenced by live successors", freed)
	}
	n.ref[1], n.ref[4] = 3, 6 // the predecessors route around the crashes
	if freed := n.Scavenge(); freed != 2 || !slices.Equal(n.released, []uint32{2, 5}) {
		t.Fatalf("scavenge freed %d, released %v; want 2 and [2 5]", freed, n.released)
	}
	want := overlay.StorageStats{Slots: 8, Live: 6, Free: 2}
	if got := n.StorageStats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	for _, c := range []struct {
		id   ring.Point
		slot uint32
	}{{1, 5}, {2, 2}, {3, 8}} {
		h, err := n.AddNode(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if *h != c.slot || n.ID(c.slot) != c.id || n.ref[c.slot] != c.slot {
			t.Errorf("AddNode(%v) got slot %d (ref %d), want fresh slot %d", c.id, *h, n.ref[*h], c.slot)
		}
	}
	if _, err := n.AddNode(1); !errors.Is(err, errExists) {
		t.Errorf("duplicate AddNode: err = %v, want errExists", err)
	}
}

// TestMembershipCopyOnWrite: joins and crashes install fresh sorted
// snapshots and bump the epoch, while a snapshot already handed out
// stays as it was.
func TestMembershipCopyOnWrite(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	held := n.Members()
	before := slices.Clone(held)
	e0 := n.Epoch()
	if _, err := n.AddNode(250); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(held, before) {
		t.Errorf("held snapshot changed to %v, want %v", held, before)
	}
	if got, want := n.Members(), []ring.Point{200, 250, 300, 400}; !slices.Equal(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
	if got := n.Epoch(); got != e0+2 {
		t.Errorf("epoch = %d, want %d", got, e0+2)
	}
	if got := n.NumAlive(); got != 4 {
		t.Errorf("NumAlive = %d, want 4", got)
	}
	if _, err := n.Node(100); !errors.Is(err, errNotFound) {
		t.Errorf("Node(crashed): err = %v, want errNotFound", err)
	}
	if err := n.Crash(100); !errors.Is(err, errNotFound) {
		t.Errorf("second Crash: err = %v, want errNotFound", err)
	}
	if got := n.Epoch(); got != e0+2 {
		t.Errorf("a failed crash moved the epoch to %d", got)
	}
}

// TestNodeHandlesAllocateNothing: Node returns the preconstructed
// handle of the id's slot without allocating.
func TestNodeHandlesAllocateNothing(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	pts := []ring.Point{100, 200, 300, 400}
	n := ringed(t, tr, pts)
	for i, id := range pts {
		h, err := n.Node(id)
		if err != nil || *h != uint32(i) {
			t.Fatalf("Node(%v) = %v, %v; want slot %d", id, h, err, i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = n.Node(300) }); allocs != 0 {
		t.Errorf("Node allocates %.1f times per call", allocs)
	}
}

// TestCrashParksSlotUntilRejoin: a crashed node's slot stays resolvable
// (frozen, not live) and a rejoin under the same id takes that slot
// back at the routing baseline.
func TestCrashParksSlotUntilRejoin(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	if err := n.Crash(200); err != nil {
		t.Fatal(err)
	}
	if s, ok := n.SlotOf(200); !ok || s != 1 {
		t.Errorf("SlotOf(crashed) = %d, %v; want 1, true", s, ok)
	}
	if _, ok := n.LiveSlot(200); ok {
		t.Error("crashed node still live")
	}
	if got := n.StorageStats(); got != (overlay.StorageStats{Slots: 4, Live: 3, Reclaimable: 1}) {
		t.Errorf("stats after crash = %+v", got)
	}
	h, err := n.AddNode(200)
	if err != nil {
		t.Fatal(err)
	}
	if *h != 1 || n.ref[1] != 1 {
		t.Errorf("rejoin took slot %d with ref %d, want slot 1 reset to 1", *h, n.ref[*h])
	}
	if got := n.StorageStats(); got != (overlay.StorageStats{Slots: 4, Live: 4}) {
		t.Errorf("stats after rejoin = %+v", got)
	}
}

// TestInternExternalContact: an id the network has never seen gets an
// external slot that is resolvable but not live, and is recycled once
// no live routing state references it.
func TestInternExternalContact(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	s := n.Intern(999)
	if s != 4 || n.Intern(999) != s || n.Intern(300) != 2 {
		t.Fatalf("Intern gave slot %d for a new id; want 4, stable, members untouched", s)
	}
	if _, ok := n.LiveSlot(999); ok {
		t.Error("external contact is live")
	}
	if n.NumAlive() != 4 || n.StorageStats().Reclaimable != 1 {
		t.Errorf("NumAlive = %d, stats = %+v", n.NumAlive(), n.StorageStats())
	}
	n.ref[0] = s // a live node routes through the contact
	if freed := n.Scavenge(); freed != 0 {
		t.Fatalf("scavenge freed %d referenced slots", freed)
	}
	n.ref[0] = 1
	if freed := n.Scavenge(); freed != 1 {
		t.Fatalf("scavenge freed %d, want the contact's slot", freed)
	}
	if _, ok := n.SlotOf(999); ok {
		t.Error("scavenged contact still resolves")
	}
}

// TestInstallStaticPartition: a partitioned static build hosts only the
// owned ids; the rest are members served elsewhere, resolvable but
// neither live nor crashable here, and never scavenged.
func TestInstallStaticPartition(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := newToy(tr)
	pts := []ring.Point{100, 200, 300, 400, 500, 600}
	owned, err := n.InstallStatic(pts, func(id ring.Point) bool { return id%200 == 0 })
	if err != nil || !slices.Equal(owned, []int{1, 3, 5}) {
		t.Fatalf("InstallStatic = %v, %v; want [1 3 5]", owned, err)
	}
	for i, id := range pts {
		s, ok := n.SlotOf(id)
		_, live := n.LiveSlot(id)
		if !ok || s != uint32(i) || live != (i%2 == 1) {
			t.Errorf("%v: slot %d (%v), live %v", id, s, ok, live)
		}
	}
	if err := n.Crash(100); !errors.Is(err, errNotFound) {
		t.Errorf("Crash(remote member): err = %v, want errNotFound", err)
	}
	if n.NumAlive() != len(pts) {
		t.Errorf("NumAlive = %d, want the whole membership %d", n.NumAlive(), len(pts))
	}
	if freed := n.Scavenge(); freed != 0 {
		t.Errorf("scavenge freed %d member slots", freed)
	}
	if got := n.StorageStats(); got != (overlay.StorageStats{Slots: 6, Live: 3}) {
		t.Errorf("stats = %+v", got)
	}
}

// TestArenaGrowthKeepsSlots: joins into an empty core grow the arena
// past several doublings; every slot keeps its id, routing state and
// handle across the moves.
func TestArenaGrowthKeepsSlots(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := newToy(tr)
	const joins = 40
	for i := 0; i < joins; i++ {
		h, err := n.AddNode(ring.Point(1000 - i))
		if err != nil {
			t.Fatal(err)
		}
		if *h != uint32(i) {
			t.Fatalf("join %d took slot %d", i, *h)
		}
		n.ref[i] = uint32(joins - 1 - i)
	}
	for i := 0; i < joins; i++ {
		s, ok := n.LiveSlot(ring.Point(1000 - i))
		if !ok || s != uint32(i) || n.ID(s) != ring.Point(1000-i) || n.ref[s] != uint32(joins-1-i) {
			t.Errorf("node %v: slot %d (%v), ref %d after growth", 1000-i, s, ok, n.ref[s])
		}
	}
	if got := n.StorageStats(); got != (overlay.StorageStats{Slots: joins, Live: joins}) {
		t.Errorf("stats = %+v", got)
	}
}

// TestDispatchBothRegistrations: RPCs reach the addressed node's slot
// whether the transport takes one bulk registration or only per-node
// handlers, and a crashed node stops answering either way.
func TestDispatchBothRegistrations(t *testing.T) {
	for name, mk := range map[string]func() simnet.Transport{
		"multi": func() simnet.Transport { return simnet.NewDirect() },
		// Embedding the interface hides Direct's RegisterMulti.
		"per-node": func() simnet.Transport { return struct{ simnet.Transport }{simnet.NewDirect()} },
	} {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			n := ringed(t, tr, []ring.Point{100, 200, 300})
			if resp, err := n.Call(1, 200, "next"); err != nil || resp != ring.Point(300) {
				t.Errorf("call 200 = %v, %v; want 300", resp, err)
			}
			if err := n.Crash(200); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Call(1, 200, "next"); !errors.Is(err, simnet.ErrUnknownNode) {
				t.Errorf("call to crashed node: err = %v, want ErrUnknownNode", err)
			}
			if _, err := n.AddNode(200); err != nil {
				t.Fatal(err)
			}
			if resp, err := n.Call(1, 200, "next"); err != nil || resp != ring.Point(200) {
				t.Errorf("call rejoined 200 = %v, %v; want its baseline self-reference", resp, err)
			}
		})
	}
}
