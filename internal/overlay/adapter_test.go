package overlay_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// TestAdapterLookups: the adapter answers H, Next and NeighborsOf
// through the overlay's Router, with owner indices ranked against the
// membership snapshot.
func TestAdapterLookups(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	if _, err := n.AsDHT(150); !errors.Is(err, errNotFound) {
		t.Errorf("AsDHT(non-member): err = %v, want errNotFound", err)
	}
	d, err := n.AsDHT(300)
	if err != nil {
		t.Fatal(err)
	}
	if self := d.Self(); self != (dht.Peer{Point: 300, Owner: 2}) {
		t.Errorf("Self = %+v", self)
	}
	if p, err := d.H(150); err != nil || p != (dht.Peer{Point: 200, Owner: 1}) {
		t.Errorf("H(150) = %+v, %v", p, err)
	}
	if p, err := d.H(450); err != nil || p != (dht.Peer{Point: 100, Owner: 0}) {
		t.Errorf("H(450) must wrap to the first peer: %+v, %v", p, err)
	}
	if p, err := d.Next(dht.Peer{Point: 400, Owner: 3}); err != nil || p != (dht.Peer{Point: 100, Owner: 0}) {
		t.Errorf("Next(400) = %+v, %v", p, err)
	}
	nbrs, err := d.NeighborsOf(dht.Peer{Point: 200, Owner: 1})
	if err != nil || !slices.Equal(nbrs, []dht.Peer{{Point: 300, Owner: 2}}) {
		t.Errorf("NeighborsOf(200) = %v, %v", nbrs, err)
	}
	if d.Size() != 4 || d.Owners() != 4 || d.Meter() != tr.Meter() {
		t.Errorf("Size %d, Owners %d, meter shared %v", d.Size(), d.Owners(), d.Meter() == tr.Meter())
	}
}

// TestAdapterNextErrorClasses: Next on a peer the transport does not
// know fails as both dht.ErrUnknownPeer and simnet.ErrUnknownNode;
// other transport failures keep their own class.
func TestAdapterNextErrorClasses(t *testing.T) {
	faults := simnet.NewFaults(nil)
	tr := simnet.NewDirect(simnet.WithFaults(faults))
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	d, err := n.AsDHT(100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Next(dht.Peer{Point: 250, Owner: -1})
	if !errors.Is(err, dht.ErrUnknownPeer) || simnet.ErrorClass(err) != "unknown" {
		t.Errorf("Next(unknown) = %v (class %s), want ErrUnknownPeer of class unknown", err, simnet.ErrorClass(err))
	}
	faults.SetDead(simnet.NodeID(300), true)
	_, err = d.Next(dht.Peer{Point: 300, Owner: 2})
	if errors.Is(err, dht.ErrUnknownPeer) || simnet.ErrorClass(err) != "dead" {
		t.Errorf("Next(dead member) = %v (class %s), want class dead only", err, simnet.ErrorClass(err))
	}
}

// TestAdapterRefreshOwners: owner indices follow the snapshot taken at
// the last refresh, so a peer that joined since ranks as -1 until the
// view refreshes.
func TestAdapterRefreshOwners(t *testing.T) {
	tr := simnet.NewDirect()
	defer tr.Close()
	n := ringed(t, tr, []ring.Point{100, 200, 300, 400})
	d, err := n.AsDHT(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode(150); err != nil {
		t.Fatal(err)
	}
	n.ref[0] = 4 // 100 now points at the joiner's slot
	if p, err := d.Next(d.Self()); err != nil || p != (dht.Peer{Point: 150, Owner: -1}) {
		t.Errorf("Next before refresh = %+v, %v; want owner -1", p, err)
	}
	if d.Size() != 4 {
		t.Errorf("Size before refresh = %d, want the old 4", d.Size())
	}
	d.RefreshOwners()
	if p, err := d.Next(d.Self()); err != nil || p != (dht.Peer{Point: 150, Owner: 1}) {
		t.Errorf("Next after refresh = %+v, %v; want owner 1", p, err)
	}
	if d.Size() != 5 {
		t.Errorf("Size after refresh = %d, want 5", d.Size())
	}
}
