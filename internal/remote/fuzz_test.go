package remote

import (
	"encoding/json"
	"slices"
	"testing"

	"fpmix/internal/search"
)

// FuzzWireUnit feeds arbitrary lease JSON and arbitrary unit keys
// through the wire form. Two properties: a lease that decodes, and
// whose unit decodes, re-encodes through ToWire to a unit that decodes
// equal; and the hex armor carries any key byte string across JSON
// unchanged, invalid UTF-8 and the empty key included. The committed
// corpus covers a piece lease, the final union, an older daemon's lease
// still carrying the retired scheduling hints, and a bad-hex key.
func FuzzWireUnit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, key []byte) {
		u := search.EvalUnit{Key: string(key), Label: "fuzz", Addrs: []uint64{uint64(len(key))}}
		if got := wireRoundTrip(t, u); !sameUnit(got, u) {
			t.Fatalf("key %x came back as %x", u.Key, got.Key)
		}
		var l Lease
		if err := json.Unmarshal(data, &l); err != nil {
			return
		}
		u, err := l.Unit.Unit()
		if err != nil {
			return // a bad-hex key is rejected, never decoded to another unit
		}
		if got := wireRoundTrip(t, u); !sameUnit(got, u) {
			t.Fatalf("unit %+v re-encoded to %+v", u, got)
		}
	})
}

// wireRoundTrip sends a unit through ToWire, JSON and back.
func wireRoundTrip(t *testing.T, u search.EvalUnit) search.EvalUnit {
	t.Helper()
	b, err := json.Marshal(ToWire(u))
	if err != nil {
		t.Fatal(err)
	}
	var wu WireUnit
	if err := json.Unmarshal(b, &wu); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	got, err := wu.Unit()
	if err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return got
}

// sameUnit compares units field by field; an empty and a nil address
// set are the same set (omitempty drops both from the wire).
func sameUnit(a, b search.EvalUnit) bool {
	return a.Key == b.Key && a.Label == b.Label && a.Kind == b.Kind &&
		a.Final == b.Final && slices.Equal(a.Addrs, b.Addrs)
}
