package remote

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/search"
)

// TestWireUnitBinaryKeyRoundTrip pins the hex armor: unit keys are raw
// address bytes (almost never valid UTF-8), and a plain JSON string
// would silently coerce them to U+FFFD — corrupting the idempotency
// token so no report of the unit could ever be accepted. The wire form
// must round-trip any byte string exactly.
func TestWireUnitBinaryKeyRoundTrip(t *testing.T) {
	raw := string([]byte{0x00, 0x80, 0xFF, 0xC3, 0x28, 0x10, 0xED, 0xA0})
	in := search.EvalUnit{Key: raw, Label: "piece 3", Addrs: []uint64{1 << 40, 7}, Final: true}
	b, err := json.Marshal(Lease{Job: "j1", Epoch: 3, Unit: ToWire(in)})
	if err != nil {
		t.Fatal(err)
	}
	var l Lease
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatal(err)
	}
	got, err := l.Unit.Unit()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != raw {
		t.Fatalf("key corrupted over the wire: %x != %x", got.Key, raw)
	}
	if got.Label != in.Label || got.Final != in.Final || len(got.Addrs) != 2 {
		t.Fatalf("unit fields lost: %+v", got)
	}
}

// TestWireUnitBadHex: a corrupted wire key is a decode error, not a
// silently wrong unit.
func TestWireUnitBadHex(t *testing.T) {
	if _, err := (WireUnit{Key: "zz"}).Unit(); err == nil {
		t.Fatal("bad hex decoded without error")
	}
}

// TestWireUnitIgnoresRetiredHints: testdata/old-daemon-lease.json is a
// lease as an older daemon sent it, still carrying the fork-site and
// weight scheduling hints. It must decode to the same unit as the lease
// this version sends for that unit.
func TestWireUnitIgnoresRetiredHints(t *testing.T) {
	want := search.EvalUnit{Key: "\x00\x10\x00\x00\x00\x00\x00\x00", Label: "piece 1", Kind: config.KindInsn, Addrs: []uint64{4096}}
	cur, err := json.Marshal(Lease{Job: "j1", Epoch: 2, Unit: ToWire(want)})
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile("testdata/old-daemon-lease.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{old, cur} {
		var l Lease
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatal(err)
		}
		got, err := l.Unit.Unit()
		if err != nil {
			t.Fatal(err)
		}
		if l.Job != "j1" || l.Epoch != 2 || !reflect.DeepEqual(got, want) {
			t.Fatalf("lease %s decoded to %s/%d %+v, want j1/2 %+v", body, l.Job, l.Epoch, got, want)
		}
	}
}
