package remote

import "testing"

// TestStaleLeaseGuard: a daemon that ignores the claim's held list
// re-delivers every held lease on every claim, and a claim response
// composed while a report was in flight can re-deliver a lease the
// daemon has since retired. The worker must
// refuse both the duplicate and the already-reported epoch — but still
// accept a genuine reassignment, which arrives with a higher epoch.
func TestStaleLeaseGuard(t *testing.T) {
	w := &workerRT{
		held:     make(map[int]struct{}),
		reported: make(map[string]int),
		slot:     make(chan struct{}, 1),
	}
	l := Lease{Job: "j0001", Epoch: 3, Unit: WireUnit{Key: "ab"}}
	if !w.addHeld(l) {
		t.Fatal("fresh lease refused")
	}
	if w.addHeld(l) {
		t.Fatal("already-held lease accepted twice")
	}
	w.dropHeld([]UnitReport{{Job: "j0001", Key: "ab", Epoch: 3}})
	if n := w.heldCount(); n != 0 {
		t.Fatalf("heldCount = %d after dropHeld, want 0", n)
	}
	if w.addHeld(l) {
		t.Fatal("stale re-delivery of a reported epoch accepted")
	}
	l.Epoch = 4
	if !w.addHeld(l) {
		t.Fatal("re-leased unit at a higher epoch refused")
	}
}

// heldCount is the number of leases in the worker's hands.
func (w *workerRT) heldCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.held)
}
