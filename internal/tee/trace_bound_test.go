package tee

import "testing"

// allEvents is the full retained trace, oldest first: the simulator's view,
// which no product path reads.
func allEvents(tr *Trace) []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.orderedLocked()
}

// countEvents is the number of events of kind k in the full trace.
func countEvents(tr *Trace, k EventKind) int {
	n := 0
	for _, e := range allEvents(tr) {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestTraceBoundRetainsMostRecent(t *testing.T) {
	tr := &Trace{}
	tr.Bound(4)
	for i := 0; i < 10; i++ {
		tr.Record(Script{{Kind: EvSMC, Bytes: int64(i)}})
	}
	all := allEvents(tr)
	if len(all) != 4 {
		t.Fatalf("retained %d events, want 4", len(all))
	}
	for i, e := range all {
		if want := int64(6 + i); e.Bytes != want {
			t.Fatalf("event %d = %d, want %d (oldest-first order)", i, e.Bytes, want)
		}
	}
	if got := countEvents(tr, EvSMC); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

func TestTraceBoundOnPopulatedTrace(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 6; i++ {
		tr.Record(Script{{Kind: EvTransfer, Bytes: int64(i)}})
	}
	tr.Bound(3)
	all := allEvents(tr)
	if len(all) != 3 || all[0].Bytes != 3 || all[2].Bytes != 5 {
		t.Fatalf("bound on populated trace kept %v", all)
	}
	// Records after bounding keep rotating.
	tr.Record(Script{{Kind: EvTransfer, Bytes: 6}})
	all = allEvents(tr)
	if len(all) != 3 || all[0].Bytes != 4 || all[2].Bytes != 6 {
		t.Fatalf("post-bound rotation kept %v", all)
	}
}

func TestTraceBoundedRecordDoesNotAllocate(t *testing.T) {
	tr := &Trace{}
	tr.Bound(8)
	for i := 0; i < 16; i++ {
		tr.Record(Script{{Kind: EvSMC}})
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Record(Script{{Kind: EvSMC}})
	})
	if allocs != 0 {
		t.Fatalf("bounded Record allocates %.1f times per call", allocs)
	}
}
