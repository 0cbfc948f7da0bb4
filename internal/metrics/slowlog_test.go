package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSlowLogKeepsSlowest(t *testing.T) {
	l := NewSlowLog(3)
	for i := 1; i <= 10; i++ {
		l.Note(SlowEntry{Hash: fmt.Sprintf("%016x", i), Elapsed: time.Duration(i) * time.Millisecond})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	for i, want := range []time.Duration{10, 9, 8} {
		if got[i].Elapsed != want*time.Millisecond {
			t.Fatalf("entry %d = %v, want %v (slowest first)", i, got[i].Elapsed, want*time.Millisecond)
		}
	}
}

func TestSlowLogAdmissionVerdict(t *testing.T) {
	l := NewSlowLog(2)
	if !l.Note(SlowEntry{Elapsed: time.Millisecond}) {
		t.Fatal("entry into a non-full log must be admitted")
	}
	if !l.Note(SlowEntry{Elapsed: 2 * time.Millisecond}) {
		t.Fatal("second entry must be admitted")
	}
	if l.Note(SlowEntry{Elapsed: time.Microsecond}) {
		t.Fatal("entry below the floor must be rejected")
	}
	if l.Note(SlowEntry{Elapsed: time.Millisecond}) {
		t.Fatal("entry exactly at the floor must be rejected (strictly slower wins)")
	}
	if !l.Note(SlowEntry{Elapsed: 3 * time.Millisecond}) {
		t.Fatal("entry above the floor must displace the fastest")
	}
	got := l.Snapshot()
	if got[0].Elapsed != 3*time.Millisecond || got[1].Elapsed != 2*time.Millisecond {
		t.Fatalf("retained %v", got)
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	if l.Note(SlowEntry{Elapsed: time.Hour}) {
		t.Fatal("nil log admitted an entry")
	}
	if l.Snapshot() != nil {
		t.Fatal("nil log not inert")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Note(SlowEntry{Elapsed: time.Duration(i) * time.Microsecond})
				if i%100 == 0 {
					_ = l.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	got := l.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Elapsed > got[i-1].Elapsed {
			t.Fatalf("not sorted slowest-first: %v", got)
		}
	}
	if got[0].Elapsed != 499*time.Microsecond {
		t.Fatalf("slowest = %v, want 499µs", got[0].Elapsed)
	}
}
