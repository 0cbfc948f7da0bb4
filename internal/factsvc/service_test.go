package factsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
)

const exprSrc = "%x:i8 = var\n%0:i8 = and 1:i8, %x\n%1:i8 = add %x, %0\ninfer %1"

// stubFacts answers f with one fixed fact under its canonical hash, as
// the comparator's solve reports it.
func stubFacts(f *ir.Function) (uint64, []Fact, error) {
	return canon.Canonicalize(f).Hash, []Fact{{Analysis: "non-zero", Fact: "true"}}, nil
}

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// blockingService returns a one-worker service whose solves wait on the
// returned release channel.
func blockingService(t *testing.T, reg *metrics.Registry) (*Service, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	svc, err := New(Config{
		Workers: 1,
		Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			<-release
			return stubFacts(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, release
}

// fillSlots takes all 64 admission slots of a one-worker service behind
// its blocked solve and returns a func that waits for those queries to
// finish once the solve is released.
func fillSlots(t *testing.T, svc *Service) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < slotsPerWorker; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("%%x:i8 = var\n%%0:i8 = add %d:i8, %%x\ninfer %%0", i)
			if _, err := svc.Query(context.Background(), ir.MustParse(src)); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(svc.admitted) < slotsPerWorker; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slots taken", len(svc.admitted), slotsPerWorker)
		}
		time.Sleep(time.Millisecond)
	}
	return wg.Wait
}

// With one worker, 64 admitted queries fill every slot behind a blocked
// solve; the 65th fails fast with ErrSaturated instead of blocking.
func TestServiceSaturationFailsFast(t *testing.T) {
	reg := metrics.NewRegistry()
	svc, release := blockingService(t, reg)
	wait := fillSlots(t, svc)

	done := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), ir.MustParse(exprSrc))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("65th Query = %v, want ErrSaturated", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("65th Query blocked instead of failing fast")
	}
	close(release)
	wait()
	if got := reg.Counter("factsvc_rejected").Value(); got != 1 {
		t.Fatalf("factsvc_rejected = %d, want 1", got)
	}
	if got := reg.Counter("factsvc_solved").Value(); got != slotsPerWorker {
		t.Fatalf("factsvc_solved = %d, want %d", got, slotsPerWorker)
	}
}

// Solve errors come back as the query's error; a panic becomes an error
// instead of taking the process down, and the service keeps answering.
func TestServiceErrorAndPanicPropagation(t *testing.T) {
	boom := errors.New("solver exploded")
	mode := "error"
	svc, err := New(Config{
		Workers: 1,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			if mode == "panic" {
				panic("kaboom")
			}
			return 0, nil, boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, mustParse(t, exprSrc)); !errors.Is(err, boom) {
		t.Fatalf("Query = %v, want %v", err, boom)
	}
	mode = "panic"
	if _, err := svc.Query(ctx, mustParse(t, exprSrc)); err == nil {
		t.Fatal("panicking solve returned nil error")
	}
	mode = "error"
	if _, err := svc.Query(ctx, mustParse(t, exprSrc)); !errors.Is(err, boom) {
		t.Fatalf("post-panic Query = %v, want %v", err, boom)
	}
	// Every slot came back: nothing is admitted or solving.
	if len(svc.admitted) != 0 || len(svc.solving) != 0 {
		t.Fatalf("%d admitted, %d solving after the queries returned", len(svc.admitted), len(svc.solving))
	}
}

// A query waiting for the solve slot honors its context, and gives its
// admission slot back. (The test keeps the name of the ticket API it
// used to drive.)
func TestTicketWaitContext(t *testing.T) {
	reg := metrics.NewRegistry()
	svc, release := blockingService(t, reg)
	first := make(chan struct{})
	go func() {
		defer close(first)
		svc.Query(context.Background(), ir.MustParse(exprSrc))
	}()
	for deadline := time.Now().Add(10 * time.Second); len(svc.solving) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first query never took the solve slot")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.Query(ctx, mustParse(t, exprSrc)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query = %v, want deadline exceeded", err)
	}
	if got := reg.Gauge("factsvc_queue_depth").Value(); got != 1 {
		t.Fatalf("factsvc_queue_depth = %d after the cancelled wait, want 1", got)
	}
	close(release)
	<-first
	if got := reg.Counter("factsvc_solved").Value(); got != 1 {
		t.Fatalf("factsvc_solved = %d, want 1 (the cancelled query never solved)", got)
	}
}
