package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSingleFlightSharesResult(t *testing.T) {
	var g flightGroup
	calls := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]CachedPlan, 10)
	shared := make([]bool, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.do(context.Background(), "k", func(context.Context) (CachedPlan, error) {
				calls++ // safe: only one executor may run at a time
				<-gate
				return bp("result"), nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i], shared[i] = v, sh
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls == 0 {
		t.Fatal("fn never ran")
	}
	nonShared := 0
	for i := range results {
		if string(results[i].Bin) != "result" {
			t.Errorf("caller %d got %q", i, results[i].Bin)
		}
		if !shared[i] {
			nonShared++
		}
	}
	if nonShared != calls {
		t.Errorf("%d executors but %d non-shared results", calls, nonShared)
	}
}

// The flight context must survive one participant's disconnect while any
// other participant is still interested, and die when the last one leaves.
func TestSingleFlightRefCountedCancellation(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	var flightCtx context.Context
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())

	ownerDone := make(chan error, 1)
	go func() {
		_, err, _ := g.do(ownerCtx, "k", func(fctx context.Context) (CachedPlan, error) {
			flightCtx = fctx
			close(started)
			select {
			case <-release:
				return bp("plan"), nil
			case <-fctx.Done():
				return CachedPlan{}, fctx.Err()
			}
		})
		ownerDone <- err
	}()
	<-started

	waiterDone := make(chan struct {
		val CachedPlan
		err error
	}, 1)
	go func() {
		v, err, _ := g.do(waiterCtx, "k", func(context.Context) (CachedPlan, error) {
			t.Error("waiter executed fn; expected to join the flight")
			return CachedPlan{}, nil
		})
		waiterDone <- struct {
			val CachedPlan
			err error
		}{v, err}
	}()
	// Give the waiter a moment to attach, then drop the owner's connection:
	// the flight must keep running for the waiter.
	time.Sleep(100 * time.Millisecond)
	cancelOwner()
	select {
	case <-flightCtx.Done():
		t.Fatal("owner disconnect cancelled the flight despite a live waiter")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	w := <-waiterDone
	if w.err != nil || string(w.val.Bin) != "plan" {
		t.Fatalf("waiter got (%q, %v), want the owner's plan", w.val.Bin, w.err)
	}
	<-ownerDone

	// Second flight: when every participant leaves, the flight context dies.
	started2 := make(chan struct{})
	fellDown := make(chan error, 1)
	lonerCtx, cancelLoner := context.WithCancel(context.Background())
	go func() {
		_, err, _ := g.do(lonerCtx, "k2", func(fctx context.Context) (CachedPlan, error) {
			close(started2)
			<-fctx.Done()
			return CachedPlan{}, fctx.Err()
		})
		fellDown <- err
	}()
	<-started2
	cancelLoner()
	select {
	case err := <-fellDown:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("lone-client abort returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never died after the last client left")
	}
	cancelWaiter()
}
