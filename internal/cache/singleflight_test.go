package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	var f Flight
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	vals := make([]any, n)
	shareds := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := f.Do("k", func() (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return "answer", nil
		})
		if err != nil {
			t.Error(err)
		}
		vals[0], shareds[0] = v, shared
	}()
	<-started // the leader holds the key; everyone else must join it
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (any, error) {
				calls.Add(1)
				return "answer", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shareds[i] = v, shared
		}(i)
	}
	// Release the leader only once every follower has joined its call —
	// otherwise a slow-to-schedule follower arrives after the flight
	// lands and (correctly) starts a fresh one.
	for {
		f.mu.Lock()
		joined := 0
		if c := f.calls["k"]; c != nil {
			joined = c.waiters
		}
		f.mu.Unlock()
		if joined == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	sharedCount := 0
	for i := range vals {
		if vals[i] != "answer" {
			t.Fatalf("call %d got %v", i, vals[i])
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("%d of %d calls shared, want all but the leader", sharedCount, n)
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight
	a, sharedA, _ := f.Do("a", func() (any, error) { return 1, nil })
	b, sharedB, _ := f.Do("b", func() (any, error) { return 2, nil })
	if a != 1 || b != 2 || sharedA || sharedB {
		t.Fatalf("distinct keys interfered: a=%v(%v) b=%v(%v)", a, sharedA, b, sharedB)
	}
}

func TestFlightErrorsReachEveryWaiterThenClear(t *testing.T) {
	var f Flight
	boom := errors.New("boom")
	if _, _, err := f.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error %v, want boom", err)
	}
	// The failed call must not poison the key: the next call runs afresh.
	v, shared, err := f.Do("k", func() (any, error) { return "fine", nil })
	if err != nil || shared || v != "fine" {
		t.Fatalf("key stayed poisoned after an error: v=%v shared=%v err=%v", v, shared, err)
	}
}

func TestFlightPanicFreesKey(t *testing.T) {
	var f Flight
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in fn did not reach the caller")
			}
		}()
		f.Do("k", func() (any, error) { panic("boom") })
	}()
	// The panicked call must not wedge the key: the next call runs fn
	// afresh instead of waiting for a flight that will never land.
	got := make(chan any, 1)
	go func() {
		v, _, _ := f.Do("k", func() (any, error) { return "fresh", nil })
		got <- v
	}()
	select {
	case v := <-got:
		if v != "fresh" {
			t.Fatalf("call after a panic got %v, want a fresh run", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged: a Do after a panicking Do never returned")
	}
}
