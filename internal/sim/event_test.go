package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(3, func() { got = append(got, 3) })
	q.At(1, func() { got = append(got, 1) })
	q.At(2, func() { got = append(got, 2) })
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired in order %v", got)
	}
	if q.Now() != 3 {
		t.Errorf("final time = %v, want 3", q.Now())
	}
}

func TestQueueTieBreakFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(1, func() { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v, want FIFO", got)
		}
	}
}

func TestQueueAfter(t *testing.T) {
	var q Queue
	fired := Time(-1)
	q.At(2, func() {
		q.After(3, func() { fired = q.Now() })
	})
	q.Run()
	if fired != 5 {
		t.Fatalf("After fired at %v, want 5", fired)
	}
}

func TestQueuePastPanics(t *testing.T) {
	var q Queue
	q.At(5, func() {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.At(1, func() {})
}

func TestQueueRunUntil(t *testing.T) {
	var q Queue
	count := 0
	for i := 1; i <= 10; i++ {
		q.At(Time(i), func() { count++ })
	}
	q.RunUntil(5)
	if count != 5 {
		t.Fatalf("RunUntil(5) fired %d events, want 5", count)
	}
	if q.Now() != 5 {
		t.Fatalf("clock = %v, want 5", q.Now())
	}
	if q.Len() != 5 {
		t.Fatalf("pending = %d, want 5", q.Len())
	}
}

func TestQueueRunUntilAdvancesIdleClock(t *testing.T) {
	var q Queue
	q.RunUntil(7)
	if q.Now() != 7 {
		t.Fatalf("idle clock = %v, want 7", q.Now())
	}
}

func TestQueueMonotonicClock(t *testing.T) {
	var q Queue
	r := NewRand(99)
	last := Time(-1)
	for i := 0; i < 200; i++ {
		at := Time(r.Float64() * 100)
		q.At(at, func() {
			if q.Now() < last {
				t.Errorf("clock went backwards: %v after %v", q.Now(), last)
			}
			last = q.Now()
		})
	}
	q.Run()
}

func TestQueueStepEmpty(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestQueueProperty(t *testing.T) {
	// Property: however events are inserted, they fire in nondecreasing time
	// order and all fire exactly once.
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		var q Queue
		r := NewRand(seed)
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			at := Time(r.Intn(50))
			q.At(at, func() {
				fired++
				if q.Now() < last {
					ok = false
				}
				last = q.Now()
			})
		}
		q.Run()
		return ok && fired == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// Run fires events until the queue is empty and returns the final time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}
