package resilience

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

var t0 = time.Date(1997, 5, 1, 0, 0, 0, 0, time.UTC)

func TestRetrySucceedsAfterFailures(t *testing.T) {
	clock := NewAutoClock(t0)
	calls := 0
	r := &Retrier{
		Policy: RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond},
		Clock:  clock,
	}
	attempts, err := r.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
	// Two backoffs: 100ms then 200ms (multiplier defaults to 2).
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := clock.Sleeps()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", got, want)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	clock := NewAutoClock(t0)
	boom := errors.New("boom")
	calls := 0
	var observed []time.Duration
	r := &Retrier{
		Policy: RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 15 * time.Millisecond},
		Clock:  clock,
		OnRetry: func(attempt int, delay time.Duration, err error) {
			observed = append(observed, delay)
		},
	}
	attempts, err := r.Do(func() error { calls++; return boom })
	if !errors.Is(err, boom) || attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
	// 10ms, then 20ms capped to 15ms.
	if len(observed) != 2 || observed[0] != 10*time.Millisecond || observed[1] != 15*time.Millisecond {
		t.Errorf("observed delays = %v", observed)
	}
}

func TestRetrySingleAttemptByDefault(t *testing.T) {
	calls := 0
	r := &Retrier{Clock: NewAutoClock(t0)}
	attempts, err := r.Do(func() error { calls++; return errors.New("x") })
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestDelayJitterIsBoundedAndDeterministic(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	// rnd=0 → 50ms (1-J), rnd just under 1 → ~150ms (1+J), rnd=0.5 → 100ms.
	if d := p.Delay(1, func() float64 { return 0 }); d != 50*time.Millisecond {
		t.Errorf("low jitter delay = %v", d)
	}
	if d := p.Delay(1, func() float64 { return 0.5 }); d != 100*time.Millisecond {
		t.Errorf("mid jitter delay = %v", d)
	}
	if d := p.Delay(1, func() float64 { return 0.999 }); d < 100*time.Millisecond || d > 150*time.Millisecond {
		t.Errorf("high jitter delay = %v", d)
	}
}

func TestDelayGrowthAndCap(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Second, Multiplier: 3, MaxDelay: 5 * time.Second}
	wants := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, want := range wants {
		if d := p.Delay(i+1, nil); d != want {
			t.Errorf("Delay(%d) = %v, want %v", i+1, d, want)
		}
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clock := NewFakeClock(t0)
	b := NewBreaker(2, time.Minute, clock)
	var transitions []BreakerState
	b.OnStateChange(func(from, to BreakerState) { transitions = append(transitions, to) })

	boom := errors.New("down")
	for i := 0; i < 2; i++ {
		tk, err := b.Allow()
		if err != nil {
			t.Fatalf("call %d rejected: %v", i, err)
		}
		b.Report(tk, boom)
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if len(transitions) != 1 || transitions[0] != Open {
		t.Errorf("transitions = %v", transitions)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clock := NewFakeClock(t0)
	b := NewBreaker(1, time.Minute, clock)
	tk, err := b.Allow()
	if err != nil {
		t.Fatalf("fresh breaker rejected: %v", err)
	}
	b.Report(tk, errors.New("down"))
	if b.State() != Open {
		t.Fatalf("state = %v", b.State())
	}
	// Before the cooldown: rejected.
	clock.Advance(30 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown not elapsed but call admitted")
	}
	// After the cooldown: exactly one probe.
	clock.Advance(31 * time.Second)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe admitted")
	}
	b.Report(probe, nil)
	if b.State() != Closed {
		t.Fatalf("state after good probe = %v", b.State())
	}
	if _, err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clock := NewFakeClock(t0)
	b := NewBreaker(1, time.Minute, clock)
	tk, _ := b.Allow()
	b.Report(tk, errors.New("down"))
	clock.Advance(2 * time.Minute)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Report(probe, errors.New("still down"))
	if b.State() != Open {
		t.Fatalf("state = %v, want open again", b.State())
	}
	// The cooldown restarts from the failed probe.
	clock.Advance(30 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker admitted a call before new cooldown")
	}
}

// TestBreakerIgnoresStaleReports: a call admitted while Closed that
// completes only after the breaker has opened (a slow concurrent
// caller, or a timed-out fetch's abandoned goroutine) must not move
// the breaker — neither restart the cooldown on failure nor force the
// circuit closed on success.
func TestBreakerIgnoresStaleReports(t *testing.T) {
	clock := NewFakeClock(t0)
	b := NewBreaker(1, time.Minute, clock)
	boom := errors.New("down")

	stale, _ := b.Allow() // slow call, admitted while Closed
	tk, _ := b.Allow()
	b.Report(tk, boom) // opens the breaker, starting the cooldown
	clock.Advance(45 * time.Second)

	b.Report(stale, boom) // late failure: cooldown must not restart
	clock.Advance(16 * time.Second)
	if _, err := b.Allow(); err != nil { // cooldown over: admits the probe
		t.Fatalf("stale failure extended the cooldown: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}

	// A late success must neither close the circuit nor free up a
	// second probe while the real one is still in flight.
	b.Report(stale, nil)
	if b.State() != HalfOpen {
		t.Fatalf("stale success moved the breaker to %v", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("stale success released a second probe")
	}
}

func TestBreakerDo(t *testing.T) {
	b := NewBreaker(1, time.Minute, NewFakeClock(t0))
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("x")
	if err := b.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker ran op: %v", err)
	}
}

func TestWithTimeoutCompletes(t *testing.T) {
	boom := errors.New("inner")
	if err := WithTimeout(Real, time.Minute, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := WithTimeout(nil, 0, func() error { return nil }); err != nil {
		t.Fatalf("no-deadline err = %v", err)
	}
}

// TestWithTimeoutReleasesTimers: calls that return long before their
// deadline leave nothing live behind. Each call starts a wall-clock
// timer for its deadline, and under the go 1.22 timer semantics an
// unreferenced timer stayed live until it fired, so a server bounding
// every click-time render by a 10 s timeout retained one timer per
// request for 10 s. go.mod's go 1.23 line makes such timers
// collectable at once.
func TestWithTimeoutReleasesTimers(t *testing.T) {
	noop := func() error { return nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range 100000 {
		if err := WithTimeout(Real, time.Hour, noop); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 5<<20 {
		t.Errorf("100000 completed calls left %.1f MB live, want under 5 MB", float64(growth)/(1<<20))
	}
}

func TestWithTimeoutExpiresOnHang(t *testing.T) {
	clock := NewAutoClock(t0)
	hang := make(chan struct{})
	defer close(hang)
	err := WithTimeout(clock, 50*time.Millisecond, func() error {
		<-hang
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestWithTimeoutConvertsPanic(t *testing.T) {
	err := WithTimeout(Real, time.Minute, func() error { panic("template bug") })
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestFakeClockAdvanceFiresTimers(t *testing.T) {
	clock := NewFakeClock(t0)
	ch1 := clock.After(10 * time.Second)
	ch2 := clock.After(20 * time.Second)
	if clock.Waiting() != 2 {
		t.Fatalf("waiting = %d", clock.Waiting())
	}
	clock.Advance(15 * time.Second)
	select {
	case <-ch1:
	default:
		t.Fatal("first timer did not fire")
	}
	select {
	case <-ch2:
		t.Fatal("second timer fired early")
	default:
	}
	clock.Advance(5 * time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("second timer did not fire")
	}
	if clock.Now() != t0.Add(20*time.Second) {
		t.Errorf("now = %v", clock.Now())
	}
}
