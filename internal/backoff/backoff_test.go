package backoff_test

import (
	"testing"
	"time"

	"netfail/internal/backoff"
)

// TestDefaultscheduleIsPinned pins the exact delay sequence the
// capture paths retried with before the dedup onto this package:
// 1, 2, 4, 8, 16 ms, then exhaustion. Any change to this schedule is
// a behaviour change in netfail-serve's source restarts and must show
// up here first.
func TestDefaultScheduleIsPinned(t *testing.T) {
	b := backoff.Default.New()
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		16 * time.Millisecond,
	}
	for i, w := range want {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("Next() exhausted at attempt %d, want %d retries", i+1, len(want))
		}
		if d != w {
			t.Errorf("attempt %d: delay = %v, want %v", i+1, d, w)
		}
	}
	if _, ok := b.Next(); ok {
		t.Error("Next() after the retry budget must report exhaustion")
	}
}

// TestJitterIsSeeded pins that identical seeds produce identical
// jittered schedules, different seeds different ones, and every
// jittered delay stays within (d - Jitter*d, d].
func TestJitterIsSeeded(t *testing.T) {
	p := backoff.Policy{Base: 100 * time.Millisecond, Factor: 2, Retries: 6, Jitter: 0.5, Seed: 42}
	run := func(p backoff.Policy) []time.Duration {
		b := p.New()
		var out []time.Duration
		for {
			d, ok := b.Next()
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a, bs := run(p), run(p)
	for i := range a {
		if a[i] != bs[i] {
			t.Fatalf("same seed, attempt %d: %v vs %v", i+1, a[i], bs[i])
		}
	}
	exact := p
	exact.Jitter = 0
	full := run(exact)
	for i := range a {
		lo := full[i] - time.Duration(0.5*float64(full[i]))
		if a[i] <= lo || a[i] > full[i] {
			t.Errorf("attempt %d: jittered delay %v outside (%v, %v]", i+1, a[i], lo, full[i])
		}
	}
	p.Seed = 43
	other := run(p)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jittered schedules")
	}
}

// TestMaxCapsDelays pins the cap: growth stops at Max.
func TestMaxCapsDelays(t *testing.T) {
	b := backoff.Policy{Base: time.Millisecond, Factor: 2, Max: 5 * time.Millisecond, Retries: 5}.New()
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	for i, w := range want {
		d, ok := b.Next()
		if !ok || d != w {
			t.Errorf("attempt %d: (%v, %v), want (%v, true)", i+1, d, ok, w)
		}
	}
}

// TestResetRestartsSchedule pins that a success mid-stream restarts
// the schedule from Base — the collector's failures=0 reset.
func TestResetRestartsSchedule(t *testing.T) {
	b := backoff.Default.New()
	b.Next()
	b.Next()
	b.Reset()
	d, ok := b.Next()
	if !ok || d != time.Millisecond {
		t.Fatalf("after Reset: Next() = (%v, %v), want (1ms, true)", d, ok)
	}
}
