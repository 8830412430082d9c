package netsim

import (
	"context"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

func limitedConfig(seed int64, mutate func(*ImpairParams)) Config {
	im := DefaultImpairments()
	mutate(&im)
	return Config{
		Seed: seed,
		Spec: topo.Spec{
			Seed: seed, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 2, 15, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
		Impair:          &im,
	}
}

func TestRateLimitDropsBurstMessages(t *testing.T) {
	base, err := Run(context.Background(), limitedConfig(8, func(im *ImpairParams) {}))
	if err != nil {
		t.Fatal(err)
	}
	limited, err := Run(context.Background(), limitedConfig(8, func(im *ImpairParams) {
		im.RateLimitPerMin = 0.5
		im.RateLimitBurst = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	if limited.Counts.SyslogSent != base.Counts.SyslogSent {
		t.Fatalf("sent differ: %d vs %d (same seed must emit identically)",
			limited.Counts.SyslogSent, base.Counts.SyslogSent)
	}
	if limited.Counts.SyslogReceived >= base.Counts.SyslogReceived {
		t.Errorf("rate limit dropped nothing: %d >= %d",
			limited.Counts.SyslogReceived, base.Counts.SyslogReceived)
	}
	t.Logf("received: unlimited %d, rate-limited %d",
		base.Counts.SyslogReceived, limited.Counts.SyslogReceived)
}

func TestRateLimitBucketMechanics(t *testing.T) {
	s := &simulation{
		cfg:     Config{Impair: &ImpairParams{RateLimitPerMin: 6, RateLimitBurst: 3}},
		buckets: make(map[string]*tokenBucket),
	}
	t0 := time.Unix(0, 0)
	// Burst of 3 passes, 4th drops.
	for i := 0; i < 3; i++ {
		if s.rateLimited("r", t0) {
			t.Fatalf("message %d limited within burst", i)
		}
	}
	if !s.rateLimited("r", t0) {
		t.Fatal("burst overflow not limited")
	}
	// 6/min = one token per 10 s.
	if s.rateLimited("r", t0.Add(11*time.Second)) {
		t.Fatal("refilled token not granted")
	}
	if !s.rateLimited("r", t0.Add(11*time.Second)) {
		t.Fatal("second message after single refill not limited")
	}
	// Long idle refills to the burst cap, no further.
	if s.rateLimited("r", t0.Add(time.Hour)) ||
		s.rateLimited("r", t0.Add(time.Hour)) ||
		s.rateLimited("r", t0.Add(time.Hour)) {
		t.Fatal("burst not restored after idle")
	}
	if !s.rateLimited("r", t0.Add(time.Hour)) {
		t.Fatal("cap exceeded after idle")
	}
}

func TestNoiseMessagesFiltered(t *testing.T) {
	camp, err := Run(context.Background(), limitedConfig(9, func(im *ImpairParams) {
		im.NoisePerRouterDay = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	noise := 0
	for _, m := range camp.Syslog {
		if m.Link.Type == syslog.EventOther {
			noise++
		}
	}
	if noise == 0 {
		t.Fatal("no noise messages generated")
	}
	// 30 routers x 45 days x 2/day ≈ 2700 minus loss.
	if noise < 1000 {
		t.Errorf("noise = %d, expected thousands", noise)
	}
	// Every noise message still parses as valid RFC 3164.
	for _, m := range camp.Syslog {
		if _, err := reparse(m, camp.Config.Start); err != nil {
			t.Fatalf("noise message does not re-parse: %v", err)
		}
	}
	t.Logf("noise messages: %d of %d total", noise, len(camp.Syslog))
}
