package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/store"
)

// TestJSONIsTheAPIBody: for every list verb, `netfail-query -json
// <verb> -name value ...` prints the value GET /api/v1/<verb>?name=value...
// serves — one vocabulary, one body per resource.
func TestJSONIsTheAPIBody(t *testing.T) {
	ctx, dir := context.Background(), t.TempDir()
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := netfail.SimulationConfig{Seed: 1, Start: start, End: start.AddDate(0, 0, 14)}
	if _, err := netfail.Run(ctx, cfg, netfail.WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Aim the filters at records that exist: a link and a router from one.
	trs, err := s.Transitions(ctx, store.WithStream(store.StreamSyslogAdj), store.WithLimit(1))
	if err != nil || len(trs) == 0 {
		t.Fatalf("no stored transition to aim at: %v", err)
	}
	link, router := string(trs[0].Link), trs[0].Reporter
	from, to := start.Format(time.RFC3339), cfg.End.Format(time.RFC3339)
	mux := api.NewMux(api.Options{Store: s})

	for _, c := range [][]string{
		{"links"},
		{"failures", "source", "isis", "limit", "5"},
		{"failures", "link", link, "from", from, "to", to},
		{"transitions", "stream", "is-reach", "dir", "down", "kind", "is-reach", "limit", "3"},
		{"transitions", "link", link, "reporter", router},
		{"messages", "host", router, "contains", "ADJCHANGE", "limit", "3", "from", from, "to", to},
		{"flaps", "source", "syslog", "link", link},
	} {
		args, params := []string{c[0]}, url.Values{}
		for i := 1; i < len(c); i += 2 {
			args = append(args, "-"+c[i], c[i+1])
			params.Set(c[i], c[i+1])
		}
		var cli bytes.Buffer
		if err := run(ctx, &cli, dir, false, true, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/"+c[0]+"?"+params.Encode(), nil))
		var got, want map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil || rec.Code != http.StatusOK || want["count"] == 0.0 {
			t.Fatalf("%v: API answered %d with no records: %s", args, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(cli.Bytes(), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: CLI -json is not the API body (%v)\ncli: %s\napi: %s", args, err, cli.Bytes(), rec.Body)
		}
	}
}

// TestServeAnswersInFlightRequestAtShutdown: a request half-way through
// its header when serve is told to stop is still answered, and serve
// returns nil — the shutdown grace is seconds, long enough to drain.
func TestServeAnswersInFlightRequestAtShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // serve takes an address, not a listener: hand it a free one

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, io.Discard, nil, []string{"-debug-addr", addr}) }()

	// dialUntil polls addr until a dial succeeds (open) or is refused.
	dialUntil := func(open bool) net.Conn {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			c, err := net.Dial("tcp", addr)
			if (err == nil) == open {
				return c
			}
			if c != nil {
				c.Close()
			}
		}
		t.Fatalf("serve on %s: still waiting for accepting=%v", addr, open)
		return nil
	}
	conn := dialUntil(true)
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /api/v1/health HTTP/1.1\r\nHost: "+addr+"\r\n"); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Shutdown closes the listener first: once a dial is refused, the
	// half-sent request is what it is waiting on.
	dialUntil(false)
	if _, err := io.WriteString(conn, "\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request was not answered: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request answered %d, want 200", resp.StatusCode)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its last request was answered")
	}
}
