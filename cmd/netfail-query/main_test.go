package main

import (
	"bytes"
	"context"
	"encoding/json"
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
