package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/obs"
	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// buildTestStore runs one small campaign into a store — the API is a
// thin skin over the store, so the fixtures come from the real
// pipeline, not hand-built segments.
func buildTestStore(t *testing.T) *store.Store {
	t.Helper()
	dir := t.TempDir()
	cfg := netfail.SimulationConfig{
		Seed: 4,
		Spec: topo.Spec{
			Seed: 4, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 2, 15, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
	}
	if _, err := netfail.Run(context.Background(), cfg, netfail.WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// decodeEnvelope asserts a response is the shared error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not the error envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error.Code
}

func TestAPIQueryEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	s := buildTestStore(t)
	srv := httptest.NewServer(api.NewMux(api.Options{Store: s}))
	defer srv.Close()

	t.Run("links", func(t *testing.T) {
		code, body := get(t, srv, "/api/v1/links")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Links []struct{ ID, Class string } `json:"links"`
			Count int                          `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count == 0 || out.Count != len(out.Links) {
			t.Errorf("count %d, links %d", out.Count, len(out.Links))
		}
		if out.Links[0].ID == "" || out.Links[0].Class == "" {
			t.Errorf("empty link entry: %+v", out.Links[0])
		}
	})

	t.Run("failures match the store", func(t *testing.T) {
		code, body := get(t, srv, "/api/v1/failures?source=isis&limit=5")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Failures []struct {
				Source string    `json:"source"`
				Link   string    `json:"link"`
				Start  time.Time `json:"start"`
				End    time.Time `json:"end"`
			} `json:"failures"`
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		want, err := s.Failures(context.Background(),
			store.WithSource(store.SourceISIS), store.WithLimit(5))
		if err != nil {
			t.Fatal(err)
		}
		if out.Count != len(want) || len(out.Failures) != len(want) {
			t.Fatalf("got %d failures, want %d", out.Count, len(want))
		}
		for i, f := range out.Failures {
			if f.Source != "isis" || f.Link != string(want[i].Link) ||
				!f.Start.Equal(want[i].Start) || !f.End.Equal(want[i].End) {
				t.Errorf("failure %d: %+v vs %+v", i, f, want[i])
			}
		}
	})

	t.Run("transitions enums as strings", func(t *testing.T) {
		code, body := get(t, srv, "/api/v1/transitions?stream=is-reach&dir=down&limit=3")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Transitions []map[string]any `json:"transitions"`
			Count       int              `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count == 0 {
			t.Fatal("no transitions matched")
		}
		for _, tr := range out.Transitions {
			if tr["stream"] != "is-reach" || tr["dir"] != "down" {
				t.Errorf("filter ignored or enum not a string: %v", tr)
			}
			if _, ok := tr["kind"].(string); !ok {
				t.Errorf("kind is not a string: %v", tr["kind"])
			}
		}
	})

	t.Run("messages window", func(t *testing.T) {
		path := "/api/v1/messages?from=2011-01-10T00:00:00Z&to=2011-01-11T00:00:00Z&limit=10"
		code, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Messages []struct {
				Time time.Time `json:"time"`
				Host string    `json:"host"`
				Line string    `json:"line"`
			} `json:"messages"`
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		from := time.Date(2011, 1, 10, 0, 0, 0, 0, time.UTC)
		to := from.AddDate(0, 0, 1)
		for _, m := range out.Messages {
			if m.Time.Before(from) || !m.Time.Before(to) {
				t.Errorf("message outside window: %v", m.Time)
			}
			if m.Host == "" || m.Line == "" {
				t.Errorf("empty message fields: %+v", m)
			}
		}
	})

	t.Run("flaps require source", func(t *testing.T) {
		code, body := get(t, srv, "/api/v1/flaps")
		if code != http.StatusBadRequest || decodeEnvelope(t, body) != "bad_param" {
			t.Errorf("status %d, body %s", code, body)
		}
		code, body = get(t, srv, "/api/v1/flaps?source=syslog")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Episodes []struct {
				Link string `json:"link"`
				Flap bool   `json:"flap"`
			} `json:"episodes"`
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count == 0 {
			t.Error("no flap episodes in a six-week campaign")
		}
	})

	t.Run("tables", func(t *testing.T) {
		for n := 1; n <= 7; n++ {
			code, body := get(t, srv, "/api/v1/tables/"+string(rune('0'+n)))
			if code != http.StatusOK {
				t.Fatalf("table %d: status %d: %s", n, code, body)
			}
			var out struct {
				Table int             `json:"table"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Table != n || len(out.Data) < 3 {
				t.Errorf("table %d: %s", n, body)
			}
		}
		code, body := get(t, srv, "/api/v1/tables/8")
		if code != http.StatusNotFound || decodeEnvelope(t, body) != "no_such_table" {
			t.Errorf("table 8: status %d, body %s", code, body)
		}
		code, body = get(t, srv, "/api/v1/tables/x")
		if code != http.StatusBadRequest || decodeEnvelope(t, body) != "bad_param" {
			t.Errorf("table x: status %d, body %s", code, body)
		}
	})

	t.Run("store summary", func(t *testing.T) {
		code, body := get(t, srv, "/api/v1/store")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out struct {
			Format  string `json:"format"`
			Seed    int64  `json:"seed"`
			Lenient bool   `json:"lenient"`
			Records map[string]int64
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Format != "NFSTORE1" || out.Seed != 4 || out.Lenient {
			t.Errorf("store summary: %s", body)
		}
	})

	t.Run("bad params", func(t *testing.T) {
		cases := []string{
			"/api/v1/failures?source=telepathy",
			"/api/v1/failures?limit=-1",
			"/api/v1/failures?limit=many",
			"/api/v1/failures?from=2011-01-10T00:00:00Z",
			"/api/v1/failures?from=yesterday&to=today",
			"/api/v1/failures?from=2011-01-11T00:00:00Z&to=2011-01-10T00:00:00Z",
			"/api/v1/transitions?stream=smoke-signal",
			"/api/v1/transitions?dir=sideways",
			"/api/v1/transitions?kind=vibes",
		}
		for _, path := range cases {
			code, body := get(t, srv, path)
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", path, code)
				continue
			}
			if got := decodeEnvelope(t, body); got != "bad_param" {
				t.Errorf("%s: envelope code %q", path, got)
			}
		}
	})

	t.Run("every JSON answer carries its length", func(t *testing.T) {
		for _, path := range []string{
			"/api/v1/links", "/api/v1/failures", "/api/v1/transitions", "/api/v1/messages",
			"/api/v1/flaps?source=isis", "/api/v1/tables/4", "/api/v1/store", "/api/v1/failures?limit=x",
		} {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			// A body sent without a length arrives chunked: ContentLength -1.
			if resp.ContentLength != int64(len(body)) || !json.Valid(body) {
				t.Errorf("%s: Content-Length %d on a %d-byte body (valid JSON: %v)",
					path, resp.ContentLength, len(body), json.Valid(body))
			}
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := srv.Client().Post(srv.URL+"/api/v1/failures", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("Allow header %q", allow)
		}
		if decodeEnvelope(t, body) != "method_not_allowed" {
			t.Errorf("body %s", body)
		}
	})

	t.Run("health and ready with aliases", func(t *testing.T) {
		for _, path := range []string{"/api/v1/health", "/api/v1/ready"} {
			code, body := get(t, srv, path)
			if code != http.StatusOK || !strings.Contains(string(body), "ok") {
				t.Errorf("%s: status %d, body %q", path, code, body)
			}
		}
	})
}

func TestAPIWithoutStoreOrRegistry(t *testing.T) {
	srv := httptest.NewServer(api.NewMux(api.Options{}))
	defer srv.Close()

	for _, path := range []string{
		"/api/v1/links", "/api/v1/failures", "/api/v1/transitions",
		"/api/v1/messages", "/api/v1/flaps", "/api/v1/tables/4", "/api/v1/store",
	} {
		code, body := get(t, srv, path)
		if code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
			continue
		}
		if got := decodeEnvelope(t, body); got != "no_store" {
			t.Errorf("%s: envelope code %q", path, got)
		}
	}

	code, body := get(t, srv, "/api/v1/metrics")
	if code != http.StatusNotFound || decodeEnvelope(t, body) != "no_metrics" {
		t.Errorf("/api/v1/metrics: status %d, body %s", code, body)
	}
	// Probes stay green even with nothing attached.
	if code, _ := get(t, srv, "/api/v1/health"); code != http.StatusOK {
		t.Errorf("health: status %d", code)
	}
	// The profiles ride on the registry.
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without a registry: status %d, want 404", code)
	}
}

func TestAPIMetricsAndDebugAliases(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.counter").Add(3)
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	srv := httptest.NewServer(api.NewMux(api.Options{Registry: reg, Ready: ok, Healthz: ok}))
	defer srv.Close()

	code, body := get(t, srv, "/api/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var counters map[string]any
	if err := json.Unmarshal(body, &counters); err != nil {
		t.Fatalf("metrics are not JSON: %v\n%s", err, body)
	}
	if counters["test.counter"] != float64(3) {
		t.Errorf("counter missing: %v", counters)
	}

	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ with a registry: status %d, want 200", code)
	}
	// The pre-versioning spellings are not mounted, even with
	// everything they served attached.
	for _, path := range []string{"/healthz", "/ready", "/debug/netfail", "/debug/vars"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
}

func TestAPICancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	s := buildTestStore(t)
	mux := api.NewMux(api.Options{Store: s})

	req := httptest.NewRequest(http.MethodGet, "/api/v1/failures", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled request: status %d, want 503", rec.Code)
	}
	if got := decodeEnvelope(t, rec.Body.Bytes()); got != "canceled" {
		t.Errorf("envelope code %q", got)
	}
}

// TestServerDropsStalledHeader: a prompt client is answered and one
// that stalls mid-request-line is disconnected; a bare
// &http.Server{Addr, Handler} holds the second forever, and a header
// timeout missing its unit cuts off the first.
func TestServerDropsStalledHeader(t *testing.T) {
	srv := api.NewServer("127.0.0.1:0", api.Options{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) // returns http.ErrServerClosed at Close
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/api/v1/metrics")
	if err != nil {
		t.Fatalf("prompt client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prompt client: GET /api/v1/metrics answered %d, want 200", resp.StatusCode)
	}
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	grace := srv.ReadHeaderTimeout + 3*time.Second
	if err := conn.SetReadDeadline(time.Now().Add(grace)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /api/v1/hea")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected after %s: %v", grace, err)
	}
}
