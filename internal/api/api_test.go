package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/capture"
	"netfail/internal/frame"
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

// TestAPIScanDamageIsWholeEnvelope: a byte flipped inside a 30-day
// window of transitions.seg is a strict store's 500 store_error
// envelope for the scan of that window, whole and behind its length —
// never a 200 carrying the records read before the damage — and a
// lenient store's 200, with the skip accounted at /api/v1/store.
func TestAPIScanDamageIsWholeEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	src := buildTestStore(t).Dir()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the payload of the frame a middle index entry points at,
	// and centre the window on its stamp.
	idx, _, err := capture.LoadIndex(filepath.Join(dir, store.TransitionsIndex), false)
	if err != nil || len(idx) < 2 {
		t.Fatalf("transitions index: %d entries, %v", len(idx), err)
	}
	mid := idx[len(idx)/2]
	seg := filepath.Join(dir, store.TransitionsSegment)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[mid.Offset+frame.Overhead+12] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	at := time.UnixMilli(mid.TsMs).UTC()
	scan := "/api/v1/transitions?from=" + at.Add(-15*24*time.Hour).Format(time.RFC3339) +
		"&to=" + at.Add(15*24*time.Hour).Format(time.RFC3339)

	serve := func(s *store.Store, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		api.NewMux(api.Options{Store: s}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", path, cl, rec.Body.Len())
		}
		return rec
	}

	strict, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(strict, scan)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("strict scan over the damage: status %d, want 500; body %.200s", rec.Code, rec.Body)
	}
	if code := decodeEnvelope(t, rec.Body.Bytes()); code != "store_error" {
		t.Errorf("strict scan over the damage: envelope code %q, want store_error", code)
	}

	lenient, err := store.OpenLenient(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(lenient, scan); rec.Code != http.StatusOK {
		t.Fatalf("lenient scan over the damage: status %d, want 200; body %.200s", rec.Code, rec.Body)
	}
	var summary struct {
		Salvage map[string]string `json:"salvage"`
	}
	if err := json.Unmarshal(serve(lenient, "/api/v1/store").Body.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	if got := summary.Salvage[store.TransitionsSegment]; !strings.Contains(got, "skipped") || strings.Contains(got, "skipped 0 ") {
		t.Errorf("/api/v1/store salvage for %s is %q, want a skip accounted", store.TransitionsSegment, got)
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
