package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// get fetches path from the server and returns status and body.
func get(t *testing.T, s *MetricsServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsEndpoint(t *testing.T) {
	rec := New()
	rec.Add("localsearch.sweeps", 7)
	rec.SetGauge("localsearch.clusters", 3)
	h := rec.Histogram("materialize.seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	s, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE clusteragg_localsearch_sweeps_total counter",
		"clusteragg_localsearch_sweeps_total 7",
		"# TYPE clusteragg_localsearch_clusters gauge",
		"clusteragg_localsearch_clusters 3",
		"# TYPE clusteragg_materialize_seconds histogram",
		`clusteragg_materialize_seconds_bucket{le="0.01"} 1`,
		`clusteragg_materialize_seconds_bucket{le="0.1"} 2`,
		`clusteragg_materialize_seconds_bucket{le="+Inf"} 3`,
		"clusteragg_materialize_seconds_sum 5.055",
		"clusteragg_materialize_seconds_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeTwoServersIsolated: two live servers in one process each expose
// only their own recorder — no process-global state leaks one run's metrics
// into the other's endpoint, before or after the other closes — and there
// is no /debug/vars (expvar) endpoint.
func TestServeTwoServersIsolated(t *testing.T) {
	recA, recB := New(), New()
	recA.Add("x", 1)
	recA.Add("a.only", 1)
	recB.Add("x", 2)
	recB.Add("b.only", 1)
	a, err := Serve("127.0.0.1:0", recA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Serve("127.0.0.1:0", recB)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, s *MetricsServer, want, notWant []string) {
		t.Helper()
		code, body := get(t, s, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("%s: /metrics status %d", name, code)
		}
		for _, w := range want {
			if !strings.Contains(body, w+"\n") {
				t.Errorf("%s: /metrics missing %q:\n%s", name, w, body)
			}
		}
		for _, w := range notWant {
			if strings.Contains(body, w+"\n") {
				t.Errorf("%s: /metrics carries the other server's %q:\n%s", name, w, body)
			}
		}
		if code, _ := get(t, s, "/debug/vars"); code != http.StatusNotFound {
			t.Errorf("%s: /debug/vars status %d, want 404", name, code)
		}
	}
	aWant := []string{"clusteragg_x_total 1", "clusteragg_a_only_total 1"}
	bWant := []string{"clusteragg_x_total 2", "clusteragg_b_only_total 1"}
	check("A", a, aWant, bWant)
	check("B", b, bWant, aWant)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	check("A after B closed", a, aWant, bWant)
}

func TestServePprofIndex(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "heap") {
		t.Errorf("/debug/pprof/ status %d, heap link present %v", code, strings.Contains(body, "heap"))
	}
}

func TestServeSeriesEndpoint(t *testing.T) {
	rec := New()
	s := rec.Series("localsearch.cost")
	s.Append(0, 9)
	s.Append(1, 5)
	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("/series status %d", code)
	}
	var payload struct {
		Series map[string]SeriesSnapshot `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/series is not JSON: %v\n%s", err, body)
	}
	got := payload.Series["localsearch.cost"]
	if got.Count != 2 || len(got.Points) != 2 || got.Points[1].Value != 5 {
		t.Errorf("/series payload = %+v", payload.Series)
	}

	// Scraping stays well-formed while a writer appends concurrently.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(2); i < 500; i++ {
			s.Append(i, float64(i))
		}
	}()
	for i := 0; i < 10; i++ {
		code, body := get(t, srv, "/series")
		if code != http.StatusOK {
			t.Fatalf("live scrape status %d", code)
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("live scrape not JSON: %v", err)
		}
	}
	<-done

	// A nil recorder yields an empty object, not an error.
	srv.SetRecorder(nil)
	code, body = get(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("nil recorder /series status %d", code)
	}
	payload.Series = nil
	if err := json.Unmarshal([]byte(body), &payload); err != nil || len(payload.Series) != 0 {
		t.Errorf("nil recorder /series = %q (err %v)", body, err)
	}
}

func TestServeHealthz(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Errorf("/healthz = %+v", h)
	}
}

func TestServeBuildinfo(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv, "/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("/buildinfo status %d", code)
	}
	var info map[string]any
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("/buildinfo not JSON: %v\n%s", err, body)
	}
	gv, ok := info["go_version"].(string)
	if !ok || !strings.HasPrefix(gv, "go") {
		t.Errorf("/buildinfo go_version = %v", info["go_version"])
	}
	// Test binaries carry a build record with the module path; VCS stamps
	// are only present for real builds from a checkout, so not asserted.
	if _, ok := info["path"]; !ok {
		t.Errorf("/buildinfo missing module path: %v", info)
	}
}

func TestServeSetRecorder(t *testing.T) {
	first := New()
	first.Add("runs", 1)
	s, err := Serve("127.0.0.1:0", first)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Recorder() != first {
		t.Fatal("Recorder() != bound recorder")
	}

	second := New()
	second.Add("runs", 2)
	s.SetRecorder(second)
	_, body := get(t, s, "/metrics")
	if !strings.Contains(body, "clusteragg_runs_total 2") {
		t.Errorf("scrape did not follow SetRecorder:\n%s", body)
	}

	// A nil recorder exposes an empty (not erroring) registry.
	s.SetRecorder(nil)
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK || strings.Contains(body, "clusteragg_runs_total") {
		t.Errorf("nil recorder scrape: status %d body %q", code, body)
	}
}

func TestServeNilReceivers(t *testing.T) {
	var s *MetricsServer
	if s.Addr() != "" || s.Recorder() != nil {
		t.Error("nil server exposes state")
	}
	s.SetRecorder(New())
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"localsearch.sweeps": "clusteragg_localsearch_sweeps",
		"sample:assign":      "clusteragg_sample:assign",
		"a-b c/2":            "clusteragg_a_b_c_2",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
