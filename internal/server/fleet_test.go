package server

// Fleet-telemetry tests: the /metrics.json families snapshot, content
// negotiation on /metrics, the two-node /debug/fleet merge, and the OTLP
// export pipeline end to end against a fake collector — including the
// acceptance criterion that an exported span's trace id shows up as an
// exemplar on the OpenMetrics scrape.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// TestMetricsJSONFamilies is the /metrics.json regression: the snapshot
// must carry the full families view — including the scrape-time callback
// families (hot-pair attribution, registry bridges) — next to the cache
// block that existing scrapers read.
func TestMetricsJSONFamilies(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}

	code, body := do(t, "GET", ts.URL+"/metrics.json", "")
	if code != 200 {
		t.Fatalf("metrics.json: %d %s", code, body)
	}
	// The CI smoke greps for this exact cache fragment; it must survive.
	if !strings.Contains(body, `"compiles":1`) {
		t.Fatalf("cache fields missing from %s", body)
	}

	var m metricsBody
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	fams := map[string]telemetry.FamilySnapshot{}
	for _, f := range m.Families {
		fams[f.Name] = f
	}
	// A scrape-time callback family (registry bridge) with the cast's
	// compile recorded.
	rc, ok := fams["registry_compiles_total"]
	if !ok {
		t.Fatalf("families missing registry_compiles_total; have %d families", len(m.Families))
	}
	if len(rc.Samples) != 1 || rc.Samples[0].Value != 1 {
		t.Fatalf("registry_compiles_total = %+v, want one sample of 1", rc.Samples)
	}
	// The hot-pair attribution family is sample-callback-backed too.
	hp, ok := fams["cast_pair_casts_total"]
	if !ok || len(hp.Samples) == 0 {
		t.Fatalf("families missing hot-pair samples: ok=%v %+v", ok, hp.Samples)
	}
	// A histogram family round-trips with buckets.
	cd, ok := fams["cast_duration_seconds"]
	if !ok || cd.Type != "histogram" || len(cd.Samples) != 1 {
		t.Fatalf("cast_duration_seconds = %+v", cd)
	}
	if cd.Samples[0].Count != 1 || len(cd.Samples[0].Buckets) == 0 {
		t.Fatalf("cast_duration_seconds sample = %+v", cd.Samples[0])
	}
}

// TestMetricsNegotiation: the default scrape stays Prometheus text 0.0.4
// byte-for-byte conventions, and an OpenMetrics Accept header switches
// the same route to the OpenMetrics exposition with its # EOF terminator.
func TestMetricsNegotiation(t *testing.T) {
	ts := newTestServer(t, registry.Config{})

	get := func(accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), string(b)
	}

	ct, body := get("")
	if ct != telemetry.ContentTypePrometheus {
		t.Fatalf("default content type %q", ct)
	}
	if strings.Contains(body, "# EOF") {
		t.Fatal("Prometheus exposition must not carry the OpenMetrics terminator")
	}

	ct, body = get("application/openmetrics-text; version=1.0.0")
	if ct != telemetry.ContentTypeOpenMetrics {
		t.Fatalf("OpenMetrics content type %q", ct)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatal("OpenMetrics exposition must end with # EOF")
	}
	// Counter families drop the _total suffix in metadata but not samples.
	if !strings.Contains(body, "# TYPE http_requests counter") ||
		!strings.Contains(body, "http_requests_total{") {
		t.Fatalf("OpenMetrics counter naming wrong in:\n%s", body)
	}

	// A scraper that explicitly refuses OpenMetrics stays on text.
	if ct, _ = get("application/openmetrics-text;q=0, text/plain;q=0.5"); ct != telemetry.ContentTypePrometheus {
		t.Fatalf("q=0 OpenMetrics still negotiated: %q", ct)
	}
}

// fleetNodes is twoNodes with a fast prober so /debug/fleet's liveness
// column converges inside the test budget.
func fleetNodes(t *testing.T) (urlA, urlB string) {
	t.Helper()
	lhA, lhB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lhA), httptest.NewServer(lhB)
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	peers := []string{tsA.URL, tsB.URL}
	srvA := New(registry.New(registry.Config{}),
		Options{SelfURL: tsA.URL, Peers: peers, PeerProbeInterval: 20 * time.Millisecond})
	srvB := New(registry.New(registry.Config{}),
		Options{SelfURL: tsB.URL, Peers: peers, PeerProbeInterval: 20 * time.Millisecond})
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	lhA.set(srvA)
	lhB.set(srvB)
	return tsA.URL, tsB.URL
}

// TestFleetTwoNodes is the cross-peer aggregation contract: one request
// against node A reports node B up and returns cluster totals that cover
// both nodes' counters.
func TestFleetTwoNodes(t *testing.T) {
	urlA, urlB := fleetNodes(t)
	registerFigSchemas(t, urlA)
	registerFigSchemas(t, urlB)
	if code, body := do(t, "POST", urlA+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast via A: %d %s", code, body)
	}
	if code, body := do(t, "POST", urlB+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast via B: %d %s", code, body)
	}

	// Poll until the prober has seen B; the first probe may race startup.
	var body fleetBody
	deadline := time.Now().Add(3 * time.Second)
	for {
		code, raw := do(t, "GET", urlA+"/debug/fleet", "")
		if code != 200 {
			t.Fatalf("fleet: %d %s", code, raw)
		}
		body = fleetBody{}
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatalf("bad fleet JSON: %v", err)
		}
		if len(body.Peers) == 2 && body.Peers[1].Up && body.Peers[1].Families > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never came up: %+v", body.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if body.Self != urlA || !body.Peers[0].Self || body.Peers[0].URL != urlA {
		t.Fatalf("self row wrong: self=%q peers=%+v", body.Self, body.Peers)
	}
	if body.Peers[1].URL != urlB || body.Peers[1].Error != "" {
		t.Fatalf("peer row wrong: %+v", body.Peers[1])
	}
	if body.Peers[1].ProbeAgeMS < 0 {
		t.Fatalf("probe age negative: %+v", body.Peers[1])
	}

	// Merged totals cover both nodes: each registered two schemas, so the
	// cluster-wide register-route counter is 4.
	var registered float64
	for _, f := range body.Merged {
		if f.Name != "http_requests_total" {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Labels["route"] == "register" {
				registered += smp.Value
			}
		}
	}
	if registered != 4 {
		t.Fatalf("merged register requests = %v, want 4 (2 per node)", registered)
	}

	// ?family= narrows the merged view to one family.
	code, raw := do(t, "GET", urlA+"/debug/fleet?family=cast_verdicts_total", "")
	if code != 200 {
		t.Fatalf("fleet?family: %d %s", code, raw)
	}
	var filtered fleetBody
	if err := json.Unmarshal([]byte(raw), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Merged) != 1 || filtered.Merged[0].Name != "cast_verdicts_total" {
		t.Fatalf("family filter returned %+v", filtered.Merged)
	}
	var valid float64
	for _, smp := range filtered.Merged[0].Samples {
		if smp.Labels["verdict"] == "valid" {
			valid += smp.Value
		}
	}
	if valid < 2 {
		t.Fatalf("cluster-wide valid verdicts = %v, want >= 2", valid)
	}

	// The HTML rendering answers too.
	code, raw = do(t, "GET", urlA+"/debug/fleet?format=html", "")
	if code != 200 || !strings.Contains(raw, "fleet view from") || !strings.Contains(raw, urlB) {
		t.Fatalf("fleet html: %d %s", code, raw[:min(200, len(raw))])
	}
}

// TestFleetStandalone: without clustering the route still answers with a
// self-only view instead of 404ing — one code path for both shapes.
func TestFleetStandalone(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	code, raw := do(t, "GET", ts.URL+"/debug/fleet", "")
	if code != 200 {
		t.Fatalf("fleet: %d %s", code, raw)
	}
	var body fleetBody
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		t.Fatal(err)
	}
	if body.Self != "standalone" || len(body.Peers) != 1 || !body.Peers[0].Self {
		t.Fatalf("standalone fleet = %+v", body)
	}
	if len(body.Merged) == 0 {
		t.Fatal("standalone fleet has no merged families")
	}
}

// fakeCollector is an in-process OTLP/HTTP endpoint recording exported
// trace ids and metric names.
type fakeCollector struct {
	ts *httptest.Server

	mu       sync.Mutex
	traceIDs map[string]bool
	spans    []string
	metrics  map[string]bool
	requests int
}

func newFakeCollector(t *testing.T) *fakeCollector {
	t.Helper()
	c := &fakeCollector{traceIDs: map[string]bool{}, metrics: map[string]bool{}}
	c.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var payload struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct {
						TraceID string `json:"traceId"`
						Name    string `json:"name"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
			ResourceMetrics []struct {
				ScopeMetrics []struct {
					Metrics []struct {
						Name string `json:"name"`
					} `json:"metrics"`
				} `json:"scopeMetrics"`
			} `json:"resourceMetrics"`
		}
		if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		c.requests++
		for _, rs := range payload.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					c.traceIDs[sp.TraceID] = true
					c.spans = append(c.spans, sp.Name)
				}
			}
		}
		for _, rm := range payload.ResourceMetrics {
			for _, sm := range rm.ScopeMetrics {
				for _, m := range sm.Metrics {
					c.metrics[m.Name] = true
				}
			}
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(c.ts.Close)
	return c
}

func (c *fakeCollector) hasSpan(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.spans {
		if s == name {
			return true
		}
	}
	return false
}

func (c *fakeCollector) hasMetric(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics[name]
}

func (c *fakeCollector) sawTrace(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceIDs[id]
}

var exemplarTraceRE = regexp.MustCompile(`http_request_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]{32})"`)

// TestOTLPServerSmoke is the acceptance flow for the export pipeline: a
// traced cast is exported to the collector as a span batch, the metric
// snapshot follows, and the same trace id the collector received appears
// as an exemplar on the OpenMetrics scrape of the latency histogram.
func TestOTLPServerSmoke(t *testing.T) {
	col := newFakeCollector(t)
	base := leakcheck.Snapshot()

	srv := New(registry.New(registry.Config{}), Options{
		Tracer:       telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 1}),
		OTLPEndpoint: col.ts.URL,
		OTLPInterval: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)

	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}

	deadline := time.Now().Add(3 * time.Second)
	for !(col.hasSpan("http cast") && col.hasMetric("cast_duration_seconds")) {
		if time.Now().After(deadline) {
			t.Fatal("collector never saw the cast export")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The self-accounting families report the exports on the node itself.
	code, scrape := do(t, "GET", ts.URL+"/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`castd_otlp_exported_total{signal="spans"}`,
		`castd_otlp_exported_total{signal="metrics"}`,
		"castd_otlp_queue_depth",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Acceptance: the exemplar trace id on the OpenMetrics scrape is a
	// trace the collector actually received.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := exemplarTraceRE.FindStringSubmatch(string(om))
	if m == nil {
		t.Fatalf("no exemplar on http_request_duration_seconds in:\n%s", om)
	}
	if !col.sawTrace(m[1]) {
		t.Fatalf("exemplar trace %s never reached the collector", m[1])
	}

	// Drain order: Close flushes what is queued and stops the exporter
	// goroutine — leakcheck proves it is gone.
	ts.Close()
	srv.Close()
	leakcheck.Check(t, base)
}

// TestOTLPFaultStorm drives the injected 503 storm through a live server:
// exports retry with the synthesized Retry-After and recover once the
// countdown expires, with the retries visible in the self-accounting
// families.
func TestOTLPFaultStorm(t *testing.T) {
	col := newFakeCollector(t)
	faultinject.Enable(faultinject.Config{OTLPFail: 2})
	t.Cleanup(faultinject.Disable)

	srv := New(registry.New(registry.Config{}), Options{
		Tracer:       telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 1}),
		OTLPEndpoint: col.ts.URL,
		OTLPInterval: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)

	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}

	deadline := time.Now().Add(3 * time.Second)
	for !col.hasSpan("http cast") {
		if time.Now().After(deadline) {
			t.Fatal("collector never recovered from the injected storm")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, scrape := do(t, "GET", ts.URL+"/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	re := regexp.MustCompile(`castd_otlp_retries_total (\d+)`)
	m := re.FindStringSubmatch(scrape)
	if m == nil || m[1] == "0" {
		t.Fatalf("no retries recorded after injected storm: %v", m)
	}
}
