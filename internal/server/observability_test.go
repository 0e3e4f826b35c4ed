package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/hotpair"
	"repro/internal/profiling"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// TestObservabilityRoutesBypassAdmission is the regression test for the
// diagnosability contract: a node with every -max-in-flight slot busy must
// still answer its observability routes, or the operator loses sight of
// the daemon exactly when it is in trouble.
func TestObservabilityRoutesBypassAdmission(t *testing.T) {
	ts := newGovernedServer(t, Options{MaxInFlight: 1})
	registerFigSchemas(t, ts.URL)

	// Saturate the only slot: a cast whose body never finishes parks the
	// handler inside the slot until the pipe is released.
	pr, pw := io.Pipe()
	go pw.Write([]byte(`<purchaseOrder orderDate="2004-03-14">`))
	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/cast/v1/v2", "application/xml", pr)
		if err == nil {
			resp.Body.Close()
		}
		inFlight <- err
	}()
	time.Sleep(200 * time.Millisecond)

	for _, route := range []string{
		"/metrics",
		"/metrics.json",
		"/healthz",
		"/debug/traces",
		"/debug/profiles",
		"/debug/hotpairs",
		"/debug/fleet",
	} {
		if code, body := do(t, "GET", ts.URL+route, ""); code != http.StatusOK {
			t.Errorf("%s while saturated: %d %s", route, code, body)
		}
	}
	// Control: a work route really is shed right now.
	if code, _ := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != http.StatusTooManyRequests {
		t.Errorf("work route while saturated: %d, want 429", code)
	}

	pw.Close()
	if err := <-inFlight; err != nil {
		t.Fatalf("slot-holding request failed: %v", err)
	}
}

// TestProfilesEndpoints drives the latency trigger through a real request
// and retrieves the captured profile over HTTP: the forced-trigger
// acceptance path.
func TestProfilesEndpoints(t *testing.T) {
	prof := profiling.New(profiling.Options{
		LatencyThreshold: time.Nanosecond, // every request is an anomaly
		CPUDuration:      30 * time.Millisecond,
		Cooldown:         time.Nanosecond,
	})
	defer prof.Stop()
	ts := newGovernedServer(t, Options{Profiler: prof})
	registerFigSchemas(t, ts.URL)

	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}
	var list profilesBody
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, body := do(t, "GET", ts.URL+"/debug/profiles", "")
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatalf("profiles list JSON: %v in %s", err, body)
		}
		if len(list.Profiles) >= 2 { // goroutine snapshot + CPU window
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !list.Enabled || len(list.Profiles) < 2 {
		t.Fatalf("latency trigger produced %d profiles (enabled=%v)", len(list.Profiles), list.Enabled)
	}
	for _, m := range list.Profiles {
		if m.Trigger != profiling.TriggerLatency {
			t.Errorf("profile %d trigger = %s, want latency", m.ID, m.Trigger)
		}
	}

	// Download one and verify it is a gzipped pprof proto.
	resp, err := http.Get(fmt.Sprintf("%s/debug/profiles/%d", ts.URL, list.Profiles[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("profile download: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("downloaded profile is not gzip: %v", err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("downloaded profile gunzip: %v (%d bytes)", err, len(raw))
	}

	if code, _ := do(t, "GET", ts.URL+"/debug/profiles/999999", ""); code != 404 {
		t.Errorf("unknown profile id: %d, want 404", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/debug/profiles/not-an-id", ""); code != 400 {
		t.Errorf("malformed profile id: %d, want 400", code)
	}

	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if strings.Contains(metrics, "castd_profiles_captured_total 0\n") {
		t.Error("captured counter still zero after retained profiles")
	}
}

// TestProfilesEndpointsWithoutProfiler: the routes stay mounted and sane
// when the daemon runs unprofiled.
func TestProfilesEndpointsWithoutProfiler(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	code, body := do(t, "GET", ts.URL+"/debug/profiles", "")
	if code != 200 {
		t.Fatalf("profiles list without profiler: %d", code)
	}
	var list profilesBody
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Profiles) != 0 {
		t.Fatalf("unexpected list without profiler: %+v", list)
	}
	if code, _ := do(t, "GET", ts.URL+"/debug/profiles/1", ""); code != 404 {
		t.Fatalf("profile download without profiler: %d, want 404", code)
	}
	// The capture counters exist at zero.
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	for _, want := range []string{"castd_profiles_captured_total 0", "castd_profiles_dropped_total 0"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHotpairsEndpoint: casts attribute to their pair's content-hash key,
// and both the JSON view and the bounded metric families see them.
func TestHotpairsEndpoint(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	for i := 0; i < 3; i++ {
		if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
			t.Fatalf("cast %d: %d %s", i, code, body)
		}
	}
	_, body := do(t, "GET", ts.URL+"/debug/hotpairs", "")
	var snap hotpair.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("hotpairs JSON: %v in %s", err, body)
	}
	if snap.K != DefaultHotPairK {
		t.Errorf("k = %d, want default %d", snap.K, DefaultHotPairK)
	}
	if len(snap.Tracked) != 1 {
		t.Fatalf("tracked = %+v, want exactly the v1->v2 pair", snap.Tracked)
	}
	e := snap.Tracked[0]
	if e.Casts != 3 || e.Src != "v1" || e.Dst != "v2" || len(e.Key) != 12 {
		t.Fatalf("bad entry: %+v", e)
	}
	if e.Seconds <= 0 {
		t.Errorf("no wall-clock attributed: %+v", e)
	}
	// The label is the first 12 hex digits of the pair's artifact key over
	// the two schema hashes; dashboards and peers key on it.
	hash := func(id string) string {
		var entry registry.SchemaEntry
		_, body := do(t, "GET", ts.URL+"/schemas/"+id, "")
		if err := json.Unmarshal([]byte(body), &entry); err != nil {
			t.Fatalf("schema %s JSON: %v in %s", id, err, body)
		}
		return entry.Hash
	}
	if want := artifact.Key(hash("v1"), hash("v2"))[:12]; e.Key != want || e.Key != "a108b6f07bdf" {
		t.Errorf("hot-pair key %q, want artifact key prefix %q (a108b6f07bdf for the Figure 2 pair)", e.Key, want)
	}

	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	for _, want := range []string{
		`cast_pair_seconds_total{pair="` + e.Key + `"}`,
		`cast_pair_casts_total{pair="` + e.Key + `"} 3`,
		`cast_pair_casts_total{pair="other"} 0`,
		`cast_pair_work_saved_ratio{pair="` + e.Key + `"}`,
		"cast_pair_tracked 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// tracedTwoNodes is twoNodes plus tracers, returning the servers so the
// test can read their rings directly.
func tracedTwoNodes(t *testing.T) (urlA, urlB string, regA, regB *registry.Registry) {
	t.Helper()
	lhA, lhB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lhA), httptest.NewServer(lhB)
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	peers := []string{tsA.URL, tsB.URL}
	regA, regB = registry.New(registry.Config{}), registry.New(registry.Config{})
	mk := func(reg *registry.Registry, self string) *Server {
		srv := New(reg, Options{
			SelfURL: self, Peers: peers,
			Tracer: telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 1}),
		})
		t.Cleanup(srv.Close)
		return srv
	}
	lhA.set(mk(regA, tsA.URL))
	lhB.set(mk(regB, tsB.URL))
	return tsA.URL, tsB.URL, regA, regB
}

// getTrace polls one node's /debug/traces/{id} until the trace is
// retained (span End publishes after the response is on the wire).
func getTrace(t *testing.T, base, traceID string) telemetry.TraceData {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body := do(t, "GET", base+"/debug/traces/"+traceID, "")
		if code == 200 {
			var td telemetry.TraceData
			if err := json.Unmarshal([]byte(body), &td); err != nil {
				t.Fatalf("trace JSON: %v in %s", err, body)
			}
			return td
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never retained on %s (last: %d %s)", traceID, base, code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func findSpan(td telemetry.TraceData, name string) (telemetry.SpanData, bool) {
	for _, s := range td.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.SpanData{}, false
}

// TestClusterTraceContinuity: a cast proxied to the pair's owner is one
// trace across both nodes — the proxy hop is a client span on the
// non-owner, and the owner's root span is its child under the same trace
// id. The follow-up artifact fetch continues the trace the same way.
func TestClusterTraceContinuity(t *testing.T) {
	urlA, urlB, regA, _ := tracedTwoNodes(t)
	registerFigSchemas(t, urlA)
	registerFigSchemas(t, urlB)

	sv1, _ := regA.Schema("v1")
	sv2, _ := regA.Schema("v2")
	key := artifact.Key(sv1.Hash, sv2.Hash)
	c := newCluster(urlA, []string{urlA, urlB})
	ownerURL, nonOwnerURL := c.owner(key), urlA
	if ownerURL == urlA {
		nonOwnerURL = urlB
	}

	cast := func(traceID string) {
		t.Helper()
		req, err := http.NewRequest("POST", nonOwnerURL+"/cast/v1/v2", strings.NewReader(poXML(true)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("cast: %d", resp.StatusCode)
		}
	}

	// Round 1: the owner has nothing compiled, so the non-owner proxies.
	proxyTrace := "aaaabbbbccccddddeeeeffff00001111"
	cast(proxyTrace)

	local := getTrace(t, nonOwnerURL, proxyTrace)
	hop, ok := findSpan(local, "peer.proxy")
	if !ok {
		t.Fatalf("non-owner trace has no peer.proxy span: %+v", local)
	}
	root, _ := findSpan(local, "http cast")
	if hop.ParentID != root.SpanID {
		t.Errorf("peer.proxy parent = %s, want the request root %s", hop.ParentID, root.SpanID)
	}

	remote := getTrace(t, ownerURL, proxyTrace)
	remoteRoot, ok := findSpan(remote, "http cast")
	if !ok {
		t.Fatalf("owner trace has no http cast root: %+v", remote)
	}
	if remoteRoot.ParentID != hop.SpanID {
		t.Errorf("owner root parent = %s, want the proxy hop %s — the trace broke at the node boundary",
			remoteRoot.ParentID, hop.SpanID)
	}
	if remoteRoot.TraceID != proxyTrace {
		t.Errorf("owner joined trace %s, want %s", remoteRoot.TraceID, proxyTrace)
	}

	// Round 2: the owner now has the artifact; the non-owner fetches it
	// under a peer.fetch client span in the same trace.
	fetchTrace := "aaaabbbbccccddddeeeeffff00002222"
	cast(fetchTrace)
	local = getTrace(t, nonOwnerURL, fetchTrace)
	fetch, ok := findSpan(local, "peer.fetch")
	if !ok {
		t.Fatalf("fetch round has no peer.fetch span: %+v", local)
	}
	remote = getTrace(t, ownerURL, fetchTrace)
	artifactRoot, ok := findSpan(remote, "http artifact")
	if !ok {
		t.Fatalf("owner has no artifact root for the fetch: %+v", remote)
	}
	if artifactRoot.ParentID != fetch.SpanID {
		t.Errorf("artifact root parent = %s, want the fetch span %s", artifactRoot.ParentID, fetch.SpanID)
	}
}

// TestPeerUpProber: the background prober publishes castd_peer_up per
// peer, flipping to 0 when the peer dies, and standalone daemons carry the
// family with no series.
func TestPeerUpProber(t *testing.T) {
	lhA, lhB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lhA), httptest.NewServer(lhB)
	t.Cleanup(tsA.Close)
	peers := []string{tsA.URL, tsB.URL}
	srvA := New(registry.New(registry.Config{}), Options{
		SelfURL: tsA.URL, Peers: peers, PeerProbeInterval: 20 * time.Millisecond})
	t.Cleanup(srvA.Close)
	srvB := New(registry.New(registry.Config{}), Options{
		SelfURL: tsB.URL, Peers: peers, PeerProbeInterval: 20 * time.Millisecond})
	lhA.set(srvA)
	lhB.set(srvB)

	wantSeries := fmt.Sprintf("castd_peer_up{peer=%q} ", tsB.URL)
	waitFor := func(value string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			_, metrics := do(t, "GET", tsA.URL+"/metrics", "")
			if strings.Contains(metrics, wantSeries+value+"\n") {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("castd_peer_up for %s never reached %s", tsB.URL, value)
	}
	waitFor("1")
	srvB.Close()
	tsB.Close() // connection refused from here on
	waitFor("0")

	// Standalone: family present, zero series.
	ts := newTestServer(t, registry.Config{})
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if !strings.Contains(metrics, "# HELP castd_peer_up ") {
		t.Error("standalone scrape missing the castd_peer_up family")
	}
	if strings.Contains(metrics, "castd_peer_up{") {
		t.Error("standalone scrape has peer series out of nowhere")
	}
}
