package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	revalidate "repro"
	"repro/internal/artifact"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/subsume"
	"repro/internal/telemetry"
	"repro/internal/xmlscan"
)

// breakdownTol is the largest share of the median traced round trip by
// which net.self_us + server.self_us + registry.lookup_hit_us +
// stream.cast_us (each a median over the same requests) may differ from
// it on the cast-* workloads.
const breakdownTol = 0.15

// castdLimits are castd's default -max-depth and -max-elements.
var castdLimits = revalidate.Limits{MaxDepth: 1024, MaxElements: 10_000_000}

// servedTrace is what a served workload hands to the traced run.
type servedTrace struct {
	daemon    *daemon
	pair      schemaPair // replayed pair
	docs      []doc      // replayed documents, with oracle verdicts
	editDoc   *node      // document the edit layers run on
	breakdown bool       // gate the round-trip breakdown (cast-* workloads)
	loop      func(seconds float64, sp *spanLog) (loadResult, time.Duration)
	churn     []int // schema-churn: compile layers cycle through these section counts
}

// traceServed is the --trace 1 run of a served workload: the workload's
// own loop with every other block traced (for the tracing overhead and
// castd's registry counters), then each layer timed on the same inputs.
func traceServed(cfg config, dir string, out *outcome, st servedTrace) (*outcome, error) {
	sp := newSpanLog()
	res, _ := st.loop(cfg.seconds/2, sp)
	out.tally.add(res.tally)
	out.set("telemetry.trace_overhead_frac", overhead(res.traced, res.lat.lat), "frac")
	rc, err := st.daemon.counters()
	if err != nil {
		return nil, fmt.Errorf("reading castd counters: %w", err)
	}
	setRegistry(out, rc)

	budget := cfg.seconds / 6
	if err := replayLayers(out, sp, st.daemon, st.pair, st.docs, st.breakdown, budget); err != nil {
		return nil, err
	}
	pairs := func(k int) schemaPair { return st.pair }
	if st.churn != nil {
		pairs = func(k int) schemaPair { return churnPair(st.churn[k%len(st.churn)], 100+k) }
	}
	if err := compileLayers(out, sp, dir, pairs, budget); err != nil {
		return nil, err
	}
	if err := editLayers(out, sp, st.pair, st.editDoc, cfg.seed, budget); err != nil {
		return nil, err
	}
	return out, sp.write(filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl"))
}

// traceEdit is the --trace 1 run of edit-revalidate: the edit loop with
// every other block traced, then the served, compile and edit layers on
// the same pair and document.
func traceEdit(cfg config, out *outcome, ed *editor) (*outcome, error) {
	sp := newSpanLog()
	lat, traced, steps, err := ed.run(cfg.seconds/2, 0, true, sp, &out.tally)
	if err != nil {
		return nil, err
	}
	out.set("telemetry.trace_overhead_frac", overhead(traced, lat.lat), "frac")
	setEditMetrics(out, steps)

	dir, err := runDir(cfg, "edit")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(cfg.castd, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	budget := cfg.seconds / 6
	// The served layers replay the next 8 committed states of the edited
	// document.
	var docs []doc
	for len(docs) < 8 {
		_, ok, err := ed.step(nil)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !ok {
			out.failed++
			out.mismatched++
		}
		_, fullErr := ed.oracle.ValidateFull(ed.doc)
		docs = append(docs, doc{body: ed.model.xml(), size: ed.base, valid: fullErr == nil})
	}
	if err := replayLayers(out, sp, d, skimPair, docs, false, budget); err != nil {
		return nil, err
	}
	rc, err := d.counters()
	if err != nil {
		return nil, fmt.Errorf("reading castd counters: %w", err)
	}
	setRegistry(out, rc)
	if err := compileLayers(out, sp, dir, func(int) schemaPair { return skimPair }, budget); err != nil {
		return nil, err
	}
	return out, sp.write(filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl"))
}

// overhead is the traced median over the untraced median, minus one.
func overhead(traced, plain samples) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return float64(traced.quantile(0.5))/float64(plain.quantile(0.5)) - 1
}

func setRegistry(out *outcome, rc registryCounters) {
	out.set("registry.hits", float64(rc.Hits), "count")
	out.set("registry.misses", float64(rc.Misses), "count")
	out.set("registry.compiles", float64(rc.Compiles), "count")
	out.set("registry.evictions", float64(rc.Evictions), "count")
	out.set("registry.artifact_loads", float64(rc.Misses-rc.Compiles), "count")
	ratio := 0.0
	if rc.Hits+rc.Misses > 0 {
		ratio = float64(rc.Hits) / float64(rc.Hits+rc.Misses)
	}
	out.set("registry.hit_ratio", ratio, "ratio")
}

// inProcess builds a registry and server with castd's default settings,
// so the in-process handler does what castd's does.
func inProcess() (*registry.Registry, *server.Server) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := registry.New(registry.Config{MaxEntries: 64, MaxBytes: 256 << 20, Logger: logger})
	srv := server.New(reg, server.Options{
		Logger: logger,
		Tracer: telemetry.NewTracer(telemetry.TracerOptions{
			SampleRate:    1,
			SlowThreshold: telemetry.DefaultSlowThreshold,
			Capacity:      telemetry.DefaultTraceCapacity,
		}),
		CastTimeout: 30 * time.Second,
		MaxDocBytes: 64 << 20,
		MaxDepth:    castdLimits.MaxDepth,
		MaxElements: castdLimits.MaxElements,
		MaxInFlight: 256,
	})
	return reg, srv
}

// replayLayers times every document of the sample through the served
// layers — loopback round trip to castd, in-process Server.ServeHTTP,
// Registry.PairCtx (a hit) and StreamCaster.ValidateContext — and through
// the tokenizer, full stream validation, tree parse and tree validation.
// Each of the two loops repeats passes over the sample until its budget
// is spent (at least one pass).
func replayLayers(out *outcome, sp *spanLog, d *daemon, p schemaPair, docs []doc, gate bool, budget float64) error {
	ctx := context.Background()
	reg, srv := inProcess()
	defer srv.Close()
	for _, id := range [][2]string{{"trace-src", p.src}, {"trace-dst", p.dst}} {
		if _, err := reg.RegisterCtx(ctx, id[0], id[1], registry.FormatXSD, ""); err != nil {
			return err
		}
		if err := d.put(id[0], id[1]); err != nil {
			return err
		}
	}
	pair, _, err := reg.PairCtx(ctx, "trace-src", "trace-dst")
	if err != nil {
		return err
	}
	var t tally
	if _, ok := castCheck(d, "trace-src", "trace-dst", docs[0], &t); !ok {
		return fmt.Errorf("replay: first cast failed")
	}

	// One row per request: the round trip and its parts.
	type row struct {
		size                                int
		rt, handler, net, srv, lookup, cast time.Duration
	}
	var rows []row
	var (
		scan, skim, full, parse, base            samples
		scanMB, skimMB                           []float64
		visited, skimmed, saved, scanned, values []float64
		bytesPer                                 []float64
	)
	until := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		for _, dc := range docs {
			// Served layers, one span tree per request.
			req := httptest.NewRequest(http.MethodPost, "/cast/trace-src/trace-dst", bytes.NewReader(dc.body))
			rec := httptest.NewRecorder()
			var okRT bool
			rtID, _ := sp.timed("net.roundtrip", -1, func() {
				_, okRT = castCheck(d, "trace-src", "trace-dst", dc, &out.tally)
			})
			hID, _ := sp.timed("server.handler", rtID, func() { srv.ServeHTTP(rec, req) })
			lID, _ := sp.timed("registry.lookup", hID, func() { _, _, err = reg.PairCtx(ctx, "trace-src", "trace-dst") })
			if err != nil {
				return err
			}
			var stats revalidate.StreamStats
			var castErr error
			cID, _ := sp.timed("stream.cast", hID, func() {
				stats, castErr = pair.Stream.ValidateContext(ctx, bytes.NewReader(dc.body), castdLimits)
			})
			if !okRT {
				continue
			}
			out.attempted += 2
			if v, err := handlerVerdict(rec); err != nil || v != dc.valid {
				out.failed++
				out.mismatched++
			}
			if (castErr == nil) != dc.valid {
				out.failed++
				out.mismatched++
			}
			rows = append(rows, row{size: dc.size, rt: sp.dur(rtID), handler: sp.dur(hID),
				net: sp.self(rtID, hID), srv: sp.self(hID, lID, cID), lookup: sp.dur(lID), cast: sp.dur(cID)})
			visited = append(visited, float64(stats.ElementsVisited))
			skimmed = append(skimmed, float64(stats.ElementsSkimmed))
			saved = append(saved, stats.WorkSavedRatio())
			scanned = append(scanned, stats.SymbolsScannedRatio())
			values = append(values, float64(stats.ValuesChecked))
			bytesPer = append(bytesPer, float64(len(dc.body)))
		}
	}

	// Tokenizer, full stream validation, tree parse and validation, in a
	// loop of their own so the parse cost does not thin out the requests.
	until = time.Now().Add(time.Duration(budget * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		for _, dc := range docs {
			mb := float64(len(dc.body)) / 1e6
			_, dt := sp.timed("xmlscan.scan", -1, func() { err = scanAll(dc.body) })
			if err != nil {
				return err
			}
			scan, scanMB = append(scan, dt), append(scanMB, mb/dt.Seconds())
			_, dt = sp.timed("xmlscan.skim", -1, func() { err = skimAll(dc.body) })
			if err != nil {
				return err
			}
			skim, skimMB = append(skim, dt), append(skimMB, mb/dt.Seconds())
			var fullErr error
			_, dt = sp.timed("stream.full", -1, func() {
				_, fullErr = pair.DstSchema.ValidateStreamContext(ctx, bytes.NewReader(dc.body), castdLimits)
			})
			full = append(full, dt)
			var tree *revalidate.Document
			_, dt = sp.timed("xmltree.parse", -1, func() { tree, err = revalidate.ParseDocument(bytes.NewReader(dc.body)) })
			if err != nil {
				return err
			}
			parse = append(parse, dt)
			_, dt = sp.timed("baseline.full", -1, func() { _, err = pair.DstSchema.ValidateFull(tree) })
			base = append(base, dt)
			out.attempted += 2
			if (fullErr == nil) != dc.valid {
				out.failed++
				out.mismatched++
			}
			if (err == nil) != dc.valid {
				out.failed++
				out.mismatched++
			}
			err = nil
		}
	}

	// med is the median in microseconds of one part over the requests of
	// one size (all sizes when size < 0).
	med := func(size int, part func(row) time.Duration) float64 {
		var s samples
		for _, r := range rows {
			if size < 0 || r.size == size {
				s = append(s, part(r))
			}
		}
		return us(s.quantile(0.5))
	}
	rtOf := func(r row) time.Duration { return r.rt }
	netOf := func(r row) time.Duration { return r.net }
	srvOf := func(r row) time.Duration { return r.srv }
	lookOf := func(r row) time.Duration { return r.lookup }
	castOf := func(r row) time.Duration { return r.cast }
	out.set("net.self_us", med(-1, netOf), "us")
	out.set("server.handler_us", med(-1, func(r row) time.Duration { return r.handler }), "us")
	out.set("server.self_us", med(-1, srvOf), "us")
	out.set("registry.lookup_hit_us", med(-1, lookOf), "us")
	out.set("stream.cast_us", med(-1, castOf), "us")
	out.set("stream.full_us", us(full.quantile(0.5)), "us")
	out.set("stream.cast_vs_full", med(-1, castOf)/us(full.quantile(0.5)), "ratio")
	out.set("stream.elements_visited", mean(visited), "count")
	out.set("stream.elements_skimmed", mean(skimmed), "count")
	out.set("stream.work_saved_ratio", mean(saved), "ratio")
	out.set("stream.symbols_scanned_ratio", mean(scanned), "ratio")
	out.set("stream.values_checked", mean(values), "count")
	out.set("stream.bytes_per_doc", mean(bytesPer), "B")
	out.set("xmlscan.scan_us", us(scan.quantile(0.5)), "us")
	out.set("xmlscan.scan_mb_per_s", medianFloat(scanMB), "MB/s")
	out.set("xmlscan.skim_us", us(skim.quantile(0.5)), "us")
	out.set("xmlscan.skim_mb_per_s", medianFloat(skimMB), "MB/s")
	out.set("xmltree.parse_ms", ms(parse.quantile(0.5)), "ms")
	out.set("baseline.full_us", us(base.quantile(0.5)), "us")

	// The check runs per document size: within a size the medians of the
	// parts add up to the median round trip, across a mixed pool they need
	// not. The worst size is reported and gated.
	out.set("breakdown.roundtrip_us", med(-1, rtOf), "us")
	worst := 0.0
	var sizes []int
	for _, r := range rows {
		if !slices.Contains(sizes, r.size) {
			sizes = append(sizes, r.size)
		}
	}
	slices.Sort(sizes)
	for _, size := range sizes {
		net, srv, look, cast := med(size, netOf), med(size, srvOf), med(size, lookOf), med(size, castOf)
		sum, whole := net+srv+look+cast, med(size, rtOf)
		resid := (sum - whole) / whole
		out.notef("breakdown, size %d: net.self %.1f + server.self %.1f + lookup %.2f + stream.cast %.1f = %.1f us vs round trip %.1f us (%+.1f%%)",
			size, net, srv, look, cast, sum, whole, 100*resid)
		if math.Abs(resid) > math.Abs(worst) {
			worst = resid
		}
	}
	out.set("breakdown.residual_frac", worst, "frac")
	out.notef("breakdown: worst residual %+.1f%% (tolerance %.0f%%)", 100*worst, 100*breakdownTol)
	if gate && math.Abs(worst) > breakdownTol {
		out.breakdownMiss = true
		fmt.Fprintf(os.Stderr, "perfbench: per-layer breakdown misses the round trip by %.1f%% (tolerance %.0f%%)\n",
			100*worst, 100*breakdownTol)
	}

	// Allocations per call, outside the spans.
	bodies := make([]*bytes.Reader, 64)
	reqs := make([]*http.Request, 64)
	for i := range bodies {
		body := docs[i%len(docs)].body
		bodies[i] = bytes.NewReader(body)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/cast/trace-src/trace-dst", bytes.NewReader(body))
	}
	out.set("server.allocs_per_cast", allocsPer(len(reqs), func(i int) { srv.ServeHTTP(httptest.NewRecorder(), reqs[i]) }), "count")
	out.set("stream.allocs_per_cast", allocsPer(len(bodies), func(i int) {
		_, _ = pair.Stream.ValidateContext(ctx, bodies[i], castdLimits)
	}), "count")
	return nil
}

func handlerVerdict(rec *httptest.ResponseRecorder) (bool, error) {
	if rec.Code != http.StatusOK {
		return false, fmt.Errorf("handler: %d", rec.Code)
	}
	var r castReply
	err := json.Unmarshal(rec.Body.Bytes(), &r)
	return r.Valid, err
}

// scanAll tokenizes body with the pooled scanner, event by event.
func scanAll(body []byte) error {
	s := xmlscan.Get(bytes.NewReader(body))
	defer s.Release()
	for {
		ev, err := s.Next()
		if err != nil {
			return err
		}
		if ev == xmlscan.EventEOF {
			return nil
		}
	}
}

// skimAll opens the root element and skims its whole subtree.
func skimAll(body []byte) error {
	s := xmlscan.Get(bytes.NewReader(body))
	defer s.Release()
	for {
		ev, err := s.Next()
		if err != nil {
			return err
		}
		if ev == xmlscan.EventEOF {
			return fmt.Errorf("skim: no root element")
		}
		if ev == xmlscan.EventStart {
			break
		}
	}
	lim := xmlscan.SkimLimits{BaseOpen: s.Depth()}
	for {
		res, err := s.SkimSubtree(lim)
		if err != nil {
			return err
		}
		if res.Done {
			return nil
		}
	}
}

// schemaHash is the registry's content hash of an XSD text.
func schemaHash(text string) string {
	h := sha256.Sum256([]byte(string(registry.FormatXSD) + "\x00\x00" + text))
	return hex.EncodeToString(h[:])
}

// compileLayers times the cold path of a pair — schema load, relations,
// pair compile — and the artifact round trip that replaces it on a warm
// start, plus schema registration, repeating until the budget is spent
// (at least 5 times).
func compileLayers(out *outcome, sp *spanLog, dir string, pairs func(k int) schemaPair, budget float64) error {
	ctx := context.Background()
	store, err := artifact.OpenStore(filepath.Join(dir, "trace-artifacts"), nil)
	if err != nil {
		return err
	}
	reg := registry.New(registry.Config{})
	var load, rel, comp, enc, put, get, regT samples
	var blobKB []float64
	until := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for k := 0; k < 5 || time.Now().Before(until); k++ {
		p := pairs(k)
		var src, dst *revalidate.Schema
		u := revalidate.NewUniverse()
		_, dt := sp.timed("xsd.load", -1, func() {
			if src, err = u.LoadXSDString(p.src); err == nil {
				dst, err = u.LoadXSDString(p.dst)
			}
		})
		if err != nil {
			return err
		}
		load = append(load, dt)
		var c *revalidate.Caster
		_, dt = sp.timed("revalidate.pair_compile", -1, func() { c, _, err = revalidate.NewCasterPair(src, dst) })
		if err != nil {
			return err
		}
		comp = append(comp, dt)

		// Relations alone, on schemas loaded afresh so nothing is shared
		// with the compile above.
		u2 := revalidate.NewUniverse()
		src2, err := u2.LoadXSDString(p.src)
		if err != nil {
			return err
		}
		dst2, err := u2.LoadXSDString(p.dst)
		if err != nil {
			return err
		}
		_, dt = sp.timed("subsume.relations", -1, func() { _, err = subsume.Compute(src2.Abstract(), dst2.Abstract()) })
		if err != nil {
			return err
		}
		rel = append(rel, dt)

		si := artifact.SchemaInfo{Format: string(registry.FormatXSD), Text: p.src, Hash: schemaHash(p.src)}
		di := artifact.SchemaInfo{Format: string(registry.FormatXSD), Text: p.dst, Hash: schemaHash(p.dst)}
		var blob []byte
		_, dt = sp.timed("artifact.encode", -1, func() { blob, err = artifact.Encode(si, di, c, c.Report()) })
		if err != nil {
			return err
		}
		enc, blobKB = append(enc, dt), append(blobKB, float64(len(blob))/1024)
		key := artifact.Key(si.Hash, di.Hash)
		_, dt = sp.timed("artifact.put", -1, func() { err = store.Put(key, blob) })
		if err != nil {
			return err
		}
		put = append(put, dt)
		_, dt = sp.timed("artifact.load", -1, func() { _, err = store.LoadPair(key) })
		if err != nil {
			return err
		}
		get = append(get, dt)
		_, dt = sp.timed("registry.register", -1, func() {
			_, err = reg.RegisterCtx(ctx, fmt.Sprintf("v%d", k), p.dst, registry.FormatXSD, "")
		})
		if err != nil {
			return err
		}
		regT = append(regT, dt)
	}
	out.set("xsd.load_ms", ms(load.quantile(0.5)), "ms")
	out.set("subsume.relations_ms", ms(rel.quantile(0.5)), "ms")
	out.set("revalidate.pair_compile_ms", ms(comp.quantile(0.5)), "ms")
	out.set("artifact.encode_ms", ms(enc.quantile(0.5)), "ms")
	out.set("artifact.blob_kb", medianFloat(blobKB), "KB")
	out.set("artifact.put_ms", ms(put.quantile(0.5)), "ms")
	out.set("artifact.load_ms", ms(get.quantile(0.5)), "ms")
	out.set("artifact.warm_vs_cold", ms(get.quantile(0.5))/(ms(load.quantile(0.5))+ms(comp.quantile(0.5))), "ratio")
	out.set("registry.register_ms", ms(regT.quantile(0.5)), "ms")
	return nil
}

// editLayers runs the edit stream on the workload's own pair and largest
// document shape until the budget is spent (at least 50 steps).
func editLayers(out *outcome, sp *spanLog, p schemaPair, model *node, seed int64, budget float64) error {
	ed, err := newEditor(p, model, nil, seed)
	if err != nil {
		return err
	}
	var steps []stepTimes
	until := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(steps) < 50 || time.Now().Before(until) {
		_, _, st, err := ed.run(budget, 50, false, sp, &out.tally)
		if err != nil {
			return err
		}
		steps = append(steps, st...)
	}
	setEditMetrics(out, steps)
	return nil
}

// setEditMetrics reports the update, cast and baseline layers of the edit
// steps taken.
func setEditMetrics(out *outcome, steps []stepTimes) {
	var edit, cast, full samples
	var changes, visited, ratio []float64
	for _, s := range steps {
		edit, cast, full = append(edit, s.edit), append(cast, s.cast), append(full, s.full)
		changes = append(changes, float64(s.changes))
		visited = append(visited, float64(s.visited))
		ratio = append(ratio, float64(s.visited)/float64(s.nodes))
	}
	out.set("update.edit_us", us(edit.quantile(0.5)), "us")
	out.set("update.changeset_size", mean(changes), "count")
	out.set("cast.modified_us", us(cast.quantile(0.5)), "us")
	out.set("cast.nodes_visited", mean(visited), "count")
	out.set("cast.visited_ratio", mean(ratio), "ratio")
	out.set("cast.modified_vs_full", float64(cast.quantile(0.5))/float64(full.quantile(0.5)), "ratio")
}
