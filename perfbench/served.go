package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

const (
	setupReps   = 15                     // set-ups per run; setup_s is their median
	probeCount  = 200                    // first-verdict probes through castd
	segmentLen  = 500 * time.Millisecond // loop segment; probes run between segments
	blockPeriod = 250 * time.Millisecond
	clients     = 2 // load-generator connections (the machine's nproc)
)

// launch starts castd setupReps times (once when tracing), timing each
// from exec until prime has served every pair's first verdict, scaled by
// the host factor measured just before it, and keeps the last daemon
// running.
func launch(cfg config, dir string, flags func(rep int) []string, prime func(*daemon) error) (*daemon, samples, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setup samples
	for r := 0; ; r++ {
		f := hostFactor()
		start := time.Now()
		d, err := startDaemon(cfg.castd, dir, flags(r)...)
		if err != nil {
			return nil, nil, err
		}
		if err := prime(d); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, scaled(time.Since(start), f))
		if r == reps-1 {
			return d, setup, nil
		}
		d.stop()
	}
}

// castCheck issues one cast and books it: a transport error or non-2xx
// status fails the operation, and so does a verdict that differs from the
// oracle's (which also makes the run incorrect).
func castCheck(d *daemon, src, dst string, dc doc, t *tally) (time.Duration, bool) {
	start := time.Now()
	v, err := d.cast(src, dst, dc.body)
	lat := time.Since(start)
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return lat, false
	case v != dc.valid:
		t.failed++
		t.mismatched++
		fmt.Fprintf(os.Stderr, "perfbench: cast %s/%s of a %d-size document answered valid=%v, oracle says %v\n",
			src, dst, dc.size, v, dc.valid)
		return lat, false
	}
	return lat, true
}

// loadResult is what a closed loop measured.
type loadResult struct {
	tally
	lat    timeline // untraced operations
	traced samples  // operations in traced blocks
}

// closedLoop runs n clients until the deadline, each calling op and
// waiting for it before the next call. op reports its latency and whether
// to record it. When blocks is set, alternate blockPeriod windows are
// marked traced, so op can record spans there and the run can compare
// traced with untraced latency.
func closedLoop(n int, seconds float64, blocks bool, op func(client, i int, traced bool, t *tally) (time.Duration, bool)) (loadResult, time.Duration) {
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	res := make([]loadResult, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for i := 0; time.Now().Before(until); i++ {
				traced := blocks && (time.Since(start)/blockPeriod)%2 == 1
				lat, ok := op(c, i, traced, &r.tally)
				switch {
				case !ok:
				case traced:
					r.traced = append(r.traced, lat)
				default:
					r.lat.add(time.Since(start), lat)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all loadResult
	for _, r := range res {
		all.merge(r, 0)
	}
	return all, elapsed
}

// merge appends o's operations, shifting its completion times by offset.
func (r *loadResult) merge(o loadResult, offset time.Duration) {
	r.add(o.tally)
	r.lat.merge(o.lat, offset)
	r.traced = append(r.traced, o.traced...)
}

// setCastMetrics reports a closed loop's casts as medians over windows:
// p50 and rate over one-second windows, p99 over windows of at least 1000
// casts (so each window's p99 has 10 samples beyond it).
func setCastMetrics(out *outcome, res loadResult, elapsed time.Duration) {
	out.set("cast_p50_ms", ms(res.lat.windowed(elapsed, 0.5, 1)), "ms")
	out.set("cast_p99_ms", ms(res.lat.windowed(elapsed, 0.99, 1000)), "ms")
	out.set("cast_docs_per_s", res.lat.windowedRate(elapsed), "1/s")
}

// segmentCount cuts a run into loop segments of about segmentLen.
func segmentCount(seconds float64) int {
	return max(1, int(seconds/segmentLen.Seconds()))
}

// permuted returns a client's endless seeded walk over n pool indices, a
// fresh permutation per pass.
func permuted(rng *rand.Rand, n int) func(i int) int {
	var perm []int
	return func(i int) int {
		if i%n == 0 {
			perm = rng.Perm(n)
		}
		return perm[i%n]
	}
}

// runCast is the cast-skim / cast-check workload: a closed loop of 2
// clients posting the purchase-order pool to /cast/src/dst.
func runCast(cfg config, p schemaPair) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	docs := poDocs(rng, p)
	orc, err := newOracle(p)
	if err != nil {
		return nil, err
	}
	if err := checkDocs(orc, docs); err != nil {
		return nil, err
	}
	dir, err := runDir(cfg, p.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var small doc
	for _, dc := range docs {
		if dc.size == poMix[0].items && dc.valid {
			small = dc
			break
		}
	}
	out := &outcome{}
	d, setup, err := launch(cfg, dir, func(int) []string { return nil }, func(d *daemon) error {
		if err := d.put("src", p.src); err != nil {
			return err
		}
		if err := d.put("dst", p.dst); err != nil {
			return err
		}
		var t tally
		if _, ok := castCheck(d, "src", "dst", small, &t); !ok {
			return fmt.Errorf("first verdict failed")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	walks := make([]func(int) int, clients)
	for c := range walks {
		walks[c] = permuted(rand.New(rand.NewSource(cfg.seed*7919+int64(c)+1)), len(docs))
	}
	loop := func(seconds float64, sp *spanLog) (loadResult, time.Duration) {
		return closedLoop(clients, seconds, sp != nil, func(c, i int, traced bool, t *tally) (time.Duration, bool) {
			dc := docs[walks[c](i)]
			var id int32
			if traced {
				id = sp.begin("loadgen.cast", -1)
			}
			lat, ok := castCheck(d, "src", "dst", dc, t)
			if traced {
				sp.end(id)
			}
			return lat, ok
		})
	}

	if cfg.trace {
		return traceServed(cfg, dir, out, servedTrace{
			daemon: d, pair: p,
			docs: docs, editDoc: purchaseOrder(rand.New(rand.NewSource(cfg.seed+1)), 2000, true),
			breakdown: true, loop: loop,
		})
	}

	// First verdicts: each probe registers a new version of the target
	// (same schema, new content hash) and sends its first cast, which
	// compiles the pair. The loop runs in segments with a share of the
	// probes after each, so loop and probes both sample the whole run. The
	// host factor measured after a segment scales it and its probes.
	var (
		res     loadResult
		elapsed time.Duration // on the reference host's clock
		fv      samples
		factors []float64
		k       int
	)
	segments := segmentCount(cfg.seconds)
	for seg := 1; seg <= segments; seg++ {
		r, el := loop(cfg.seconds/float64(segments), nil)
		f := hostFactor()
		factors = append(factors, f)
		r.lat.scale(f)
		res.merge(r, elapsed)
		elapsed += scaled(el, f)
		for ; k < seg*probeCount/segments; k++ {
			id := fmt.Sprintf("dst-v%d", k)
			start := time.Now()
			if err := d.put(id, reversion(p.dst, k)); err != nil {
				out.attempted++
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				continue
			}
			if _, ok := castCheck(d, "src", id, small, &out.tally); ok {
				fv = append(fv, scaled(time.Since(start), f))
			}
		}
	}
	out.tally.add(res.tally)
	out.set("setup_s", setup.quantile(0.5).Seconds(), "s")
	setCastMetrics(out, res, elapsed)
	out.notef("cast samples: %d over %.1fs on the reference clock (%d clients, closed loop)", len(res.lat.lat), elapsed.Seconds(), clients)
	noteFactors(out, factors)
	out.set("first_verdict_p50_ms", ms(fv.quantile(0.5)), "ms")
	out.set("first_verdict_p90_ms", ms(fv.quantile(0.9)), "ms")
	out.notef("first-verdict samples: %d", len(fv))
	out.set("peak_rss_mb", peakRSSMB(d.pid()), "MB")
	return out, nil
}

// churnSizes are the section counts of churned target schemas; writes
// cycle through seeded permutations of them, so each run has the same mix.
var churnSizes = []int{4, 16, 48}

const (
	churnPerSize = 4 // live target ids per section count
	churnCache   = 8 // castd -cache-entries, below the 12 live pairs
	churnZipfS   = 1.2
)

// churnDocs generates, per section count, 10 catalog documents of which
// one omits a note and is invalid under every target version.
func churnDocs(rng *rand.Rand) (map[int][]doc, error) {
	out := map[int][]doc{}
	for _, n := range churnSizes {
		orc, err := newOracle(churnPair(n, 100))
		if err != nil {
			return nil, err
		}
		var docs []doc
		for i := 0; i < 10; i++ {
			drop := -1
			if i == 0 {
				drop = rng.Intn(n)
			}
			docs = append(docs, doc{body: catalog(rng, n, drop).xml(), size: n, valid: drop < 0})
		}
		if err := checkDocs(orc, docs); err != nil {
			return nil, err
		}
		out[n] = docs
	}
	return out, nil
}

// version is one registered target schema version.
type version struct {
	id string
	n  int
	q  int
}

// churnState is the live pool shared by the writer and the reader: per
// section count, churnPerSize target ids, each bound to its latest version.
// A write re-registers the least recently written id of its size with a
// fresh facet (castd hot-swaps it), so castd's schema table stays bounded
// while the pair versions keep changing.
type churnState struct {
	mu     sync.Mutex
	pool   map[int][]version // per section count, least recently written first
	writes map[int]int
	used   map[version]bool
	next   int // version counter; the facet of version k is 100+k
}

func (s *churnState) add(v version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var p []version
	for _, o := range s.pool[v.n] {
		if o.id != v.id {
			p = append(p, o)
		}
	}
	s.pool[v.n] = append(p, v)
}

// pickZipf returns the version of n sections at a Zipf-distributed
// recency rank.
func (s *churnState) pickZipf(n int, z *rand.Zipf) version {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pool[n]
	r := int(z.Uint64())
	if r >= len(p) {
		r = len(p) - 1
	}
	v := p[len(p)-1-r]
	s.used[v] = true
	return v
}

// writeVersion registers a fresh target version with n sections and sends
// its first cast; it returns the version and the PUT + first-cast time.
func (s *churnState) writeVersion(d *daemon, n int, dc doc, t *tally) (version, time.Duration, bool) {
	s.mu.Lock()
	k, slot := s.next, s.writes[n]%churnPerSize
	s.next++
	s.writes[n]++
	s.mu.Unlock()
	v := version{id: fmt.Sprintf("t%d-%d", n, slot), n: n, q: 100 + k}
	text := churnPair(n, v.q).dst
	start := time.Now()
	if err := d.put(v.id, text); err != nil {
		t.attempted++
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return v, 0, false
	}
	_, ok := castCheck(d, fmt.Sprintf("src%d", n), v.id, dc, t)
	return v, time.Since(start), ok
}

// runChurn is the schema-churn workload: client A writes new target
// versions and sends each one's first cast; client B casts against
// Zipf-chosen live versions, so hot pairs hit castd's cache and cold ones
// come back through the artifact store.
func runChurn(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	docs, err := churnDocs(rng)
	if err != nil {
		return nil, err
	}
	dir, err := runDir(cfg, "churn")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sizes := func(r *rand.Rand) func(i int) int {
		walk := permuted(r, len(churnSizes))
		return func(i int) int { return churnSizes[walk(i)] }
	}
	out := &outcome{}
	var st *churnState
	flags := func(rep int) []string {
		art := fmt.Sprintf("%s/artifacts-%d", dir, rep)
		return []string{"-artifact-dir", art, "-cache-entries", fmt.Sprint(churnCache)}
	}
	d, setup, err := launch(cfg, dir, flags, func(d *daemon) error {
		st = &churnState{pool: map[int][]version{}, writes: map[int]int{}, used: map[version]bool{}}
		for _, n := range churnSizes {
			if err := d.put(fmt.Sprintf("src%d", n), churnPair(n, 100).src); err != nil {
				return err
			}
		}
		size := sizes(rand.New(rand.NewSource(cfg.seed + 11)))
		for i := 0; i < churnPerSize*len(churnSizes); i++ {
			n := size(i)
			var t tally
			v, _, ok := st.writeVersion(d, n, docs[n][0], &t)
			if !ok {
				return fmt.Errorf("first verdict of %s failed", v.id)
			}
			st.add(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	writeSize := sizes(rand.New(rand.NewSource(cfg.seed + 13)))
	writeRNG := rand.New(rand.NewSource(cfg.seed + 17))
	readSize := sizes(rand.New(rand.NewSource(cfg.seed + 19)))
	readRNG := rand.New(rand.NewSource(cfg.seed + 23))
	zipf := rand.NewZipf(readRNG, churnZipfS, 1, churnPerSize-1)
	var firsts timeline
	var loopStart time.Time
	loop := func(seconds float64, sp *spanLog) (loadResult, time.Duration) {
		loopStart = time.Now()
		return closedLoop(2, seconds, sp != nil, func(c, i int, traced bool, t *tally) (time.Duration, bool) {
			if c == 0 { // client A: writes
				n := writeSize(i)
				dc := docs[n][writeRNG.Intn(len(docs[n]))]
				var id int32
				if traced {
					id = sp.begin("loadgen.write", -1)
				}
				v, lat, ok := st.writeVersion(d, n, dc, t)
				if traced {
					sp.end(id)
				}
				if ok {
					st.add(v)
					firsts.add(time.Since(loopStart), lat)
				}
				return 0, false
			}
			v := st.pickZipf(readSize(i), zipf) // client B: reads
			dc := docs[v.n][readRNG.Intn(len(docs[v.n]))]
			var id int32
			if traced {
				id = sp.begin("loadgen.cast", -1)
			}
			lat, ok := castCheck(d, fmt.Sprintf("src%d", v.n), v.id, dc, t)
			if traced {
				sp.end(id)
			}
			return lat, ok
		})
	}

	if cfg.trace {
		n := churnSizes[len(churnSizes)-1]
		return traceServed(cfg, dir, out, servedTrace{
			daemon: d, pair: churnPair(n, 100),
			docs: docs[n], editDoc: catalog(rand.New(rand.NewSource(cfg.seed+1)), n, -1),
			loop: loop, churn: churnSizes,
		})
	}

	// The loop runs in segments, each scaled by the host factor measured
	// after it.
	var (
		res     loadResult
		written timeline
		elapsed time.Duration // on the reference host's clock
		factors []float64
	)
	segments := segmentCount(cfg.seconds)
	for seg := 0; seg < segments; seg++ {
		firsts = timeline{}
		r, el := loop(cfg.seconds/float64(segments), nil)
		f := hostFactor()
		factors = append(factors, f)
		r.lat.scale(f)
		firsts.scale(f)
		res.merge(r, elapsed)
		written.merge(firsts, elapsed)
		elapsed += scaled(el, f)
	}
	out.tally.add(res.tally)
	// The oracle verdicts came from the q = 100 target; confirm them on the
	// versions the loop actually cast against (outside the timed region).
	if err := st.verifyVersions(docs, &out.tally); err != nil {
		return nil, err
	}
	out.set("setup_s", setup.quantile(0.5).Seconds(), "s")
	setCastMetrics(out, res, elapsed)
	out.set("first_verdict_p50_ms", ms(written.windowed(elapsed, 0.5, 1)), "ms")
	out.set("first_verdict_p90_ms", ms(written.windowed(elapsed, 0.9, 100)), "ms")
	out.set("peak_rss_mb", peakRSSMB(d.pid()), "MB")
	out.notef("cast samples: %d, first-verdict samples: %d over %.1fs on the reference clock (writer + reader, closed loop)",
		len(res.lat.lat), len(written.lat), elapsed.Seconds())
	noteFactors(out, factors)
	return out, nil
}

// verifyVersions re-derives the expected verdicts of up to 6 versions the
// reader used, by full validation against each version's own text. A
// disagreement means the facet-invariance the pool relies on is broken,
// and makes the run incorrect.
func (s *churnState) verifyVersions(docs map[int][]doc, t *tally) error {
	checked := 0
	for v := range s.used {
		if checked == 6 {
			break
		}
		checked++
		p := churnPair(v.n, v.q)
		orc, err := newOracle(p)
		if err != nil {
			return err
		}
		for _, dc := range docs[v.n] {
			ok, err := orc.verdict(dc.body)
			if err != nil {
				return err
			}
			if ok != dc.valid {
				t.mismatched++
				fmt.Fprintf(os.Stderr, "perfbench: version %s changes a verdict the pool assumed\n", v.id)
			}
		}
	}
	return nil
}
