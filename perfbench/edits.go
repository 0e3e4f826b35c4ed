package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	revalidate "repro"
)

// editSpec describes the edits a document shape supports.
type editSpec struct {
	container string // label (prefix) of the elements holding repeated children
	repeated  string // the repeated child ("item", "entry"); each has a quantity
	badMin    int    // out-of-range quantities lie in [badMin, badMin+99]
	// optional is a child the source allows to be absent and the target
	// requires; it sits right after anchor. Empty when the source requires
	// it too, so dropping it is not an edit the document may commit.
	optional, anchor string
}

type editKind int

const (
	setOK editKind = iota
	setBad
	insertRep
	deleteRep
	dropOpt
	restoreOpt
)

// editor applies a seeded, size-balanced stream of edits to a document
// and revalidates each through Caster.ValidateModifiedStats. Its node
// model is the committed state: a valid quantity, an insert, a delete and
// a drop or restore of the optional element commit; an out-of-range
// quantity is checked and rolled back. Every committed state stays valid
// under the source schema, the precondition of the modified cast.
type editor struct {
	spec   editSpec
	rng    *rand.Rand
	model  *node
	doc    *revalidate.Document // built from model, no edit marks yet
	caster *revalidate.Caster
	oracle *revalidate.Schema // target, in its own universe

	base, count int   // repeated children at start and now
	dropped     *node // optional element awaiting restore
	dropParent  *node
	restoreIn   int
}

func newEditor(p schemaPair, model *node, doc *revalidate.Document, seed int64) (*editor, error) {
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(p.src)
	if err != nil {
		return nil, err
	}
	dst, err := u.LoadXSDString(p.dst)
	if err != nil {
		return nil, err
	}
	c, err := revalidate.NewCaster(src, dst)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(p)
	if err != nil {
		return nil, err
	}
	if doc == nil {
		doc = model.document()
	}
	e := &editor{spec: p.edits, rng: rand.New(rand.NewSource(seed)), model: model, doc: doc, caster: c, oracle: orc.dst}
	e.base = len(e.reps(nil))
	e.count = e.base
	return e, nil
}

// rep is a repeated child and the container holding it.
type rep struct{ parent, n *node }

// reps lists every repeated child; with parent set, only its children.
func (e *editor) reps(parent *node) []rep {
	var out []rep
	var walk func(n *node)
	walk = func(n *node) {
		if strings.HasPrefix(n.label, e.spec.container) {
			for _, k := range n.kids {
				if k.label == e.spec.repeated {
					out = append(out, rep{n, k})
				}
			}
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	if parent != nil {
		walk(parent)
	} else {
		walk(e.model)
	}
	return out
}

// path returns the child indices from the model root to target.
func (e *editor) path(target *node) []int {
	var path []int
	var find func(n *node) bool
	find = func(n *node) bool {
		if n == target {
			return true
		}
		for i, k := range n.kids {
			path = append(path, i)
			if find(k) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	find(e.model)
	return path
}

func (e *editor) at(target *node) revalidate.Elem {
	el := e.doc.Root()
	for _, i := range e.path(target) {
		el = el.Child(i)
	}
	return el
}

// stepTimes splits one edit step: the EditSession calls plus Done, then
// the modified cast; full is the oracle's full validation of the result.
type stepTimes struct {
	edit, cast, full time.Duration
	changes          int
	visited, nodes   int64
}

func (e *editor) choose() editKind {
	if e.dropped != nil {
		if e.restoreIn == 0 {
			return restoreOpt
		}
		e.restoreIn--
	}
	// 45% valid quantities, 20% out-of-range ones, 30% inserts or
	// deletes, 5% drops of the optional element (valid quantities when
	// the source requires it). While the element is missing every cast
	// rejects at the root at a fraction of the usual cost; drops stay rare
	// so those cheap casts never come near half of a window and the median
	// stays inside the class of ordinary edits.
	switch r := e.rng.Intn(20); {
	case r < 9:
		return setOK
	case r < 13:
		return setBad
	case r < 19:
		if e.count < e.base || (e.count == e.base && e.rng.Intn(2) == 0) {
			return insertRep
		}
		return deleteRep
	case e.spec.optional != "" && e.dropped == nil:
		return dropOpt
	default:
		return setOK
	}
}

// newRep returns a fresh repeated child shaped like an existing one.
func (e *editor) newRep(like *node) *node {
	c := like.clone()
	q, _ := c.child("quantity")
	q.text = fmt.Sprint(1 + e.rng.Intn(99))
	return c
}

// step applies one edit and revalidates. It reports the step's timings,
// whether the modified cast agreed with full validation, and errors only
// for a broken edit stream.
func (e *editor) step(sp *spanLog) (stepTimes, bool, error) {
	kind := e.choose()
	all := e.reps(nil)
	r := all[e.rng.Intn(len(all))]
	var (
		target   revalidate.Elem
		subtree  revalidate.Elem
		commit   func() // bookkeeping for edits the model keeps
		rollback func() // set for edits that are checked but not committed
		apply    func(es *revalidate.EditSession) error
	)
	switch kind {
	case setOK, setBad:
		q, _ := r.n.child("quantity")
		v := fmt.Sprint(1 + e.rng.Intn(99))
		if kind == setBad {
			v = fmt.Sprint(e.spec.badMin + e.rng.Intn(100))
		}
		target = e.at(q)
		apply = func(es *revalidate.EditSession) error { return es.SetValue(target, v) }
		old := q.text
		q.text = v
		if kind == setBad {
			rollback = func() { q.text = old }
		}
	case insertRep:
		n := e.newRep(r.n)
		target, subtree = e.at(r.n), n.elem()
		apply = func(es *revalidate.EditSession) error { return es.InsertAfter(target, subtree) }
		i := indexOf(r.parent, r.n)
		r.parent.kids = append(r.parent.kids[:i+1], append([]*node{n}, r.parent.kids[i+1:]...)...)
		commit = func() { e.count++ }
	case deleteRep:
		if len(e.reps(r.parent)) < 2 {
			return e.step(sp) // keep one per container; draw again
		}
		target = e.at(r.n)
		apply = func(es *revalidate.EditSession) error { return es.Delete(target) }
		i := indexOf(r.parent, r.n)
		r.parent.kids = append(r.parent.kids[:i], r.parent.kids[i+1:]...)
		commit = func() { e.count-- }
	case dropOpt:
		parent := e.optParent()
		opt, i := parent.child(e.spec.optional)
		target = e.at(opt)
		apply = func(es *revalidate.EditSession) error { return es.Delete(target) }
		parent.kids = append(parent.kids[:i], parent.kids[i+1:]...)
		commit = func() { e.dropped, e.dropParent, e.restoreIn = opt, parent, e.rng.Intn(3) }
	case restoreOpt:
		anchor, i := e.dropParent.child(e.spec.anchor)
		target, subtree = e.at(anchor), e.dropped.elem()
		apply = func(es *revalidate.EditSession) error { return es.InsertAfter(target, subtree) }
		p := e.dropParent
		p.kids = append(p.kids[:i+1], append([]*node{e.dropped}, p.kids[i+1:]...)...)
		commit = func() { e.dropped, e.dropParent = nil, nil }
	}

	// The timed region: the edit session and the modified cast.
	var st stepTimes
	var root, editID, castID int32
	if sp != nil {
		root = sp.begin("edit.step", -1)
		editID = sp.begin("update.edit", root)
	}
	t0 := time.Now()
	es := e.doc.Edit()
	if err := apply(es); err != nil {
		return st, false, fmt.Errorf("edit %d: %w", kind, err)
	}
	cs := es.Done()
	t1 := time.Now()
	if sp != nil {
		sp.end(editID)
		castID = sp.begin("cast.modified", root)
	}
	stats, castErr := e.caster.ValidateModifiedStats(e.doc, cs)
	t2 := time.Now()
	if sp != nil {
		sp.end(castID)
		sp.end(root)
	}
	st.edit, st.cast = t1.Sub(t0), t2.Sub(t1)
	st.changes, st.visited = cs.Size(), stats.NodesVisited()

	// Outside the timed region: full validation of the edited state,
	// built fresh from the model, is the oracle.
	after := e.model.document()
	st.nodes = int64(after.NodeCount())
	var fullID int32
	if sp != nil {
		fullID = sp.begin("baseline.full", -1)
	}
	start := time.Now()
	_, fullErr := e.oracle.ValidateFull(after)
	st.full = time.Since(start)
	if sp != nil {
		sp.end(fullID)
	}
	ok := (castErr == nil) == (fullErr == nil)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: edit %d: modified cast says %v, full validation says %v\n", kind, castErr, fullErr)
	}
	if rollback != nil {
		rollback()
		after = e.model.document()
	}
	if commit != nil {
		commit()
	}
	e.doc = after
	return st, ok, nil
}

// optParent returns a random model node that holds the optional element.
func (e *editor) optParent() *node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		if _, i := n.child(e.spec.optional); i >= 0 {
			out = append(out, n)
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(e.model)
	return out[e.rng.Intn(len(out))]
}

func indexOf(parent, n *node) int {
	for i, k := range parent.kids {
		if k == n {
			return i
		}
	}
	return -1
}

const (
	gcEvery         = 4   // edit steps between forced collections
	inProcessProbes = 400 // first-verdict probes on edit-revalidate
)

// run steps the editor until the deadline (or max steps, when > 0).
func (e *editor) run(seconds float64, max int, blocks bool, sp *spanLog, t *tally) (lat timeline, traced samples, steps []stepTimes, err error) {
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(until) && (max <= 0 || i < max); i++ {
		if i%gcEvery == 0 {
			// Most garbage is the oracle's and the model rebuild's;
			// collecting it here keeps the collector off the timed edits
			// and the process's peak RSS independent of pacer timing.
			runtime.GC()
		}
		on := !blocks || (time.Since(start)/blockPeriod)%2 == 1
		var log *spanLog
		if on {
			log = sp
		}
		st, ok, err := e.step(log)
		if err != nil {
			return lat, nil, nil, err
		}
		t.attempted++
		if !ok {
			t.failed++
			t.mismatched++
			continue
		}
		if log != nil {
			traced = append(traced, st.edit+st.cast)
		} else {
			lat.add(time.Since(start), st.edit+st.cast)
		}
		steps = append(steps, st)
	}
	return lat, traced, steps, nil
}

// runEdit is the edit-revalidate workload: one goroutine, in process,
// editing a 2000-item purchase order valid under Figure 1a and casting
// each edited state to Figure 2 with the modified cast.
func runEdit(cfg config) (*outcome, error) {
	p := skimPair
	model := purchaseOrder(rand.New(rand.NewSource(cfg.seed)), 2000, true)
	body := model.xml()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setup samples
	var parsed *revalidate.Document
	for r := 0; r < reps; r++ {
		f := hostFactor()
		start := time.Now()
		u := revalidate.NewUniverse()
		src, err := u.LoadXSDString(p.src)
		if err != nil {
			return nil, err
		}
		dst, err := u.LoadXSDString(p.dst)
		if err != nil {
			return nil, err
		}
		if _, err := revalidate.NewCaster(src, dst); err != nil {
			return nil, err
		}
		if parsed, err = revalidate.ParseDocument(bytes.NewReader(body)); err != nil {
			return nil, err
		}
		setup = append(setup, scaled(time.Since(start), f))
		// Collect each repetition's garbage, so the process's peak RSS
		// does not depend on when the collector happened to run.
		runtime.GC()
	}
	orc, err := newOracle(p)
	if err != nil {
		return nil, err
	}
	if err := checkDocs(orc, []doc{{body: body, size: 2000, valid: true}}); err != nil {
		return nil, err
	}
	ed, err := newEditor(p, model, parsed, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if cfg.trace {
		return traceEdit(cfg, out, ed)
	}
	// First verdicts in process: a new version of the target arrives as
	// text; load both schemas, build the caster, cast the current document.
	// As on the served workloads, the probes run between loop segments, and
	// the host factor measured after a segment scales it and its probes.
	var (
		lat     timeline
		total   time.Duration // on the reference host's clock
		fv      samples
		factors []float64
		k       int
	)
	segments := segmentCount(cfg.seconds)
	for seg := 1; seg <= segments; seg++ {
		start := time.Now()
		l, _, _, err := ed.run(cfg.seconds/float64(segments), 0, false, nil, &out.tally)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		f := hostFactor()
		factors = append(factors, f)
		l.scale(f)
		lat.merge(l, total)
		total += scaled(el, f)
		cur := ed.doc
		_, fullErr := ed.oracle.ValidateFull(cur)
		runtime.GC() // start the probes without the edit loop's garbage
		for ; k < seg*inProcessProbes/segments; k++ {
			start := time.Now()
			u := revalidate.NewUniverse()
			src, err := u.LoadXSDString(p.src)
			if err != nil {
				return nil, err
			}
			dst, err := u.LoadXSDString(reversion(p.dst, k))
			if err != nil {
				return nil, err
			}
			c, err := revalidate.NewCaster(src, dst)
			if err != nil {
				return nil, err
			}
			_, castErr := c.ValidateStats(cur)
			d := time.Since(start)
			out.attempted++
			if (castErr == nil) != (fullErr == nil) {
				out.failed++
				out.mismatched++
				continue
			}
			fv = append(fv, scaled(d, f))
		}
	}
	out.set("setup_s", setup.quantile(0.5).Seconds(), "s")
	out.set("cast_p50_ms", ms(lat.windowed(total, 0.5, 1)), "ms")
	out.set("cast_p99_ms", ms(lat.windowed(total, 0.99, 1000)), "ms")
	// Casts per second of cast time, per window: the oracle and the model
	// rebuild between casts are the benchmark's work, not the library's.
	var rates []float64
	for _, w := range lat.windows(total, lat.windowCount(total, 1)) {
		var busy time.Duration
		for _, l := range w {
			busy += l
		}
		if busy > 0 {
			rates = append(rates, float64(len(w))/busy.Seconds())
		}
	}
	out.set("cast_docs_per_s", medianFloat(rates), "1/s")
	out.notef("edit samples: %d over %.1fs on the reference clock (1 goroutine, in process)", len(lat.lat), total.Seconds())
	noteFactors(out, factors)
	out.set("first_verdict_p50_ms", ms(fv.quantile(0.5)), "ms")
	out.set("first_verdict_p90_ms", ms(fv.quantile(0.9)), "ms")
	out.set("peak_rss_mb", peakRSSMB("self"), "MB")
	return out, nil
}
