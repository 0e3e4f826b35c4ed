package stream

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/telemetry"
	"repro/internal/xmlscan"
	"repro/internal/xmlspace"
)

// Caster performs streaming schema cast validation: the incoming document
// is known to satisfy the source schema, and the stream decides validity
// under the target schema, skimming subsumed subtrees and rejecting at the
// first disjoint pair.
//
// After NewCaster, a Caster is immutable and safe for concurrent use:
// content-model IDAs for every type pair reachable from the shared roots
// are precomputed eagerly (no first-document latency spike), and any
// on-demand pair goes through the table's lock-free copy-on-write
// overflow, so concurrent validations never contend on a mutex. The walk
// resolves elements through child dispatch tables compiled from the same
// pairs (see childTable).
type Caster struct {
	Src, Dst *schema.Schema
	Rel      *subsume.Relations

	casters *castmap.Table
	roots   *childTable
}

// NewCaster preprocesses a compiled (source, target) pair sharing one
// alphabet.
func NewCaster(src, dst *schema.Schema) (*Caster, error) {
	rel, err := subsume.Compute(src, dst)
	if err != nil {
		return nil, err
	}
	return NewCasterFrom(src, dst, rel, castmap.New(src, dst, rel, true)), nil
}

// NewCasterFrom builds a streaming caster from preprocessing another
// component already paid for: rel and table must come from the same
// compiled (src, dst) pair (e.g. a cast.Engine). The daemon uses this to
// hold one set of relations and IDAs per schema pair shared by the tree
// and streaming validation modes.
func NewCasterFrom(src, dst *schema.Schema, rel *subsume.Relations, table *castmap.Table) *Caster {
	return &Caster{Src: src, Dst: dst, Rel: rel, casters: table,
		roots: buildDispatch(src, dst, rel, table)}
}

// CasterSizes reports the caster's content-model footprint: caster count
// and total c_immed IDA states.
func (c *Caster) CasterSizes() (casters, idaStates int) {
	return c.casters.Sizes()
}

func (c *Caster) contentIDA(τ, τp schema.TypeID) *fa.IDA {
	return c.casters.Get(τ, τp).CImmed
}

// PrecomputedCasters reports how many content-model cast automata the
// caster holds; diagnostics for the preprocessing benchmarks.
func (c *Caster) PrecomputedCasters() int {
	return c.casters.Len()
}

// traceCtx tracks where the stream currently is — open-element labels and
// the Dewey number of the innermost open element — so trace events can be
// tagged with paths. Allocated only in trace mode; the hot path carries a
// nil pointer. The stream's Dewey numbers count element children only
// (text nodes never open frames), which can differ from the tree engine's
// Dewey numbers on mixed-content documents.
type traceCtx struct {
	labels []string // open element labels, root first
	dewey  []int    // Dewey number of the innermost open element
	childN []int    // per open frame: element children seen so far
}

// locate returns the path and Dewey string of a child of the innermost open
// element (or of the root when nothing is open), given its child index.
func (tc *traceCtx) locate(label string, idx int) (path, dewey string) {
	path = "/" + label
	if len(tc.labels) > 0 {
		path = "/" + strings.Join(tc.labels, "/") + "/" + label
	}
	parts := make([]string, 0, len(tc.dewey)+1)
	for _, d := range tc.dewey {
		parts = append(parts, strconv.Itoa(d))
	}
	if len(tc.labels) > 0 {
		parts = append(parts, strconv.Itoa(idx))
	}
	if len(parts) == 0 {
		return path, "ε"
	}
	return path, strings.Join(parts, ".")
}

// Validate reads one XML document — assumed valid under the source schema —
// from r and decides validity under the target schema.
func (c *Caster) Validate(r io.Reader) (Stats, error) {
	return c.validate(context.Background(), r, nil, Limits{})
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits: the walker polls ctx.Done() every cancelCheckEvery tokens (so
// the hot path stays lock-free and a canceled cast stops within one check
// interval), and a document exceeding lim's depth or element bounds is
// rejected with a *LimitError. The zero Limits is unlimited.
func (c *Caster) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
	return c.validate(ctx, r, nil, lim)
}

// ValidateTrace is Validate in trace mode: each skim, reject and descend
// decision is recorded into tr with the element's path, Dewey number and
// (τ, τ') pair. Trace mode allocates path-tracking state the hot path never
// touches.
func (c *Caster) ValidateTrace(r io.Reader, tr *telemetry.Trace) (Stats, error) {
	return c.validate(context.Background(), r, tr, Limits{})
}

// ValidateTraceContext is ValidateTrace with the cancellation and limit
// behavior of ValidateContext.
func (c *Caster) ValidateTraceContext(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (Stats, error) {
	return c.validate(ctx, r, tr, lim)
}

// traceEvent builds one decision event for the element named label, the
// idx-th element child of the innermost open frame, at the given depth.
func (c *Caster) traceEvent(a telemetry.Action, tc *traceCtx, label string, idx, depth int, τ, τp schema.TypeID, detail string) telemetry.Event {
	path, dewey := tc.locate(label, idx)
	ev := telemetry.Event{Action: a, Path: path, Dewey: dewey, Depth: depth, Detail: detail}
	if τ != schema.NoType {
		ev.SrcType = c.Src.TypeOf(τ).Name
	}
	if τp != schema.NoType {
		ev.DstType = c.Dst.TypeOf(τp).Name
	}
	return ev
}

// castFrame is the per-open-element state of the streaming caster; the
// value-slot pooling story matches frame. children is the frame's pair's
// dispatch table and last its position of the previous match there.
type castFrame struct {
	tS, tD   *schema.Type
	children *childTable
	last     int
	// ida scans the children word through c_immed; once it immediately
	// accepts, contentDone is set and no more steps are taken (the model
	// check is settled even though children keep arriving and are still
	// cast individually). When the source type is simple (no source
	// knowledge about element children), ida is nil and idaState runs the
	// plain target DFA instead.
	ida         *fa.IDA
	idaState    int
	contentDone bool
	text        []byte
}

// cstate is the pooled per-validation state of the streaming caster.
type cstate struct {
	stack []castFrame
}

var cstatePool = sync.Pool{New: func() any { return new(cstate) }}

// validate is the body of every Validate variant: it walks xmlscan events,
// resolving each element through its parent pair's dispatch table, and
// hands subsumed subtrees to the scanner's native SkimSubtree instead of
// walking their tokens one by one.
func (c *Caster) validate(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (Stats, error) {
	var st Stats
	sc := xmlscan.Get(r)
	defer sc.Release()
	cs := cstatePool.Get().(*cstate)
	stack := cs.stack[:0]
	defer func() {
		cs.stack = stack
		cstatePool.Put(cs)
	}()
	rootSeen := false
	var tc *traceCtx
	if tr != nil {
		tc = &traceCtx{}
	}
	// done is nil for context.Background(), making every cancellation check
	// a no-op branch; countdown amortizes the channel poll. Skimmed
	// elements draw from the same budget (SkimSubtree pauses when it is
	// spent), so a canceled validation stops within one interval of
	// elements no matter how they were consumed.
	done := ctx.Done()
	countdown := cancelCheckEvery

	for {
		if done != nil {
			countdown--
			if countdown <= 0 {
				countdown = cancelCheckEvery
				select {
				case <-done:
					return st, fmt.Errorf("stream: validation canceled after %d elements: %w",
						st.ElementsVisited+st.ElementsSkimmed, context.Cause(ctx))
				default:
				}
			}
		}
		ev, err := sc.Next()
		if err != nil {
			return st, fmt.Errorf("stream: %w", err)
		}
		switch ev {
		case xmlscan.EventEOF:
			if !rootSeen {
				return st, fmt.Errorf("stream: no root element")
			}
			return st, nil
		case xmlscan.EventStart:
			label := sc.Name()
			childIdx := 0
			if tc != nil && len(tc.childN) > 0 {
				childIdx = tc.childN[len(tc.childN)-1]
				tc.childN[len(tc.childN)-1]++
			}
			// Resolve the element through the parent pair's dispatch table.
			// A miss is always an error; the map-based code words it.
			var e *childEntry
			if len(stack) == 0 {
				if rootSeen {
					return st, fmt.Errorf("stream: multiple root elements")
				}
				rootSeen = true
				rootLast := 0
				if e = c.roots.find(label, &rootLast); e == nil {
					return st, c.rootMiss(label)
				}
			} else {
				parent := &stack[len(stack)-1]
				if e = parent.children.find(label, &parent.last); e == nil {
					return st, c.childMiss(parent, label, &st)
				}
				if err := parent.step(e.sym, label, &st); err != nil {
					return st, err
				}
			}
			st.ElementsVisited++
			if err := lim.checkDepth(len(stack) + 1); err != nil {
				return st, err
			}
			if err := lim.checkElements(st.ElementsVisited + st.ElementsSkimmed); err != nil {
				return st, err
			}
			st.NoteDepth(len(stack))
			if e.verdict == skimChild {
				st.SubsumedSkips++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionSkip, tc, string(label), childIdx, len(stack), e.src, e.dst,
						"subsumed: subtree target-valid, skimming"))
				}
				// Everything below is target-valid: let the scanner skim
				// it natively, pausing whenever the cancellation budget
				// runs out.
				base := sc.Depth()
				for {
					chunk := 0
					if done != nil {
						chunk = countdown
					}
					res, skimErr := sc.SkimSubtree(xmlscan.SkimLimits{
						BaseOpen:         base,
						MaxOpen:          lim.MaxDepth,
						MaxTotalElements: lim.MaxElements,
						BaseElements:     st.ElementsVisited + st.ElementsSkimmed,
						ChunkElements:    chunk,
					})
					st.ElementsSkimmed += res.Elements
					if done != nil {
						// Skimmed elements draw down the same poll budget
						// as walked ones; a ≤0 remainder polls on the next
						// event.
						countdown -= int(res.Elements)
					}
					if res.MaxOpen > 0 {
						st.NoteDepth(res.MaxOpen - 1)
					}
					if skimErr != nil {
						switch skimErr {
						case xmlscan.ErrSkimDepth:
							return st, &LimitError{Kind: "depth", Limit: int64(lim.MaxDepth)}
						case xmlscan.ErrSkimElements:
							return st, &LimitError{Kind: "elements", Limit: lim.MaxElements}
						}
						return st, fmt.Errorf("stream: %w", skimErr)
					}
					if res.Done {
						break
					}
					// Paused: the skim consumed the rest of this check
					// interval's budget.
					countdown = cancelCheckEvery
					select {
					case <-done:
						return st, fmt.Errorf("stream: validation canceled after %d elements: %w",
							st.ElementsVisited+st.ElementsSkimmed, context.Cause(ctx))
					default:
					}
				}
				continue
			}
			if e.verdict == rejectChild {
				st.DisjointRejects++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionReject, tc, string(label), childIdx, len(stack), e.src, e.dst,
						"disjoint: no source-valid subtree satisfies the target type"))
				}
				return st, fmt.Errorf("stream: source type %q is disjoint from target type %q",
					e.tS.Name, e.tD.Name)
			}
			stack = pushCastFrame(stack, c, e)
			f := &stack[len(stack)-1]
			if tr != nil {
				action, detail := telemetry.ActionDescend, "neither subsumed nor disjoint: validating content"
				if f.tD.Simple {
					action, detail = telemetry.ActionSimple, "simple target type: value checked at close"
				}
				tr.Record(c.traceEvent(action, tc, string(label), childIdx, len(stack)-1, e.src, e.dst, detail))
			}
			if tc != nil {
				if len(tc.labels) > 0 {
					tc.dewey = append(tc.dewey, childIdx)
				}
				tc.labels = append(tc.labels, string(label))
				tc.childN = append(tc.childN, 0)
			}
		case xmlscan.EventEnd:
			if len(stack) == 0 {
				// Unreachable through the scanner (it enforces tag
				// matching), but the walker owns its own invariant.
				return st, fmt.Errorf("stream: unexpected end element </%s>", sc.Name())
			}
			f := &stack[len(stack)-1]
			if tc != nil {
				tc.labels = tc.labels[:len(tc.labels)-1]
				tc.childN = tc.childN[:len(tc.childN)-1]
				if len(tc.dewey) > 0 {
					tc.dewey = tc.dewey[:len(tc.dewey)-1]
				}
			}
			err := c.closeFrame(f, &st)
			stack = stack[:len(stack)-1]
			if err != nil {
				return st, err
			}
		case xmlscan.EventText:
			text := sc.Text()
			if len(stack) == 0 {
				if xmlspace.Blank(text) {
					continue // inter-element whitespace around the root
				}
				return st, fmt.Errorf("stream: text outside the root element")
			}
			f := &stack[len(stack)-1]
			if !f.tD.Simple {
				if xmlspace.Blank(text) {
					continue
				}
				return st, fmt.Errorf("stream: text content under element-only target type %q", f.tD.Name)
			}
			f.text = append(f.text, text...)
		}
	}
}

// pushCastFrame appends a frame for the pair e names, reusing slot
// capacity (including the slot's text buffer) when available.
func pushCastFrame(stack []castFrame, c *Caster, e *childEntry) []castFrame {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, castFrame{})
	}
	f := &stack[len(stack)-1]
	f.tS, f.tD = e.tS, e.tD
	f.children, f.last = e.children, 0
	f.ida = nil
	f.idaState = 0
	f.contentDone = false
	f.text = f.text[:0]
	if !f.tD.Simple {
		if f.tS.Simple {
			// No source knowledge about element children: scan the plain
			// target DFA.
			f.idaState = f.tD.DFA.Start()
		} else {
			f.ida = e.ida
			if f.ida == nil {
				f.ida = c.contentIDA(e.src, e.dst)
			}
			f.idaState = f.ida.D.Start()
			if f.ida.Classify(f.idaState) == fa.ImmediateAccept {
				f.contentDone = true
			}
		}
	}
	return stack
}

// step feeds the child symbol sym to the frame's content-model automaton,
// counting the step (or the skipped symbol once the model is settled).
func (f *castFrame) step(sym fa.Symbol, label []byte, st *Stats) error {
	if f.contentDone {
		st.SymbolsSkipped++ // model verdict settled; symbol arrives unscanned
		return nil
	}
	st.AutomatonSteps++
	if f.ida != nil {
		f.idaState = f.ida.D.Step(f.idaState, sym)
		switch f.ida.Classify(f.idaState) {
		case fa.ImmediateAccept:
			f.contentDone = true
		case fa.ImmediateReject:
			return fmt.Errorf("stream: child %q not allowed by target content model of %q", label, f.tD.Name)
		}
		return nil
	}
	f.idaState = f.tD.DFA.Step(f.idaState, sym)
	if f.idaState == fa.Dead {
		return fmt.Errorf("stream: child %q not allowed by target content model of %q", label, f.tD.Name)
	}
	return nil
}

// rootMiss words the error for a root element the root table lacks: its
// label is not a root of the source schema, or not one of the target.
func (c *Caster) rootMiss(label []byte) error {
	sym := c.Src.Alpha.LookupBytes(label)
	if c.Src.RootTypeSym(sym) == schema.NoType {
		return fmt.Errorf("stream: cast contract violated: %q is not a source root", label)
	}
	if c.Dst.RootTypeSym(sym) == schema.NoType {
		return fmt.Errorf("stream: label %q is not a permitted root of the target schema", label)
	}
	return fmt.Errorf("stream: root %q missing from the dispatch table", label)
}

// childMiss words the error for a child element its parent's dispatch
// table lacks, through the alphabet and the types_τ maps: the same checks,
// in the same order and with the same counters, that resolved every child
// before the tables existed. Some check always fails for a label the
// table lacks, since the tables hold exactly the labels both types permit.
func (c *Caster) childMiss(parent *castFrame, label []byte, st *Stats) error {
	if parent.tD.Simple {
		return fmt.Errorf("stream: element %q under simple target type %q", label, parent.tD.Name)
	}
	sym := c.Src.Alpha.LookupBytes(label)
	if sym == fa.NoSymbol {
		return fmt.Errorf("stream: label %q unknown to the schemas", label)
	}
	if err := parent.step(sym, label, st); err != nil {
		return err
	}
	if τp, ok := parent.tD.Child[sym]; !ok || τp == schema.NoType {
		return fmt.Errorf("stream: label %q has no child type under target %q", label, parent.tD.Name)
	}
	if τ, ok := parent.tS.Child[sym]; parent.tS.Simple || !ok || τ == schema.NoType {
		return fmt.Errorf("stream: cast contract violated: no source child type for %q", label)
	}
	return fmt.Errorf("stream: child %q of %q missing from the dispatch table", label, parent.tD.Name)
}

func (c *Caster) closeFrame(f *castFrame, st *Stats) error {
	if f.tD.Simple {
		st.ValuesChecked++
		if !f.tD.Value.AcceptsBytes(f.text) {
			return fmt.Errorf("stream: value %q does not satisfy simple target type %q (%s)",
				f.text, f.tD.Name, f.tD.Value)
		}
		return nil
	}
	if f.contentDone {
		return nil
	}
	if f.ida != nil {
		if !f.ida.D.IsAccept(f.idaState) {
			return fmt.Errorf("stream: children do not complete target content model of %q", f.tD.Name)
		}
		return nil
	}
	// Plain target-DFA scan (source-simple case).
	if !f.tD.DFA.IsAccept(f.idaState) {
		return fmt.Errorf("stream: children do not complete target content model of %q", f.tD.Name)
	}
	return nil
}
