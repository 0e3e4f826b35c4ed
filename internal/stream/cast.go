package stream

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/telemetry"
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
// overflow, so concurrent validations never contend on a mutex. The
// scanner-backed walk resolves elements through child dispatch tables
// compiled from the same pairs (see childTable).
type Caster struct {
	Src, Dst *schema.Schema
	Rel      *subsume.Relations

	casters *castmap.Table
	roots   *childTable
	stdXML  bool
}

// NewCaster preprocesses a compiled (source, target) pair sharing one
// alphabet. By default validation tokenizes with the byte-level scanner
// (package xmlscan); WithEncodingXML selects the retained encoding/xml
// path instead.
func NewCaster(src, dst *schema.Schema, opts ...Option) (*Caster, error) {
	rel, err := subsume.Compute(src, dst)
	if err != nil {
		return nil, err
	}
	return NewCasterFrom(src, dst, rel, castmap.New(src, dst, rel, true), opts...), nil
}

// NewCasterFrom builds a streaming caster from preprocessing another
// component already paid for: rel and table must come from the same
// compiled (src, dst) pair (e.g. a cast.Engine). The daemon uses this to
// hold one set of relations and IDAs per schema pair shared by the tree
// and streaming validation modes.
func NewCasterFrom(src, dst *schema.Schema, rel *subsume.Relations, table *castmap.Table, opts ...Option) *Caster {
	return &Caster{Src: src, Dst: dst, Rel: rel, casters: table,
		roots: buildDispatch(src, dst, rel, table), stdXML: buildOptions(opts).stdXML}
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

// castFrame is the per-open-element state of the streaming caster.
type castFrame struct {
	tS, tD *schema.Type
	// ida scans the children word through c_immed; once it immediately
	// accepts, contentDone is set and no more steps are taken (the model
	// check is settled even though children keep arriving and are still
	// cast individually). When the source type is simple (no source
	// knowledge about element children), ida is nil and idaState runs the
	// plain target DFA instead.
	ida         *fa.IDA
	idaState    int
	contentDone bool
	text        strings.Builder
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

func (c *Caster) validate(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (Stats, error) {
	if c.stdXML {
		return c.validateStd(ctx, r, tr, lim)
	}
	return c.validateScan(ctx, r, tr, lim)
}

// validateStd is the encoding/xml-backed body of the streaming cast, kept
// as the reference the differential fuzz targets compare the scanner
// against.
func (c *Caster) validateStd(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (Stats, error) {
	var st Stats
	dec := xml.NewDecoder(r)
	var stack []*castFrame
	skimDepth := 0 // >0: inside a subsumed subtree, counting open elements
	rootSeen := false
	firstToken := true
	var tc *traceCtx
	if tr != nil {
		tc = &traceCtx{}
	}
	// done is nil for context.Background(), making every cancellation check
	// a no-op branch; countdown amortizes the channel poll.
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
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("stream: %w", err)
		}
		isFirst := firstToken
		firstToken = false
		switch t := tok.(type) {
		case xml.StartElement:
			if skimDepth > 0 {
				skimDepth++
				st.ElementsSkimmed++
				if err := lim.checkDepth(len(stack) + skimDepth); err != nil {
					return st, err
				}
				if err := lim.checkElements(st.ElementsVisited + st.ElementsSkimmed); err != nil {
					return st, err
				}
				st.NoteDepth(len(stack) + skimDepth - 1)
				continue
			}
			label := t.Name.Local
			childIdx := 0
			if tc != nil && len(tc.childN) > 0 {
				childIdx = tc.childN[len(tc.childN)-1]
				tc.childN[len(tc.childN)-1]++
			}
			var τ, τp schema.TypeID
			if len(stack) == 0 {
				if rootSeen {
					return st, fmt.Errorf("stream: multiple root elements")
				}
				rootSeen = true
				τ = c.Src.RootType(label)
				τp = c.Dst.RootType(label)
				if τ == schema.NoType {
					return st, fmt.Errorf("stream: cast contract violated: %q is not a source root", label)
				}
				if τp == schema.NoType {
					return st, fmt.Errorf("stream: label %q is not a permitted root of the target schema", label)
				}
			} else {
				parent := stack[len(stack)-1]
				if parent.tD.Simple {
					return st, fmt.Errorf("stream: element %q under simple target type %q", label, parent.tD.Name)
				}
				sym := c.Src.Alpha.Lookup(label)
				if sym == fa.NoSymbol {
					return st, fmt.Errorf("stream: label %q unknown to the schemas", label)
				}
				if parent.contentDone {
					st.SymbolsSkipped++ // model verdict settled; symbol arrives unscanned
				} else {
					st.AutomatonSteps++
					if parent.ida != nil {
						parent.idaState = parent.ida.D.Step(parent.idaState, sym)
						switch parent.ida.Classify(parent.idaState) {
						case fa.ImmediateAccept:
							parent.contentDone = true
						case fa.ImmediateReject:
							return st, fmt.Errorf("stream: child %q not allowed by target content model of %q",
								label, parent.tD.Name)
						}
					} else {
						parent.idaState = parent.tD.DFA.Step(parent.idaState, sym)
						if parent.idaState == fa.Dead {
							return st, fmt.Errorf("stream: child %q not allowed by target content model of %q",
								label, parent.tD.Name)
						}
					}
				}
				τp = schema.NoType
				if t, ok := parent.tD.Child[sym]; ok {
					τp = t
				}
				if τp == schema.NoType {
					return st, fmt.Errorf("stream: label %q has no child type under target %q", label, parent.tD.Name)
				}
				τ = schema.NoType
				if !parent.tS.Simple {
					if t, ok := parent.tS.Child[sym]; ok {
						τ = t
					}
				}
				if τ == schema.NoType {
					return st, fmt.Errorf("stream: cast contract violated: no source child type for %q", label)
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
			if c.Rel.Subsumed(τ, τp) {
				st.SubsumedSkips++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionSkip, tc, label, childIdx, len(stack), τ, τp,
						"subsumed: subtree target-valid, skimming"))
				}
				skimDepth = 1 // everything below is target-valid: skim it
				continue
			}
			if c.Rel.Disjoint(τ, τp) {
				st.DisjointRejects++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionReject, tc, label, childIdx, len(stack), τ, τp,
						"disjoint: no source-valid subtree satisfies the target type"))
				}
				return st, fmt.Errorf("stream: source type %q is disjoint from target type %q",
					c.Src.TypeOf(τ).Name, c.Dst.TypeOf(τp).Name)
			}
			f := &castFrame{tS: c.Src.TypeOf(τ), tD: c.Dst.TypeOf(τp)}
			if !f.tD.Simple {
				if f.tS.Simple {
					// No source knowledge about element children: scan the
					// plain target DFA.
					f.idaState = f.tD.DFA.Start()
				} else {
					f.ida = c.contentIDA(τ, τp)
					f.idaState = f.ida.D.Start()
					if f.ida.Classify(f.idaState) == fa.ImmediateAccept {
						f.contentDone = true
					}
				}
			}
			if tr != nil {
				action, detail := telemetry.ActionDescend, "neither subsumed nor disjoint: validating content"
				if f.tD.Simple {
					action, detail = telemetry.ActionSimple, "simple target type: value checked at close"
				}
				tr.Record(c.traceEvent(action, tc, label, childIdx, len(stack), τ, τp, detail))
			}
			if tc != nil {
				if len(tc.labels) > 0 {
					tc.dewey = append(tc.dewey, childIdx)
				}
				tc.labels = append(tc.labels, label)
				tc.childN = append(tc.childN, 0)
			}
			stack = append(stack, f)
		case xml.EndElement:
			if skimDepth > 0 {
				skimDepth--
				continue
			}
			if len(stack) == 0 {
				// Unreachable while encoding/xml enforces tag matching,
				// but the invariant belongs to the walker, not the
				// tokenizer.
				return st, fmt.Errorf("stream: unexpected end element </%s>", t.Name.Local)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if tc != nil {
				tc.labels = tc.labels[:len(tc.labels)-1]
				tc.childN = tc.childN[:len(tc.childN)-1]
				if len(tc.dewey) > 0 {
					tc.dewey = tc.dewey[:len(tc.dewey)-1]
				}
			}
			if err := c.closeFrame(f, &st); err != nil {
				return st, err
			}
		case xml.CharData:
			if skimDepth > 0 {
				continue
			}
			text := string(t)
			if isFirst {
				// The scanner path skips a leading byte-order mark;
				// encoding/xml surfaces it as text. Strip it so both
				// paths see the same document.
				text = strings.TrimPrefix(text, "\uFEFF")
			}
			if len(stack) == 0 {
				if xmlspace.Blank(text) {
					continue // inter-element whitespace around the root
				}
				return st, fmt.Errorf("stream: text outside the root element")
			}
			f := stack[len(stack)-1]
			if !f.tD.Simple {
				if xmlspace.Blank(text) {
					continue
				}
				return st, fmt.Errorf("stream: text content under element-only target type %q", f.tD.Name)
			}
			f.text.WriteString(text)
		}
	}
	if !rootSeen {
		return st, fmt.Errorf("stream: no root element")
	}
	return st, nil
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

func (c *Caster) closeFrame(f *castFrame, st *Stats) error {
	if f.tD.Simple {
		st.ValuesChecked++
		if !f.tD.Value.AcceptsValue(f.text.String()) {
			return fmt.Errorf("stream: value %q does not satisfy simple target type %q (%s)",
				f.text.String(), f.tD.Name, f.tD.Value)
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
