// Package stream validates XML directly from a token stream, without
// materializing a document tree. Memory is proportional to document depth.
//
// Two validators are provided:
//
//   - Validator: full validation against one schema (the streaming
//     counterpart of package baseline).
//   - Caster: streaming schema cast validation — the §3.2 algorithm over
//     SAX-style events. A subtree whose (source, target) type pair is
//     subsumed is *skimmed*: its tokens are consumed with no automaton
//     steps, no facet checks and no per-node work beyond depth tracking;
//     a disjoint pair rejects immediately. Content models are checked with
//     the §4 immediate decision automata, so a model check can conclude
//     (accept) before the remaining children arrive.
//
// Unlike the tree engine, a streaming caster cannot avoid *reading* skipped
// input, but it avoids all validation work for it and most tokenizing:
// xmlscan.SkimSubtree walks the skipped bytes in its read window, checking
// well-formedness without producing events, and falls back to the
// per-token scanner only for markup it does not take whole.
package stream

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmlspace"
)

// Stats counts streaming validation work. It is the work counter every
// engine shares; the stream engines fill ElementsSkimmed and ValuesChecked
// where the tree engines fill TextNodesVisited.
type Stats = work.Stats

// Validator performs full streaming validation against one schema.
type Validator struct {
	S *schema.Schema

	stdXML bool
}

// NewValidator returns a streaming validator for a compiled schema. By
// default it tokenizes with the byte-level scanner (package xmlscan);
// WithEncodingXML selects the retained encoding/xml path instead.
func NewValidator(s *schema.Schema, opts ...Option) *Validator {
	if !s.Compiled() {
		panic("stream: schema must be compiled")
	}
	return &Validator{S: s, stdXML: buildOptions(opts).stdXML}
}

// frame is the per-open-element state of the full validator.
type frame struct {
	t        *schema.Type
	dfaState int
	text     strings.Builder
}

// Validate reads one XML document from r and validates it.
func (v *Validator) Validate(r io.Reader) (Stats, error) {
	return v.ValidateContext(context.Background(), r, Limits{})
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits, mirroring Caster.ValidateContext: the walker polls ctx.Done()
// every cancelCheckEvery tokens, and a document exceeding lim's depth or
// element bounds is rejected with a *LimitError. The zero Limits is
// unlimited.
func (v *Validator) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
	if v.stdXML {
		return v.validateStd(ctx, r, lim)
	}
	return v.validateScan(ctx, r, lim)
}

// validateStd is the encoding/xml-backed body of Validate, kept as the
// reference the differential fuzz targets compare the scanner against.
func (v *Validator) validateStd(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
	var st Stats
	dec := xml.NewDecoder(r)
	var stack []*frame
	rootSeen := false
	firstToken := true
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
			label := t.Name.Local
			var τ schema.TypeID
			if len(stack) == 0 {
				if rootSeen {
					return st, fmt.Errorf("stream: multiple root elements")
				}
				rootSeen = true
				τ = v.S.RootType(label)
				if τ == schema.NoType {
					return st, fmt.Errorf("stream: label %q is not a permitted root", label)
				}
			} else {
				parent := stack[len(stack)-1]
				if parent.t.Simple {
					return st, fmt.Errorf("stream: element %q inside simple content", label)
				}
				sym := v.S.Alpha.Lookup(label)
				if sym == fa.NoSymbol {
					return st, fmt.Errorf("stream: label %q unknown to the schema", label)
				}
				parent.dfaState = parent.t.DFA.Step(parent.dfaState, sym)
				st.AutomatonSteps++
				if parent.dfaState == fa.Dead {
					return st, fmt.Errorf("stream: child %q not allowed by content model of %q", label, parent.t.Name)
				}
				var ok bool
				τ, ok = parent.t.Child[sym]
				if !ok {
					return st, fmt.Errorf("stream: label %q has no child type under %q", label, parent.t.Name)
				}
			}
			st.ElementsVisited++
			if err := lim.checkDepth(len(stack) + 1); err != nil {
				return st, err
			}
			if err := lim.checkElements(st.ElementsVisited); err != nil {
				return st, err
			}
			st.NoteDepth(len(stack))
			tt := v.S.TypeOf(τ)
			f := &frame{t: tt}
			if !tt.Simple {
				f.dfaState = tt.DFA.Start()
			}
			stack = append(stack, f)
		case xml.EndElement:
			if len(stack) == 0 {
				// Unreachable while encoding/xml enforces tag matching,
				// but the invariant belongs to the walker, not the
				// tokenizer.
				return st, fmt.Errorf("stream: unexpected end element </%s>", t.Name.Local)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := v.closeFrame(f, &st); err != nil {
				return st, err
			}
		case xml.CharData:
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
			if xmlspace.Blank(text) && !f.t.Simple {
				continue // inter-element whitespace
			}
			if !f.t.Simple {
				return st, fmt.Errorf("stream: text content under element-only type %q", f.t.Name)
			}
			f.text.WriteString(text)
		}
	}
	if !rootSeen {
		return st, fmt.Errorf("stream: no root element")
	}
	return st, nil
}

func (v *Validator) closeFrame(f *frame, st *Stats) error {
	if f.t.Simple {
		st.ValuesChecked++
		if !f.t.Value.AcceptsValue(f.text.String()) {
			return fmt.Errorf("stream: value %q does not satisfy simple type %q (%s)",
				f.text.String(), f.t.Name, f.t.Value)
		}
		return nil
	}
	if !f.t.DFA.IsAccept(f.dfaState) {
		return fmt.Errorf("stream: children do not complete content model of %q", f.t.Name)
	}
	return nil
}
