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
	"fmt"
	"io"
	"sync"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmlscan"
	"repro/internal/xmlspace"
)

// Stats counts streaming validation work. It is the work counter every
// engine shares; the stream engines fill ElementsSkimmed and ValuesChecked
// where the tree engines fill TextNodesVisited.
type Stats = work.Stats

// Validator performs full streaming validation against one schema.
type Validator struct {
	S *schema.Schema
}

// NewValidator returns a streaming validator for a compiled schema.
func NewValidator(s *schema.Schema) *Validator {
	if !s.Compiled() {
		panic("stream: schema must be compiled")
	}
	return &Validator{S: s}
}

// Validate reads one XML document from r and validates it.
func (v *Validator) Validate(r io.Reader) (Stats, error) {
	return v.ValidateContext(context.Background(), r, Limits{})
}

// frame is the per-open-element state of the full validator. Frames live
// in a pooled slice of values: pushing reuses the slot (and its retained
// text buffer) left by a previously popped frame, so steady-state
// validation allocates nothing per element.
type frame struct {
	t        *schema.Type
	dfaState int
	text     []byte
}

// vstate is the pooled per-validation state of the full validator.
type vstate struct {
	stack []frame
}

var vstatePool = sync.Pool{New: func() any { return new(vstate) }}

// pushFrame appends a frame for t, reusing slot capacity (including the
// slot's text buffer) when available.
func pushFrame(stack []frame, t *schema.Type) []frame {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, frame{})
	}
	f := &stack[len(stack)-1]
	f.t = t
	f.text = f.text[:0]
	f.dfaState = 0
	if !t.Simple {
		f.dfaState = t.DFA.Start()
	}
	return stack
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits, mirroring Caster.ValidateContext: the walker polls ctx.Done()
// every cancelCheckEvery tokens, and a document exceeding lim's depth or
// element bounds is rejected with a *LimitError. The zero Limits is
// unlimited.
func (v *Validator) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
	var st Stats
	sc := xmlscan.Get(r)
	defer sc.Release()
	vs := vstatePool.Get().(*vstate)
	stack := vs.stack[:0]
	defer func() {
		vs.stack = stack
		vstatePool.Put(vs)
	}()
	rootSeen := false
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
			var τ schema.TypeID
			if len(stack) == 0 {
				if rootSeen {
					return st, fmt.Errorf("stream: multiple root elements")
				}
				rootSeen = true
				τ = v.S.RootTypeSym(v.S.Alpha.LookupBytes(label))
				if τ == schema.NoType {
					return st, fmt.Errorf("stream: label %q is not a permitted root", label)
				}
			} else {
				parent := &stack[len(stack)-1]
				if parent.t.Simple {
					return st, fmt.Errorf("stream: element %q inside simple content", label)
				}
				sym := v.S.Alpha.LookupBytes(label)
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
			stack = pushFrame(stack, v.S.TypeOf(τ))
		case xmlscan.EventEnd:
			if len(stack) == 0 {
				// Unreachable through the scanner (it enforces tag
				// matching), but the walker owns its own invariant.
				return st, fmt.Errorf("stream: unexpected end element </%s>", sc.Name())
			}
			f := &stack[len(stack)-1]
			err := v.closeFrame(f, &st)
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
			if !f.t.Simple {
				if xmlspace.Blank(text) {
					continue // inter-element whitespace
				}
				return st, fmt.Errorf("stream: text content under element-only type %q", f.t.Name)
			}
			f.text = append(f.text, text...)
		}
	}
}

func (v *Validator) closeFrame(f *frame, st *Stats) error {
	if f.t.Simple {
		st.ValuesChecked++
		if !f.t.Value.AcceptsBytes(f.text) {
			return fmt.Errorf("stream: value %q does not satisfy simple type %q (%s)",
				f.text, f.t.Name, f.t.Value)
		}
		return nil
	}
	if !f.t.DFA.IsAccept(f.dfaState) {
		return fmt.Errorf("stream: children do not complete content model of %q", f.t.Name)
	}
	return nil
}
