package stream

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/xmlscan"
	"repro/internal/xmlspace"
)

// sframe is the per-open-element state of the scanner-based full
// validator. Frames live in a pooled slice of values: pushing reuses the
// slot (and its retained text buffer) left by a previously popped frame,
// so steady-state validation allocates nothing per element.
type sframe struct {
	t        *schema.Type
	dfaState int
	text     []byte
}

// vstate is the pooled per-validation state of the full validator.
type vstate struct {
	stack []sframe
}

var vstatePool = sync.Pool{New: func() any { return new(vstate) }}

// pushSFrame appends a frame for t, reusing slot capacity (including the
// slot's text buffer) when available.
func pushSFrame(stack []sframe, t *schema.Type) []sframe {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, sframe{})
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

// validateScan is the scanner-backed body of Validator.Validate and
// Validator.ValidateContext: same verdicts and statistics as validateStd,
// built on xmlscan events instead of encoding/xml tokens.
func (v *Validator) validateScan(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
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
			stack = pushSFrame(stack, v.S.TypeOf(τ))
		case xmlscan.EventEnd:
			if len(stack) == 0 {
				// Unreachable through the scanner (it enforces tag
				// matching), but the walker owns its own invariant.
				return st, fmt.Errorf("stream: unexpected end element </%s>", sc.Name())
			}
			f := &stack[len(stack)-1]
			err := v.closeScanFrame(f, &st)
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

func (v *Validator) closeScanFrame(f *sframe, st *Stats) error {
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
