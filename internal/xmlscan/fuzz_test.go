package xmlscan_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/wgen"
	"repro/internal/xmlscan"
)

// walkResult is what one pass over a document observed.
type walkResult struct {
	elements int64
	maxDepth int
	err      error
}

func (w walkResult) String() string {
	return fmt.Sprintf("%d elements, depth %d, error %v", w.elements, w.maxDepth, w.err)
}

// checkStart applies lim's depth and element caps to a start tag the
// event walk produced, in SkimSubtree's order.
func (w *walkResult) checkStart(depth int, lim xmlscan.SkimLimits) bool {
	w.elements++
	if lim.MaxOpen > 0 && depth > lim.MaxOpen {
		w.err = xmlscan.ErrSkimDepth
		return false
	}
	if lim.MaxTotalElements > 0 && w.elements > lim.MaxTotalElements {
		w.err = xmlscan.ErrSkimElements
		return false
	}
	w.maxDepth = max(w.maxDepth, depth)
	return true
}

// walkEvents counts every start tag with Next.
func walkEvents(r io.Reader, lim xmlscan.SkimLimits) walkResult {
	var w walkResult
	s := xmlscan.NewScanner(r)
	for {
		ev, err := s.Next()
		if err != nil {
			w.err = err
			return w
		}
		switch ev {
		case xmlscan.EventEOF:
			return w
		case xmlscan.EventStart:
			if !w.checkStart(s.Depth(), lim) {
				return w
			}
		}
	}
}

// walkSkim opens each top-level element with Next and skims its subtree,
// resuming after every ChunkElements pause the way the stream caster does.
func walkSkim(r io.Reader, lim xmlscan.SkimLimits) walkResult {
	var w walkResult
	s := xmlscan.NewScanner(r)
	for {
		ev, err := s.Next()
		if err != nil {
			w.err = err
			return w
		}
		switch ev {
		case xmlscan.EventEOF:
			return w
		case xmlscan.EventStart:
			if !w.checkStart(s.Depth(), lim) {
				return w
			}
			lim.BaseOpen = s.Depth()
			for {
				lim.BaseElements = w.elements
				res, err := s.SkimSubtree(lim)
				w.elements += res.Elements
				w.maxDepth = max(w.maxDepth, res.MaxOpen)
				if err != nil {
					w.err = err
					return w
				}
				if res.Done {
					break
				}
			}
		}
	}
}

// FuzzSkimSubtree holds SkimSubtree to the event walk: skimming every
// top-level element's subtree must reach the same verdict, with the same
// error text, as walking every event with Next, and on acceptance count
// the same elements and the same maximum depth. Each input runs under a
// whole-buffer reader, a one-byte reader and a short-read reader that
// splits tokens across the window edge, unbounded and with small depth,
// element and chunk limits.
func FuzzSkimSubtree(f *testing.F) {
	for _, doc := range wgen.GrammarCorners() {
		f.Add([]byte(doc))
	}
	limits := []xmlscan.SkimLimits{{}, {MaxOpen: 4, MaxTotalElements: 40, ChunkElements: 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lim := range limits {
			want := walkEvents(bytes.NewReader(data), lim)
			readers := map[string]io.Reader{
				"bytes":   bytes.NewReader(data),
				"onebyte": iotest.OneByteReader(bytes.NewReader(data)),
				"edge":    xmlscan.NewEdgeReader(data),
			}
			for name, r := range readers {
				got := walkSkim(r, lim)
				if (got.err == nil) != (want.err == nil) ||
					got.err != nil && got.err.Error() != want.err.Error() {
					t.Fatalf("%s reader, limits %+v: skim err %v, event walk err %v on %q",
						name, lim, got.err, want.err, data)
				}
				if got.err == nil && (got.elements != want.elements || got.maxDepth != want.maxDepth) {
					t.Fatalf("%s reader, limits %+v: skim counted %d elements to depth %d, event walk %d to depth %d on %q",
						name, lim, got.elements, got.maxDepth, want.elements, want.maxDepth, data)
				}
			}
		}
	})
}

// TestSkimTextBytes runs every byte value, and the "]]>" sequence,
// through each lane of the first two words of a skimmed text run, so the
// word-at-a-time text test must stop where skimStop does: skimming and the
// event walk give the same verdict, error, element count and depth.
func TestSkimTextBytes(t *testing.T) {
	for lane := 0; lane < 16; lane++ {
		for b := 0; b <= 256; b++ {
			text := bytes.Repeat([]byte("a"), 20)
			if b < 256 {
				text[lane] = byte(b)
			} else {
				copy(text[lane:], "]]>")
			}
			doc := append(append([]byte("<r><skip>"), text...), "<x/></skip></r>"...)
			want := walkEvents(bytes.NewReader(doc), xmlscan.SkimLimits{})
			if got := walkSkim(bytes.NewReader(doc), xmlscan.SkimLimits{}); got.String() != want.String() {
				t.Fatalf("%q: skim %v; event walk %v", doc, got, want)
			}
		}
	}
}
